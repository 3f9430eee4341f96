package schedc

import (
	"fmt"
	"strings"

	"stencilsched/internal/codegen"
	"stencilsched/internal/kernel"
)

// emitter carries the state of lowering one program to Go source.
type emitter struct {
	prog *codegen.ProgramDesc
	b    *strings.Builder
	bufs map[string]*bufInfo
	// hoist, when non-nil, collects the row-invariant parts of index
	// expressions while the innermost loop body is emitted into a side
	// buffer; the collected declarations are placed just above the loop.
	hoist *hoistSet
	// zSlabs splits every top-level z loop over threads (Family.zSlabs).
	zSlabs bool
}

func (e *emitter) printf(format string, args ...any) {
	fmt.Fprintf(e.b, format, args...)
}

// hoistSet deduplicates row-invariant subexpressions hoisted out of the
// innermost loop (strength reduction: the inner loop sees base + x, all
// stride multiplies happen once per row, as in the hand-written sweeps).
type hoistSet struct {
	names map[string]string
	decls []hoistDecl
}

type hoistDecl struct{ name, expr string }

func (h *hoistSet) get(expr string) string {
	if name, ok := h.names[expr]; ok {
		return name
	}
	name := fmt.Sprintf("r%d", len(h.decls))
	h.names[expr] = name
	h.decls = append(h.decls, hoistDecl{name, expr})
	return name
}

// reduce combines the innermost-variable part of an index expression
// with its row-invariant part. With an active hoist set the row part
// becomes a named local computed above the loop; otherwise the full
// expression is emitted inline.
func (e *emitter) reduce(xTerm, row string) string {
	if e.hoist != nil {
		name := e.hoist.get(row)
		if xTerm == "" {
			return name
		}
		return xTerm + " + " + name
	}
	if xTerm == "" {
		return row
	}
	return wrapExpr(xTerm) + " + " + wrapExpr(row)
}

// bufInfo is one buffer's emitted addressing scheme.
type bufInfo struct {
	d codegen.BufferDesc
	// base is the per-axis low-corner expression of the buffer's index
	// space ("lo0" for box-level storage, the origin "tx" for tile-local).
	base [3]string
	// strides/slot are identifiers of prelude locals.
	sy, sz, sc string // full arrays
	slot       string // ring slot size ("1" when the slot is a scalar)
	innerS     string // ring stride of the second inner axis
}

// extentExpr renders the index-space extent of axis a: the box extent
// plus one on the buffer's face direction.
func (bi *bufInfo) extentExpr(a int, hi [3]string) string {
	ext := ""
	if a == bi.d.Dir {
		ext = " + 1"
	}
	return fmt.Sprintf("%s - %s + 1%s", hi[a], bi.base[a], ext)
}

// growExpr widens a corner expression by delta cells (negative shrinks):
// the Grow of temporal working sets applied to a base or high corner.
func growExpr(corner string, delta int) string {
	switch {
	case delta > 0:
		return fmt.Sprintf("(%s + %d)", corner, delta)
	case delta < 0:
		return fmt.Sprintf("(%s - %d)", corner, -delta)
	}
	return corner
}

// bufBounds applies a buffer's Grow to its per-axis corner names,
// returning the base (low) and high expressions of its index space.
func bufBounds(bi *bufInfo, loName, hiName func(a int) string) (lo, hi [3]string) {
	for a := 0; a < 3; a++ {
		lo[a] = growExpr(loName(a), -bi.d.Grow)
		hi[a] = growExpr(hiName(a), bi.d.Grow)
	}
	return lo, hi
}

// emitBufPrelude writes the allocation and stride locals of one buffer.
// hi names the per-axis high-corner expressions of the buffer's box.
func (e *emitter) emitBufPrelude(bi *bufInfo, hi [3]string, ind string) {
	n := bi.d.Name
	switch bi.d.Kind {
	case "full":
		bi.sy, bi.sz, bi.sc = n+"SY", n+"SZ", n+"SC"
		e.printf("%s%s := %s\n", ind, bi.sy, bi.extentExpr(0, hi))
		e.printf("%s%s := %s * (%s)\n", ind, bi.sz, bi.sy, bi.extentExpr(1, hi))
		e.printf("%s%s := %s * (%s)\n", ind, bi.sc, bi.sz, bi.extentExpr(2, hi))
		e.printf("%s%s := ar.Floats(%s * %d)\n", ind, n, bi.sc, bi.d.Comps)
	case "ring":
		if bi.d.Depth != 2 {
			panic(fmt.Sprintf("schedc: ring %s depth %d unsupported", n, bi.d.Depth))
		}
		if bi.d.Grow != 0 {
			panic(fmt.Sprintf("schedc: ring %s cannot grow", n))
		}
		switch len(bi.d.Inner) {
		case 0:
			bi.slot = "1"
			e.printf("%s%s := ar.Floats(%d)\n", ind, n, 2*bi.d.Comps)
		case 1:
			bi.slot = n + "Slot"
			e.printf("%s%s := %s\n", ind, bi.slot, bi.extentExpr(bi.d.Inner[0], hi))
			e.printf("%s%s := ar.Floats(2 * %s * %d)\n", ind, n, bi.slot, bi.d.Comps)
		case 2:
			bi.innerS = n + "SIn"
			bi.slot = n + "Slot"
			e.printf("%s%s := %s\n", ind, bi.innerS, bi.extentExpr(bi.d.Inner[0], hi))
			e.printf("%s%s := %s * (%s)\n", ind, bi.slot, bi.innerS, bi.extentExpr(bi.d.Inner[1], hi))
			e.printf("%s%s := ar.Floats(2 * %s * %d)\n", ind, n, bi.slot, bi.d.Comps)
		default:
			panic(fmt.Sprintf("schedc: ring %s with %d inner axes", n, len(bi.d.Inner)))
		}
	default:
		panic(fmt.Sprintf("schedc: unknown buffer kind %q", bi.d.Kind))
	}
}

// index renders the flat index of the buffer at spatial coordinates ax
// (per-axis expressions) for component c. Axis 0 varies with the
// innermost loop; everything else is row-invariant and hoistable.
func (e *emitter) index(bi *bufInfo, ax [3]string, c int) string {
	if bi.d.Comps == 1 {
		c = 0
	}
	switch bi.d.Kind {
	case "full":
		row := fmt.Sprintf("%s*(%s - %s) + %s*(%s - %s) - %s",
			bi.sy, ax[1], bi.base[1], bi.sz, ax[2], bi.base[2], bi.base[0])
		if c != 0 {
			row += fmt.Sprintf(" + %d*%s", c, bi.sc)
		}
		return e.reduce(ax[0], row)
	case "ring":
		d := bi.d.Dir
		if d == 0 {
			// Parity on the innermost axis: nothing to hoist, and the
			// slot is a scalar (no inner axes).
			idx := fmt.Sprintf("((%s - %s) & 1)", ax[0], bi.base[0])
			if c != 0 {
				idx += fmt.Sprintf(" + %d", 2*c)
			}
			return idx
		}
		row := fmt.Sprintf("((%s - %s) & 1)", ax[d], bi.base[d])
		if bi.slot != "1" {
			row += " * " + bi.slot
		}
		xTerm := ""
		for i, a := range bi.d.Inner {
			if a == 0 {
				xTerm = ax[0]
				row += " - " + bi.base[0]
			} else if i == 0 {
				row += fmt.Sprintf(" + %s - %s", wrapExpr(ax[a]), bi.base[a])
			} else {
				row += fmt.Sprintf(" + %s*(%s - %s)", bi.innerS, ax[a], bi.base[a])
			}
		}
		if c != 0 {
			if bi.slot == "1" {
				row += fmt.Sprintf(" + %d", 2*c)
			} else {
				row += fmt.Sprintf(" + %d*%s", 2*c, bi.slot)
			}
		}
		return e.reduce(xTerm, row)
	}
	panic("schedc: unreachable")
}

// emitScopedBuffers allocates the buffers declared at loop depth level:
// tile-local storage of the overlapped schedules. It emits the tile-bound
// locals the buffer geometry needs, marks the arena, and returns the
// rewind statement the caller emits after the nest (empty when no buffer
// lives at this depth).
func (e *emitter) emitScopedBuffers(level int, ind string) string {
	var scoped []*bufInfo
	for _, name := range bufOrder(e.prog) {
		bi := e.bufs[name]
		if bi.d.Level == level {
			scoped = append(scoped, bi)
		}
	}
	if len(scoped) == 0 {
		return ""
	}
	if !e.prog.Tiled || level != len(codegen.TileVarNames()) {
		panic(fmt.Sprintf("schedc: buffers at depth %d need tile loops", level))
	}
	// Tile bounds: the origin variables in scope are the low corners; the
	// high corners clip the tile to the valid box.
	var tlo [3]string
	for _, v := range e.prog.Vars[:level] {
		a, _ := axisOf(v)
		tlo[a] = v
		e.printf("%sthi%d := min(hi%d, %s+%s-1)\n", ind, a, a, v, codegen.TileEdgeParam)
	}
	e.printf("%sam := ar.Mark()\n", ind)
	for _, bi := range scoped {
		var hi [3]string
		bi.base, hi = bufBounds(bi,
			func(a int) string { return tlo[a] },
			func(a int) string { return fmt.Sprintf("thi%d", a) })
		e.emitBufPrelude(bi, hi, ind)
	}
	return "ar.Rewind(am)"
}

// bufOrder returns buffer names in declaration order.
func bufOrder(pd *codegen.ProgramDesc) []string {
	names := make([]string, len(pd.Buffers))
	for i, b := range pd.Buffers {
		names[i] = b.Name
	}
	return names
}

// dirStride0 is the phi0 stride expression of direction d.
func dirStride0(d int) string {
	return [...]string{"1", "s0y", "s0z"}[d]
}

// bufDirStride is a full buffer's stride expression along direction d,
// for stencils reading the buffer itself (the temporal state).
func bufDirStride(bi *bufInfo, d int) string {
	return [...]string{"1", bi.sy, bi.sz}[d]
}

// faceAvgExpr is the textual expansion of kernel.FaceAvg(ph, off, s):
// the fourth-order face average as one expression over kernel.C1/C2.
// Expanded inline instead of emitted as a call because the large runner
// functions exceed the inliner's big-caller threshold, where only calls
// cheaper than FaceAvg are inlined — a real call per face costs the
// series family ~30%. The expression tree is identical to the kernel's,
// and the conformance suite pins bit-exactness against kernel.Reference.
func faceAvgExpr(ph, off, s string) string {
	lo, lo2, hi := off+"-"+s, off+"-2*"+s, off+"+"+s
	if s == "1" {
		lo, lo2, hi = off+"-1", off+"-2", off+"+1"
	}
	return fmt.Sprintf("kernel.C1*(%s[%s]+%s[%s]) + kernel.C2*(%s[%s]+%s[%s])",
		ph, lo, ph, off, ph, lo2, ph, hi)
}

// off0 renders the flat offset of coordinates ax in a phi0 component.
func (e *emitter) off0(ax [3]string) string {
	return e.reduce(ax[0], fmt.Sprintf("s0y*(%s - g0[1]) + s0z*(%s - g0[2]) - g0[0]", ax[1], ax[2]))
}

// off1 renders the flat offset of coordinates ax in a phi1 component.
func (e *emitter) off1(ax [3]string) string {
	return e.reduce(ax[0], fmt.Sprintf("s1y*(%s - g1[1]) + s1z*(%s - g1[2]) - g1[0]", ax[1], ax[2]))
}

// axes returns the statement's iteration-coordinate expressions.
func (e *emitter) axes(ls *loweredStmt) [3]string {
	var ax [3]string
	for a := 0; a < 3; a++ {
		ax[a] = ls.axisExpr(e.prog.Vars, a)
	}
	return ax
}

// shiftAxis returns ax with axis a shifted by k cells.
func shiftAxis(ax [3]string, a, k int) [3]string {
	out := ax
	out[a] = addConst(ax[a], k)
	return out
}

// emitMacro expands one statement instance. Every macro writes exactly
// the expressions of the interpreted Whats (the faceAvgExpr expansion of
// kernel.FaceAvg, kernel.Flux2, x-y-z accumulation order), so the
// generated code is bit-identical to kernel.Reference.
func (e *emitter) emitMacro(ls *loweredStmt, ind string) {
	st := ls.st
	ax := e.axes(ls)
	d := st.Dir
	buf := func(i int) *bufInfo {
		bi, ok := e.bufs[st.Bufs[i]]
		if !ok {
			panic(fmt.Sprintf("schedc: statement %s: unknown buffer %q", st.Name, st.Bufs[i]))
		}
		return bi
	}
	switch st.Macro {
	case "flux1":
		// Fourth-order face average of component Comp into Bufs[0].
		f := buf(0)
		e.printf("%s{\n", ind)
		e.printf("%s\to0 := %s\n", ind, e.off0(ax))
		e.printf("%s\t%s[%s] = %s\n",
			ind, f.d.Name, e.index(f, ax, st.Comp),
			faceAvgExpr(fmt.Sprintf("p0_%d", st.Comp), "o0", dirStride0(d)))
		e.printf("%s}\n", ind)
	case "vel":
		// Capture the advection velocity: Bufs[0] is the flux storage,
		// Bufs[1] the velocity storage.
		f, v := buf(0), buf(1)
		e.printf("%s%s[%s] = %s[%s]\n",
			ind, v.d.Name, e.index(v, ax, 0), f.d.Name, e.index(f, ax, kernel.VelComp(d)))
	case "flux2":
		// flux = velocity * face average, in place. Bufs[0] velocity,
		// Bufs[1] flux.
		v, f := buf(0), buf(1)
		e.printf("%s{\n", ind)
		e.printf("%s\tfi := %s\n", ind, e.index(f, ax, st.Comp))
		e.printf("%s\t%s[fi] = kernel.Flux2(%s[%s], %s[fi])\n",
			ind, f.d.Name, v.d.Name, e.index(v, ax, 0), f.d.Name)
		e.printf("%s}\n", ind)
	case "acc":
		// Accumulate the flux divergence of direction d into phi1.
		f := buf(0)
		e.printf("%s{\n", ind)
		e.printf("%s\to1 := %s\n", ind, e.off1(ax))
		e.printf("%s\tp1_%d[o1] += %s[%s] - %s[%s]\n",
			ind, st.Comp, f.d.Name, e.index(f, shiftAxis(ax, d, 1), st.Comp), f.d.Name, e.index(f, ax, st.Comp))
		e.printf("%s}\n", ind)
	case "fluxdir":
		// One-shot flux of the fused families: velocity times face
		// average, straight into the ring. Bufs[0] velocity (full),
		// Bufs[1] flux ring.
		v, f := buf(0), buf(1)
		e.printf("%s{\n", ind)
		e.printf("%s\to0 := %s\n", ind, e.off0(ax))
		e.printf("%s\t%s[%s] = kernel.Flux2(%s[%s], %s)\n",
			ind, f.d.Name, e.index(f, ax, st.Comp), v.d.Name, e.index(v, ax, 0),
			faceAvgExpr(fmt.Sprintf("p0_%d", st.Comp), "o0", dirStride0(d)))
		e.printf("%s}\n", ind)
	case "accfused":
		// Fused accumulation: all three direction contributions per
		// cell, in x, y, z order, read from the direction rings.
		// Bufs[0..2] are the x, y, z flux rings.
		fx, fy, fz := buf(0), buf(1), buf(2)
		c := st.Comp
		e.printf("%s{\n", ind)
		e.printf("%s\to1 := %s\n", ind, e.off1(ax))
		e.printf("%s\tv := p1_%d[o1]\n", ind, c)
		e.printf("%s\tv += %s[%s] - %s[%s]\n",
			ind, fx.d.Name, e.index(fx, shiftAxis(ax, 0, 1), c), fx.d.Name, e.index(fx, ax, c))
		e.printf("%s\tv += %s[%s] - %s[%s]\n",
			ind, fy.d.Name, e.index(fy, shiftAxis(ax, 1, 1), c), fy.d.Name, e.index(fy, ax, c))
		e.printf("%s\tv += %s[%s] - %s[%s]\n",
			ind, fz.d.Name, e.index(fz, shiftAxis(ax, 2, 1), c), fz.d.Name, e.index(fz, ax, c))
		e.printf("%s\tp1_%d[o1] = v\n", ind, c)
		e.printf("%s}\n", ind)
	case "scopy":
		// Seed the temporal state from phi0 over the deepest grown box.
		s := buf(0)
		e.printf("%s{\n", ind)
		e.printf("%s\to0 := %s\n", ind, e.off0(ax))
		e.printf("%s\t%s[%s] = p0_%d[o0]\n", ind, s.d.Name, e.index(s, ax, st.Comp), st.Comp)
		e.printf("%s}\n", ind)
	case "szero":
		// Zero the divergence accumulator for one sub-step's region.
		a := buf(0)
		e.printf("%s%s[%s] = 0\n", ind, a.d.Name, e.index(a, ax, st.Comp))
	case "sflux1":
		// Fourth-order face average read from the temporal state buffer
		// (Bufs[0]) instead of phi0, written into the flux (Bufs[1]).
		s, f := buf(0), buf(1)
		e.printf("%s{\n", ind)
		e.printf("%s\tsi := %s\n", ind, e.index(s, ax, st.Comp))
		e.printf("%s\t%s[%s] = %s\n",
			ind, f.d.Name, e.index(f, ax, st.Comp),
			faceAvgExpr(s.d.Name, "si", bufDirStride(s, d)))
		e.printf("%s}\n", ind)
	case "sacc":
		// Accumulate direction d's flux divergence into the accumulator
		// buffer (Bufs[1]) rather than phi1 — the Euler update consumes it.
		f, a := buf(0), buf(1)
		e.printf("%s{\n", ind)
		e.printf("%s\tai := %s\n", ind, e.index(a, ax, st.Comp))
		e.printf("%s\t%s[ai] += %s[%s] - %s[%s]\n",
			ind, a.d.Name, f.d.Name, e.index(f, shiftAxis(ax, d, 1), st.Comp), f.d.Name, e.index(f, ax, st.Comp))
		e.printf("%s}\n", ind)
	case "seuler":
		// Explicit Euler update: state -= EulerDt * divergence, the same
		// expression fab.Plus(acc, reg, -dt) evaluates in the engine.
		a, s := buf(0), buf(1)
		e.printf("%s{\n", ind)
		e.printf("%s\tsi := %s\n", ind, e.index(s, ax, st.Comp))
		e.printf("%s\t%s[si] += -kernel.EulerDt * %s[%s]\n",
			ind, s.d.Name, a.d.Name, e.index(a, ax, st.Comp))
		e.printf("%s}\n", ind)
	case "sdelta":
		// K-step delta writeback: phi1 += state_K - phi0 over the valid
		// box (internal/temporal.AddDiff's expression).
		s := buf(0)
		e.printf("%s{\n", ind)
		e.printf("%s\to0 := %s\n", ind, e.off0(ax))
		e.printf("%s\to1 := %s\n", ind, e.off1(ax))
		e.printf("%s\tp1_%d[o1] += %s[%s] - p0_%d[o0]\n",
			ind, st.Comp, s.d.Name, e.index(s, ax, st.Comp), st.Comp)
		e.printf("%s}\n", ind)
	default:
		panic(fmt.Sprintf("schedc: unknown macro %q", st.Macro))
	}
}
