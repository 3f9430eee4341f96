package schedc

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"stencilsched/internal/codegen"
	"stencilsched/internal/kernel"
	"stencilsched/internal/poly"
)

// loweredStmt is one statement prepared for nest emission: its scatter
// positions and shifts, the per-level symbolic bounds of its time domain,
// and the guard conditions left over after union-bound fusion.
type loweredStmt struct {
	st     *codegen.StmtDesc
	pos    []int       // static positions, len(vars)+1
	shifts []int       // per-level schedule shifts
	loops  []poly.Loop // per-level time-domain bounds (simplified)
	// guards are per-level residual conditions (bound var at that level);
	// emitted at the outermost point where the variable is in scope and
	// every statement of the group shares them, else around the body.
	guards []guard
}

// guard is one residual execution condition of a fused statement.
type guard struct {
	level int
	cond  string
}

// axisExpr returns the statement's iteration-coordinate expression for
// spatial axis a in terms of the loop variables (time coordinates): the
// loop variable minus the schedule shift at the axis's level.
func (ls *loweredStmt) axisExpr(vars []string, a int) string {
	for lvl := len(vars) - 1; lvl >= 0; lvl-- {
		if isTileVar(vars[lvl]) || isTimeVar(vars[lvl]) {
			continue
		}
		if ax, _ := axisOf(vars[lvl]); ax == a {
			return addConst(vars[lvl], -ls.shifts[lvl])
		}
	}
	panic(fmt.Sprintf("schedc: no loop variable for axis %d", a))
}

// timeDomain translates a statement's iteration domain to its time domain
// under the schedule's shifts: substituting x_i = t_i - shift_i leaves
// coefficients unchanged and folds the shifts into the constants.
func timeDomain(st *codegen.StmtDesc, nparams int, shifts []int) codegen.SetDesc {
	out := codegen.SetDesc{Dim: st.Domain.Dim}
	for _, con := range st.Domain.Cons {
		nc := codegen.AffineDesc{Coef: append([]int(nil), con.Coef...), Const: con.Const}
		for i, s := range shifts {
			if k := nparams + i; k < len(con.Coef) {
				nc.Const -= con.Coef[k] * s
			}
		}
		out.Cons = append(out.Cons, nc)
	}
	return out
}

// lowerStmts prepares every statement of a program for emission. allVars
// is the full dimension naming: box parameters then loop variables.
func lowerStmts(pd *codegen.ProgramDesc) ([]*loweredStmt, []string, error) {
	nvars := len(pd.Vars)
	params := pd.ParamNames()
	allVars := append(append([]string(nil), params...), pd.Vars...)
	var out []*loweredStmt
	for i := range pd.Stmts {
		st := &pd.Stmts[i]
		if err := st.Sched.ScatterForm(nvars); err != nil {
			return nil, nil, fmt.Errorf("statement %s: %w", st.Name, err)
		}
		ls := &loweredStmt{st: st}
		for lvl := 0; lvl <= nvars; lvl++ {
			ls.pos = append(ls.pos, st.Sched.Pos(lvl))
		}
		for lvl := 0; lvl < nvars; lvl++ {
			ls.shifts = append(ls.shifts, st.Sched.ShiftOf(lvl))
		}
		td := timeDomain(st, len(params), ls.shifts)
		if td.Dim != len(allVars) {
			return nil, nil, fmt.Errorf("statement %s: domain dim %d, want %d",
				st.Name, td.Dim, len(allVars))
		}
		loops, err := td.Set().Loops(allVars, len(params))
		if err != nil {
			return nil, nil, fmt.Errorf("statement %s: %w", st.Name, err)
		}
		for i := range loops {
			loops[i].Lo = foldBound("max", loops[i].Los)
			loops[i].Hi = foldBound("min", loops[i].His)
		}
		ls.loops = loops
		out = append(out, ls)
	}
	return out, allVars, nil
}

// emitNest recursively emits the loop nest for a group of statements that
// share all static positions above level. ind is the current indentation.
func (e *emitter) emitNest(group []*loweredStmt, level int, ind string) {
	nvars := len(e.prog.Vars)
	if level == nvars {
		// Innermost: order by the final static position, emit bodies with
		// their residual guards.
		sort.SliceStable(group, func(i, j int) bool {
			return group[i].pos[nvars] < group[j].pos[nvars]
		})
		for _, ls := range group {
			e.emitBody(ls, ind)
		}
		return
	}

	// Partition by the static position at this level, preserving order.
	type part struct {
		pos     int
		members []*loweredStmt
	}
	var parts []part
	byPos := map[int]int{}
	for _, ls := range group {
		p := ls.pos[level]
		if i, ok := byPos[p]; ok {
			parts[i].members = append(parts[i].members, ls)
		} else {
			byPos[p] = len(parts)
			parts = append(parts, part{pos: p, members: []*loweredStmt{ls}})
		}
	}
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].pos < parts[j].pos })

	v := e.prog.Vars[level]
	step := v + "++"
	if isTileVar(v) {
		step = v + " += " + codegen.TileEdgeParam
	}
	for _, p := range parts {
		// Union bounds over the members' time domains at this level.
		var los, his []string
		for _, ls := range p.members {
			los = append(los, ls.loops[level].Lo)
			his = append(his, ls.loops[level].Hi)
		}
		lo := foldBound("min", los)
		hi := foldBound("max", his)
		if isTileVar(v) {
			// Tile origins step by E from the box's low corner: any other
			// start would shift the tile grid.
			if a, _ := axisOf(v); lo != fmt.Sprintf("lo%d", a) {
				panic(fmt.Sprintf("schedc: tile loop %s starts at %s, not lo%d", v, lo, a))
			}
		}
		// Residual guards for members whose own bounds are narrower.
		for _, ls := range p.members {
			if !boundEqual(ls.loops[level].Lo, lo) {
				ls.guards = append(ls.guards, guard{level, fmt.Sprintf("%s >= %s", v, ls.loops[level].Lo)})
			}
			if !boundEqual(ls.loops[level].Hi, hi) {
				ls.guards = append(ls.guards, guard{level, fmt.Sprintf("%s <= %s", v, ls.loops[level].Hi)})
			}
		}
		// Hoist guards shared by every member whose variables are already
		// in scope (bound at outer levels).
		hoisted := e.sharedGuards(p.members, level)
		bind := ind
		if len(hoisted) > 0 {
			e.printf("%sif %s {\n", ind, strings.Join(hoisted, " && "))
			bind += "\t"
		}
		e.printf("%s{\n", bind)
		inner := bind + "\t"
		e.printf("%s%sHi := %s\n", inner, v, hi)
		body := inner + "\t"
		switch {
		case level == 0 && e.zSlabs:
			e.emitSlabbed(p.members, v, lo, inner)
		case level == nvars-1:
			// Innermost loop: emit its body into a side buffer while the
			// hoist set collects the row-invariant parts of every index
			// expression, then place those as locals above the loop —
			// the inner loop does base+x additions only, every stride
			// multiply happens once per row.
			e.hoist = &hoistSet{names: map[string]string{}}
			sub := new(strings.Builder)
			saved := e.b
			e.b = sub
			e.emitNest(p.members, level+1, body)
			e.b = saved
			for _, dcl := range e.hoist.decls {
				e.printf("%s%s := %s\n", inner, dcl.name, dcl.expr)
			}
			e.hoist = nil
			e.printf("%sfor %s := %s; %s <= %sHi; %s {\n", inner, v, lo, v, v, step)
			e.b.WriteString(sub.String())
			e.printf("%s}\n", inner)
		default:
			e.printf("%sfor %s := %s; %s <= %sHi; %s {\n", inner, v, lo, v, v, step)
			// Tile-local storage: allocated once all tile-origin loops are
			// entered, released per iteration of the innermost tile loop.
			rewind := e.emitScopedBuffers(level+1, body)
			e.emitNest(p.members, level+1, body)
			if rewind != "" {
				e.printf("%s%s\n", body, rewind)
			}
			e.printf("%s}\n", inner)
		}
		e.printf("%s}\n", bind)
		if len(hoisted) > 0 {
			e.printf("%s}\n", ind)
		}
	}
}

// emitSlabbed emits a top-level loop over v (the z axis) from lo to the
// vHi local, run as one serial loop when threads <= 1 and split into
// contiguous slabs by parallel.ForChunked otherwise, whose return is the
// join before the next nest. The loop body is emitted once and placed in
// both branches: the serial path stays a plain loop, with no closure to
// allocate.
func (e *emitter) emitSlabbed(members []*loweredStmt, v, lo, ind string) {
	sub := new(strings.Builder)
	saved := e.b
	e.b = sub
	e.emitNest(members, 1, ind+"\t\t")
	e.b = saved
	body := sub.String()
	e.printf("%s%sLo := %s\n", ind, v, lo)
	e.printf("%sif threads <= 1 {\n", ind)
	e.printf("%s\tfor %s := %sLo; %s <= %sHi; %s++ {\n", ind, v, v, v, v, v)
	e.b.WriteString(body)
	e.printf("%s\t}\n", ind)
	e.printf("%s} else {\n", ind)
	e.printf("%s\tparallel.ForChunked(threads, %sHi-%sLo+1, func(_, from, to int) {\n", ind, v, v)
	// A captured variable lives in the closure's context and is reloaded
	// from memory after every store to a temporary; re-declaring the ones
	// the body reads as closure locals keeps them in registers, as on the
	// serial path.
	if used := e.capturedIn(body); len(used) > 0 {
		list := strings.Join(used, ", ")
		e.printf("%s\t\t%s := %s\n", ind, list, list)
	}
	e.printf("%s\t\tfor %s := %sLo + from; %s < %sLo+to; %s++ {\n", ind, v, v, v, v, v)
	e.b.WriteString(body) // gofmt re-indents the copy
	e.printf("%s\t\t}\n", ind)
	e.printf("%s\t})\n", ind)
	e.printf("%s}\n", ind)
}

// capturedIn returns the runner- and program-level locals that src
// reads, in declaration order: the box corners, phi0/phi1 geometry and
// component slices of the runner prelude (EmitRunner), and the program's
// buffers with their full-array stride locals (z-slab programs have no
// other storage).
func (e *emitter) capturedIn(src string) []string {
	names := append(e.prog.ParamNames(), "g0", "g1", "s0y", "s0z", "s1y", "s1z")
	for c := 0; c < kernel.NComp; c++ {
		names = append(names, fmt.Sprintf("p0_%d", c), fmt.Sprintf("p1_%d", c))
	}
	for _, name := range bufOrder(e.prog) {
		bi := e.bufs[name]
		names = append(names, name, bi.sy, bi.sz, bi.sc)
	}
	idents := map[string]bool{}
	for _, id := range identRE.FindAllString(src, -1) {
		idents[id] = true
	}
	var used []string
	for _, name := range names {
		if idents[name] {
			used = append(used, name)
		}
	}
	return used
}

var identRE = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// sharedGuards removes and returns the guard conditions held by every
// member of a group whose bound variables are in scope outside level —
// those can wrap the whole group instead of the innermost bodies.
func (e *emitter) sharedGuards(members []*loweredStmt, level int) []string {
	if len(members) == 0 {
		return nil
	}
	var shared []string
	for _, g := range members[0].guards {
		if g.level >= level {
			continue
		}
		all := true
		for _, m := range members[1:] {
			found := false
			for _, h := range m.guards {
				if h.level == g.level && h.cond == g.cond {
					found = true
					break
				}
			}
			if !found {
				all = false
				break
			}
		}
		if all {
			shared = append(shared, g.cond)
		}
	}
	if len(shared) == 0 {
		return nil
	}
	for _, m := range members {
		var rest []guard
		for _, g := range m.guards {
			keep := true
			for _, s := range shared {
				if g.cond == s {
					keep = false
					break
				}
			}
			if keep {
				rest = append(rest, g)
			}
		}
		m.guards = rest
	}
	return shared
}

// emitBody writes one statement's macro expansion, wrapped in its
// residual guard conditions.
func (e *emitter) emitBody(ls *loweredStmt, ind string) {
	var conds []string
	for _, g := range ls.guards {
		conds = append(conds, g.cond)
	}
	ls.guards = nil
	if len(conds) > 0 {
		e.printf("%sif %s {\n", ind, strings.Join(conds, " && "))
		e.emitMacro(ls, ind+"\t")
		e.printf("%s}\n", ind)
		return
	}
	e.emitMacro(ls, ind)
}
