package schedc

import (
	"fmt"
	"sort"
	"strings"

	"stencilsched/internal/codegen"
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
		if level == nvars-1 {
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
		} else {
			e.printf("%sfor %s := %s; %s <= %sHi; %s {\n", inner, v, lo, v, v, step)
			// Tile-local storage: allocated once all tile-origin loops are
			// entered, released per iteration of the innermost tile loop.
			rewind := e.emitScopedBuffers(level+1, body)
			e.emitNest(p.members, level+1, body)
			if rewind != "" {
				e.printf("%s%s\n", body, rewind)
			}
		}
		e.printf("%s}\n", inner)
		e.printf("%s}\n", bind)
		if len(hoisted) > 0 {
			e.printf("%s}\n", ind)
		}
	}
}

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
