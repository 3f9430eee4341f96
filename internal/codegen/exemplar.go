package codegen

import (
	"fmt"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/poly"
)

// This file expresses the paper's exemplar (Fig. 6) in the What/When/Where
// form of Section IV-E, as CodeGen+ was used to do, and is cross-validated
// against kernel.Reference and the hand-written variants. Two Whens are
// provided over the same Whats:
//
//   - BuildSeries: the original series-of-loops schedule (every statement a
//     full pass), with full-array flux storage;
//   - BuildRowFused: the face loops shifted by one and fused with the cell
//     loop at the direction's loop level, with the flux stored in a
//     two-deep ring buffer along the fused dimension (the Where change the
//     shift enables).
//
// Both programs accumulate into phi1 with cell/component values that are
// bit-identical to kernel.Reference.

// exemplarData carries the shared Whats' storage.
type exemplarData struct {
	phi0, phi1 *fab.FAB
	valid      box.Box
	// flux and vel are (re)bound per direction by the builders; the Where
	// is the mapping from face index to storage, not the array itself.
	flux    []float64 // flux storage (full or ring), NComp planes
	vel     []float64 // velocity storage matching flux geometry
	fluxLoc func(p ivect.IntVect, c int) int
	velLoc  func(p ivect.IntVect) int
}

// pointOf maps a (z, y, x) iteration vector to a grid point.
func pointOf(x []int) ivect.IntVect { return ivect.New(x[2], x[1], x[0]) }

// domainOf builds the (z, y, x)-ordered polyhedral domain of a box.
func domainOf(b box.Box) *poly.Set {
	return poly.Box(
		[]int{b.Lo[2], b.Lo[1], b.Lo[0]},
		[]int{b.Hi[2], b.Hi[1], b.Hi[0]},
	)
}

// whats builds the four statement bodies of the exemplar for direction d.
// The bodies use the current storage mappings in e, so the same Whats run
// under any When/Where combination.
func (e *exemplarData) whats(d int) (flux1 func(c int) func([]int), vel func([]int), flux2, acc func(c int) func([]int)) {
	flux1 = func(c int) func([]int) {
		return func(x []int) {
			p := pointOf(x)
			lo := p.Shift(d, -1)
			v := kernel.C1*(e.phi0.Get(lo, c)+e.phi0.Get(p, c)) +
				kernel.C2*(e.phi0.Get(lo.Shift(d, -1), c)+e.phi0.Get(p.Shift(d, 1), c))
			e.flux[e.fluxLoc(p, c)] = v
		}
	}
	vel = func(x []int) {
		p := pointOf(x)
		e.vel[e.velLoc(p)] = e.flux[e.fluxLoc(p, kernel.VelComp(d))]
	}
	flux2 = func(c int) func([]int) {
		return func(x []int) {
			p := pointOf(x)
			e.flux[e.fluxLoc(p, c)] = kernel.Flux2(e.vel[e.velLoc(p)], e.flux[e.fluxLoc(p, c)])
		}
	}
	acc = func(c int) func([]int) {
		return func(x []int) {
			p := pointOf(x)
			diff := e.flux[e.fluxLoc(p.Shift(d, 1), c)] - e.flux[e.fluxLoc(p, c)]
			e.phi1.Set(p, c, e.phi1.Get(p, c)+diff)
		}
	}
	return flux1, vel, flux2, acc
}

// bindFullStorage gives e full-array flux/velocity storage over the face
// box of direction d (the series Where).
func (e *exemplarData) bindFullStorage(d int) {
	faces := e.valid.SurroundingFaces(d)
	sz := faces.Size()
	e.flux = make([]float64, sz.Prod()*kernel.NComp)
	e.vel = make([]float64, sz.Prod())
	lo := faces.Lo
	sy, sz2, sc := sz[0], sz[0]*sz[1], sz.Prod()
	e.fluxLoc = func(p ivect.IntVect, c int) int {
		return (p[0] - lo[0]) + sy*(p[1]-lo[1]) + sz2*(p[2]-lo[2]) + sc*c
	}
	e.velLoc = func(p ivect.IntVect) int {
		return (p[0] - lo[0]) + sy*(p[1]-lo[1]) + sz2*(p[2]-lo[2])
	}
}

// bindRingStorage gives e a two-deep ring buffer along direction d (the
// fused Where): only the current and previous face planes are stored.
func (e *exemplarData) bindRingStorage(d int) {
	faces := e.valid.SurroundingFaces(d)
	sz := faces.Size()
	planeSz := sz.Prod() / sz[d] // points per face plane
	e.flux = make([]float64, 2*planeSz*kernel.NComp)
	e.vel = make([]float64, 2*planeSz)
	lo := faces.Lo
	// Index within a plane: drop dimension d.
	inPlane := func(p ivect.IntVect) int {
		idx := 0
		stride := 1
		for dim := 0; dim < 3; dim++ {
			if dim == d {
				continue
			}
			idx += (p[dim] - lo[dim]) * stride
			stride *= sz[dim]
		}
		return idx
	}
	e.fluxLoc = func(p ivect.IntVect, c int) int {
		ring := ((p[d]-lo[d])%2 + 2) % 2
		return ring*planeSz + inPlane(p) + c*2*planeSz
	}
	e.velLoc = func(p ivect.IntVect) int {
		ring := ((p[d]-lo[d])%2 + 2) % 2
		return ring*planeSz + inPlane(p)
	}
}

// fusedLevel returns the loop level of direction d in the (z, y, x) nest.
func fusedLevel(d int) int { return map[int]int{0: 2, 1: 1, 2: 0}[d] }

// BuildSeries expresses Fig. 6 (component loop outside) as a scheduled
// program for one direction d: each statement is a full pass at a distinct
// top-level static position. The schedule comes from SeriesDesc — the same
// serializable description the schedule compiler lowers to Go source.
func BuildSeries(e *exemplarData, d int) *Program {
	return buildFromDesc(e, SeriesDesc(d, false))
}

// BuildRowFused expresses the shifted-and-fused schedule for direction d:
// all statements share the loop levels down to the fused level (the
// direction's own loop); the accumulation is shifted by +1 there so each
// flux value is consumed immediately after the plane computing it, which
// is what legalizes the two-deep ring-buffer storage. The schedule comes
// from RowFusedDesc (see BuildSeries).
func BuildRowFused(e *exemplarData, d int) *Program {
	return buildFromDesc(e, RowFusedDesc(d))
}

// buildFromDesc materializes a description as an interpretable program:
// storage is bound per the description's buffer kinds, macro names resolve
// to the Whats of the exemplar, and every domain is bound to the concrete
// valid box. Interpreting the result is the oracle the generated code is
// differentially tested against.
func buildFromDesc(e *exemplarData, pd ProgramDesc) *Program {
	switch pd.Buffers[0].Kind {
	case "full":
		e.bindFullStorage(pd.Dir)
	case "ring":
		e.bindRingStorage(pd.Dir)
	default:
		panic(fmt.Sprintf("codegen: unknown buffer kind %q", pd.Buffers[0].Kind))
	}
	flux1, vel, flux2, acc := e.whats(pd.Dir)
	vals := BoxParamValues(e.valid)
	p := &Program{}
	for _, st := range pd.Stmts {
		var body func(x []int)
		switch st.Macro {
		case "flux1":
			body = flux1(st.Comp)
		case "vel":
			body = vel
		case "flux2":
			body = flux2(st.Comp)
		case "acc":
			body = acc(st.Comp)
		default:
			panic(fmt.Sprintf("codegen: unknown macro %q", st.Macro))
		}
		p.Add(&Statement{
			Name:     st.Name,
			Domain:   st.Domain.Bind(vals...).Set(),
			Schedule: st.Sched.Schedule(),
			Body:     body,
		})
	}
	return p
}

// RunExemplar executes the full three-direction exemplar under the given
// builder ("series" or "fused" per direction), accumulating into phi1.
func RunExemplar(phi0, phi1 *fab.FAB, valid box.Box, fused bool) error {
	kernel.CheckState(phi0, phi1, valid)
	e := &exemplarData{phi0: phi0, phi1: phi1, valid: valid}
	for d := 0; d < ivect.SpaceDim; d++ {
		var p *Program
		if fused {
			p = BuildRowFused(e, d)
		} else {
			p = BuildSeries(e, d)
		}
		if _, err := p.Execute(); err != nil {
			return err
		}
	}
	return nil
}
