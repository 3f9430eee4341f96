package codegen

import (
	"fmt"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
)

// This file extends the What/When/Where descriptions with a time domain:
// a K axis in the When clause that fuses K explicit Euler steps into one
// sweep (temporal blocking, the wavefront-in-time of the multicore-aware
// blocking literature). The key structural difference from the spatial
// schedules is that statement domains shrink as k advances — sub-step k
// ranges over the valid box (or tile) grown by (K-1-k)*NGhost, which the
// polyhedra express with a -NGhost coefficient on the k dimension. The
// Where gains a Grow field: the state and temporaries cover the base box
// widened by the deepest sub-step's reach.
//
// The same description drives both consumers: TemporalProg is lowered by
// internal/schedc to flat-offset Go, and BuildTemporal interprets it
// directly — the interpreted run is the oracle the generated runner is
// differentially tested against, and both are bit-identical to composing
// kernel.Reference K times (see internal/temporal.Reference).

// TemporalVarNames names the loop dimensions of a temporal domain,
// outermost first: the sub-step axis k, then the spatial (z, y, x) nest.
func TemporalVarNames() []string { return []string{"k", "z", "y", "x"} }

// temporalDomain builds the parametric domain of one temporal statement.
// The spatial range at sub-step k is the valid box grown on every side by
// growConst + growK*k (face-extended by ext on the high side), with k in
// [0, kHi]. A tiled domain confines each axis to its tile grown by the
// same amount (TileDomainDesc): every tile computes the full shrinking
// wavefront of its own cells, recomputing shared shell values (the
// overlapped-tile trade extended in time).
func temporalDomain(tiled bool, growConst, growK int, ext [3]int, kHi int) SetDesc {
	if tiled {
		return TileDomainDesc(true, growConst, growK, ext, kHi)
	}
	dim := NumBoxParams + 1 + 3
	kIdx := NumBoxParams
	d := SetDesc{Dim: dim}
	add := func(coef []int, c int) {
		d.Cons = append(d.Cons, AffineDesc{Coef: coef, Const: c})
	}
	// k >= 0 and k <= kHi.
	k0 := make([]int, dim)
	k0[kIdx] = 1
	add(k0, 0)
	k1 := make([]int, dim)
	k1[kIdx] = -1
	add(k1, kHi)
	for lvl := 0; lvl < 3; lvl++ {
		axis := 2 - lvl // loop order z, y, x
		li := kIdx + 1 + lvl
		// v >= lo - grow(k)
		lo := make([]int, dim)
		lo[li], lo[2*axis], lo[kIdx] = 1, -1, growK
		add(lo, growConst)
		// v <= hi + grow(k) + ext
		hi := make([]int, dim)
		hi[li], hi[2*axis+1], hi[kIdx] = -1, 1, growK
		add(hi, growConst+ext[axis])
	}
	return d
}

// TemporalProg describes a K-step temporal-blocking sweep as one scheduled
// program. The statement sequence per sub-step k mirrors the series
// schedule exactly — zero the divergence accumulator, then per direction
// the face averages, velocity capture, flux products, and divergence
// accumulation, then the Euler update state -= EulerDt*acc — over the
// region grown by (K-1-k)*NGhost. Two k==0 statement groups bracket the
// sweep: scopy seeds the state from phi0 over the deepest grown box, and
// sdelta accumulates state - phi0 into phi1 over the valid box (the
// K-step delta contract of internal/temporal). tiled adds the three
// tile-origin loops outside the time loop, stepping by the tile-edge
// parameter, with all temporaries tile-local.
func TemporalProg(k int, tiled bool) ProgramDesc {
	if k < 1 {
		panic(fmt.Sprintf("codegen: temporal depth %d must be positive", k))
	}
	ng := kernel.NGhost
	tvars := 0
	vars := TemporalVarNames()
	if tiled {
		tvars = 3
		vars = append(TileVarNames(), vars...)
	}
	nv := len(vars)
	sched := func(group, seq int) ScheduleDesc {
		pos := make([]int, nv+1)
		pos[tvars] = group // before the k loop: copy / steps / delta
		pos[tvars+1] = seq // statement sequence within one sub-step
		return ScatterDesc(nv, pos...)
	}
	cells := temporalDomain(tiled, (k-1)*ng, -ng, [3]int{}, k-1)
	copyDom := temporalDomain(tiled, k*ng, 0, [3]int{}, 0)
	deltaDom := temporalDomain(tiled, 0, 0, [3]int{}, 0)

	pd := ProgramDesc{
		Name:  fmt.Sprintf("temporal-k%d", k),
		Vars:  vars,
		Tiled: tiled,
		Buffers: []BufferDesc{
			{Name: "state", Kind: "full", Dir: -1, Comps: kernel.NComp, Level: tvars, Grow: k * ng},
			{Name: "acc", Kind: "full", Dir: -1, Comps: kernel.NComp, Level: tvars, Grow: (k - 1) * ng},
		},
	}
	var velB, fluxB [3]string
	for d := 0; d < 3; d++ {
		velB[d] = "vel" + dirName[d]
		fluxB[d] = "flux" + dirName[d]
		pd.Buffers = append(pd.Buffers,
			BufferDesc{Name: fluxB[d], Kind: "full", Dir: d, Comps: kernel.NComp, Level: tvars, Grow: (k - 1) * ng},
			BufferDesc{Name: velB[d], Kind: "full", Dir: d, Comps: 1, Level: tvars, Grow: (k - 1) * ng},
		)
	}
	for c := 0; c < kernel.NComp; c++ {
		pd.Stmts = append(pd.Stmts, StmtDesc{
			Name: fmt.Sprintf("scopy-c%d", c), Macro: "scopy", Dir: -1, Comp: c,
			Bufs: []string{"state"}, Domain: copyDom, Sched: sched(0, c),
		})
	}
	seq := 0
	next := func() ScheduleDesc { s := sched(1, seq); seq++; return s }
	for c := 0; c < kernel.NComp; c++ {
		pd.Stmts = append(pd.Stmts, StmtDesc{
			Name: fmt.Sprintf("szero-c%d", c), Macro: "szero", Dir: -1, Comp: c,
			Bufs: []string{"acc"}, Domain: cells, Sched: next(),
		})
	}
	for d := 0; d < 3; d++ {
		faces := temporalDomain(tiled, (k-1)*ng, -ng, faceExt(d), k-1)
		for c := 0; c < kernel.NComp; c++ {
			pd.Stmts = append(pd.Stmts, StmtDesc{
				Name: fmt.Sprintf("sflux1%s-c%d", dirName[d], c), Macro: "sflux1", Dir: d, Comp: c,
				Bufs: []string{"state", fluxB[d]}, Domain: faces, Sched: next(),
			})
		}
		pd.Stmts = append(pd.Stmts, StmtDesc{
			Name: "svel" + dirName[d], Macro: "vel", Dir: d, Comp: -1,
			Bufs: []string{fluxB[d], velB[d]}, Domain: faces, Sched: next(),
		})
		for c := 0; c < kernel.NComp; c++ {
			pd.Stmts = append(pd.Stmts, StmtDesc{
				Name: fmt.Sprintf("sflux2%s-c%d", dirName[d], c), Macro: "flux2", Dir: d, Comp: c,
				Bufs: []string{velB[d], fluxB[d]}, Domain: faces, Sched: next(),
			})
			pd.Stmts = append(pd.Stmts, StmtDesc{
				Name: fmt.Sprintf("sacc%s-c%d", dirName[d], c), Macro: "sacc", Dir: d, Comp: c,
				Bufs: []string{fluxB[d], "acc"}, Domain: cells, Sched: next(),
			})
		}
	}
	for c := 0; c < kernel.NComp; c++ {
		pd.Stmts = append(pd.Stmts, StmtDesc{
			Name: fmt.Sprintf("seuler-c%d", c), Macro: "seuler", Dir: -1, Comp: c,
			Bufs: []string{"acc", "state"}, Domain: cells, Sched: next(),
		})
	}
	for c := 0; c < kernel.NComp; c++ {
		pd.Stmts = append(pd.Stmts, StmtDesc{
			Name: fmt.Sprintf("sdelta-c%d", c), Macro: "sdelta", Dir: -1, Comp: c,
			Bufs: []string{"state"}, Domain: deltaDom, Sched: sched(2, c),
		})
	}
	return pd
}

// dirName is shared with families consuming these descriptions.
var dirName = [3]string{"X", "Y", "Z"}

// flatGrid is the full-array storage mapping of one interpreter buffer.
type flatGrid struct {
	lo          ivect.IntVect
	sy, szr, sc int
}

func gridFor(b box.Box) flatGrid {
	sz := b.Size()
	return flatGrid{lo: b.Lo, sy: sz[0], szr: sz[0] * sz[1], sc: sz.Prod()}
}

func (g flatGrid) loc(p ivect.IntVect, c int) int {
	return (p[0] - g.lo[0]) + g.sy*(p[1]-g.lo[1]) + g.szr*(p[2]-g.lo[2]) + g.sc*c
}

// temporalData carries the interpreter storage of a temporal sweep: the
// K*NGhost-grown state, the divergence accumulator, and per-direction
// flux/velocity temporaries over the (K-1)*NGhost-grown face boxes.
type temporalData struct {
	phi0, phi1 *fab.FAB
	valid      box.Box
	state, acc []float64
	flux, vel  [3][]float64
	stateG     flatGrid
	accG       flatGrid
	faceG      [3]flatGrid
}

// BuildTemporal materializes the untiled K-step description as an
// interpretable program over concrete storage. Executing it accumulates
// the K-step delta into phi1 — the interpreted reference the generated
// temporal runners are differentially tested against.
func BuildTemporal(phi0, phi1 *fab.FAB, valid box.Box, k int) *Program {
	ng := kernel.NGhost
	e := &temporalData{phi0: phi0, phi1: phi1, valid: valid}
	stateB := valid.Grow(k * ng)
	accB := valid.Grow((k - 1) * ng)
	e.stateG = gridFor(stateB)
	e.accG = gridFor(accB)
	e.state = make([]float64, stateB.NumPts()*kernel.NComp)
	e.acc = make([]float64, accB.NumPts()*kernel.NComp)
	for d := 0; d < 3; d++ {
		faces := accB.SurroundingFaces(d)
		e.faceG[d] = gridFor(faces)
		e.flux[d] = make([]float64, faces.NumPts()*kernel.NComp)
		e.vel[d] = make([]float64, faces.NumPts())
	}
	pd := TemporalProg(k, false)
	vals := BoxParamValues(valid)
	p := &Program{}
	for _, st := range pd.Stmts {
		p.Add(&Statement{
			Name:     st.Name,
			Domain:   st.Domain.Bind(vals...).Set(),
			Schedule: st.Sched.Schedule(),
			Body:     e.body(st),
		})
	}
	return p
}

// tPointOf maps a (k, z, y, x) iteration vector to its grid point.
func tPointOf(x []int) ivect.IntVect { return ivect.New(x[3], x[2], x[1]) }

// body resolves a temporal statement macro to its What over the
// interpreter storage. The floating-point expressions are written exactly
// as in kernel.Reference (and the generated runners), so all three agree
// bitwise.
func (e *temporalData) body(st StmtDesc) func([]int) {
	c, d := st.Comp, st.Dir
	switch st.Macro {
	case "scopy":
		return func(x []int) {
			p := tPointOf(x)
			e.state[e.stateG.loc(p, c)] = e.phi0.Get(p, c)
		}
	case "szero":
		return func(x []int) {
			e.acc[e.accG.loc(tPointOf(x), c)] = 0
		}
	case "sflux1":
		return func(x []int) {
			p := tPointOf(x)
			lo := p.Shift(d, -1)
			v := kernel.C1*(e.state[e.stateG.loc(lo, c)]+e.state[e.stateG.loc(p, c)]) +
				kernel.C2*(e.state[e.stateG.loc(lo.Shift(d, -1), c)]+e.state[e.stateG.loc(p.Shift(d, 1), c)])
			e.flux[d][e.faceG[d].loc(p, c)] = v
		}
	case "vel":
		return func(x []int) {
			p := tPointOf(x)
			e.vel[d][e.faceG[d].loc(p, 0)] = e.flux[d][e.faceG[d].loc(p, kernel.VelComp(d))]
		}
	case "flux2":
		return func(x []int) {
			p := tPointOf(x)
			i := e.faceG[d].loc(p, c)
			e.flux[d][i] = kernel.Flux2(e.vel[d][e.faceG[d].loc(p, 0)], e.flux[d][i])
		}
	case "sacc":
		return func(x []int) {
			p := tPointOf(x)
			e.acc[e.accG.loc(p, c)] += e.flux[d][e.faceG[d].loc(p.Shift(d, 1), c)] - e.flux[d][e.faceG[d].loc(p, c)]
		}
	case "seuler":
		return func(x []int) {
			p := tPointOf(x)
			e.state[e.stateG.loc(p, c)] += -kernel.EulerDt * e.acc[e.accG.loc(p, c)]
		}
	case "sdelta":
		return func(x []int) {
			p := tPointOf(x)
			e.phi1.Set(p, c, e.phi1.Get(p, c)+(e.state[e.stateG.loc(p, c)]-e.phi0.Get(p, c)))
		}
	default:
		panic(fmt.Sprintf("codegen: unknown temporal macro %q", st.Macro))
	}
}

// RunTemporalInterpreted executes the untiled K-step temporal schedule
// through the interpreter, accumulating the K-step delta into phi1 over
// valid. phi0 must cover valid grown by k*NGhost.
func RunTemporalInterpreted(phi0, phi1 *fab.FAB, valid box.Box, k int) error {
	kernel.CheckStateK(phi0, phi1, valid, k)
	_, err := BuildTemporal(phi0, phi1, valid, k).Execute()
	return err
}
