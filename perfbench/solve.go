package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"stencilsched"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/machine"
	"stencilsched/internal/perfmodel"
	"stencilsched/internal/scratch"
	"stencilsched/internal/solver"
)

// solve-n64: a 64^3 periodic domain in eight 32^3 boxes, RK4, dt 0.2,
// two threads, with the /v1/solve default variant.
const (
	solveDomainN = 64
	solveBoxN    = 32
	solveThreads = 2
	solveDt      = 0.2
	solveVariant = "Shift-Fuse: P>=Box"
	// solveSetups is how many times set-up is repeated; setup_s is the
	// median.
	solveSetups = 7
	// solveLinfBound bounds the density error against the exactly
	// advected profile for runs of up to a few hundred steps.
	solveLinfBound = 1e-3
	// conserveRelTol is how far a conserved total may drift, relative to
	// its magnitude: rounding only.
	conserveRelTol = 1e-11
	// bytesPerCell is the traffic one flux-kernel application must move
	// per cell: phi0 read plus phi1 read and write, five components of
	// eight bytes each.
	bytesPerCell = 3 * kernel.NComp * 8
)

// maxCFL caps dt * (|ux|+|uy|+|uz|) for seeded velocities.
const maxCFL = 0.3

// seededVelocity draws a velocity whose components lie in [-0.5, 0.5]
// with dt*sum|u| at most maxCFL and at least maxCFL/10, rounded to 1e-6
// so it prints exactly.
func seededVelocity(rng *rand.Rand, dt float64) [3]float64 {
	for {
		var u [3]float64
		var sum float64
		for d := range u {
			u[d] = math.Round((rng.Float64()-0.5)*1e6) / 1e6
			sum += math.Abs(u[d])
		}
		if cfl := dt * sum; cfl <= maxCFL && cfl >= maxCFL/10 {
			return u
		}
	}
}

// solveRho is the initial density: one sine period across the domain.
func solveRho(domainN int) func(x, y, z float64) float64 {
	k := 2 * math.Pi / float64(domainN)
	return func(x, y, z float64) float64 {
		return 1 + 0.25*math.Sin(k*x)*math.Sin(k*y)*math.Sin(k*z)
	}
}

func solveProblem(seed int64) (stencilsched.AdvectionProblem, stencilsched.Variant, error) {
	v, err := stencilsched.ParseVariant(solveVariant)
	if err != nil {
		return stencilsched.AdvectionProblem{}, v, err
	}
	return stencilsched.AdvectionProblem{
		DomainN: solveDomainN, BoxN: solveBoxN,
		U:   seededVelocity(rand.New(rand.NewSource(seed)), solveDt),
		Rho: solveRho(solveDomainN), Dt: solveDt,
		Integrator: stencilsched.RK4, Threads: solveThreads,
	}, v, nil
}

func runSolve(cfg runConfig) (*outcome, error) {
	p, v, err := solveProblem(cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceSolve(cfg, p, v)
	}
	var adv *stencilsched.Advection
	setups := make([]float64, solveSetups)
	for i := range setups {
		adv = nil
		runtime.GC()
		_, setups[i] = cpuIt(func() { adv, err = stencilsched.NewAdvection(p, v) })
		if err != nil {
			return nil, err
		}
	}
	start := adv.Totals()
	// One untimed step lets the scratch arenas and plan caches fill.
	adv.Advance(1)
	var cpus []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		_, c := cpuIt(func() { adv.Advance(1) })
		cpus = append(cpus, c)
	}
	out := &outcome{attempted: len(cpus), metrics: map[string]float64{}}
	linf, _ := adv.DensityError()
	checkSolve(out, start, adv.Totals(), linf)
	out.metrics["setup_s"] = median(setups)
	out.metrics["op_cpu_s"] = median(cpus)
	out.metrics["peak_rss_mb"] = peakRSSMB(0)
	return out, nil
}

// checkSolve checks conservation of every total and the density error.
func checkSolve(out *outcome, before, after [5]float64, linf float64) {
	for c := range before {
		if d := math.Abs(after[c] - before[c]); d > conserveRelTol*math.Max(1, math.Abs(before[c])) {
			out.fail("solve: total %d drifted by %g (from %g)", c, d, before[c])
		}
	}
	if !(linf <= solveLinfBound) {
		out.fail("solve: density error %g above %g", linf, solveLinfBound)
	}
}

// traceSolve is the traced solve-n64 run. Its first half times
// Solver.Step untraced on one state (the overhead baseline, and the
// solver's own allocation counts); its second half runs the replica
// with spans on an identical second state. The reference is then
// stepped to the same count and the two states compared bitwise.
func traceSolve(cfg runConfig, p stencilsched.AdvectionProblem, v stencilsched.Variant) (*outcome, error) {
	rho := func(pt ivect.IntVect) float64 {
		return p.Rho(float64(pt[0])+0.5, float64(pt[1])+0.5, float64(pt[2])+0.5)
	}
	newState := func() (*solver.Solver, error) {
		ld, err := solver.NewAdvectionState(p.DomainN, p.BoxN, p.U[0], p.U[1], p.U[2], rho, p.Threads)
		if err != nil {
			return nil, err
		}
		return solver.New(ld, solver.Config{Variant: v, Integrator: p.Integrator, Dt: p.Dt, Threads: p.Threads})
	}
	ref, err := newState()
	if err != nil {
		return nil, err
	}
	other, err := newState()
	if err != nil {
		return nil, err
	}
	rec := NewRecorder()
	rep, err := newReplica(other.State(), solver.Config{Variant: v, Integrator: p.Integrator, Dt: p.Dt, Threads: p.Threads}, nil)
	if err != nil {
		return nil, err
	}
	start := ref.Totals()
	// Warm both paths untraced, one step each.
	ref.Step()
	rep.Step()

	steal := stealShare()
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	var plain []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for deadline := time.Now().Add(half); time.Now().Before(deadline); {
		plain = append(plain, timeIt(ref.Step))
	}
	runtime.ReadMemStats(&m1)

	rep.rec = rec
	sc0 := scratch.Default.Stats()
	for deadline := time.Now().Add(half); time.Now().Before(deadline); {
		rep.Step()
	}
	sc1 := scratch.Default.Stats()
	rep.rec = nil
	for int64(ref.Steps()) < rep.steps {
		ref.Step()
	}
	for rep.steps < int64(ref.Steps()) {
		rep.Step()
	}

	out := &outcome{attempted: len(plain) + int(rep.steps), metrics: map[string]float64{}, spans: rec}
	if b, at := stateDiff(ref.State(), rep.state); b >= 0 {
		out.fail("solve: replica differs from Solver.Step after %d steps at box %d index %d", rep.steps, b, at)
	}
	t := ref.Time()
	linf, _ := ref.ErrorNorms(0, func(pt ivect.IntVect) float64 {
		return p.Rho(float64(pt[0])+0.5-p.U[0]*t, float64(pt[1])+0.5-p.U[1]*t, float64(pt[2])+0.5-p.U[2]*t)
	})
	checkSolve(out, start, ref.Totals(), linf)
	spans := rec.Spans()
	total, self := layerTimes(spans)
	var stepDurs []float64
	for _, s := range spans {
		if s.Name == "solver.step" {
			stepDurs = append(stepDurs, s.Dur())
		}
	}
	n := float64(len(stepDurs))
	if n == 0 {
		return nil, fmt.Errorf("solve: no traced steps in %v", half)
	}
	stages := float64(len(rep.stages))
	cells := math.Pow(solveDomainN, 3)
	step := total["solver.step"] / n
	exch := total["layout.exchange"] / n
	exec := total["variants.exec"] / n
	axpy := (total["fab.fill"] + total["fab.scale"] + total["fab.axpy"]) / n
	mt := out.metrics
	mt["bench.trace_overhead_ratio"] = median(stepDurs) / median(plain)
	mt["bench.steal_share"] = steal()
	var plainSum float64
	for _, s := range plain {
		plainSum += s
	}
	setWall(mt, plain, tailQuantile["solve-n64"], cells*float64(len(plain))/plainSum/1e6)
	mt["solver.step_s"] = step
	mt["solver.unaccounted_s"] = self["solver.step"] / n
	mt["solver.allocs_per_step"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(plain))
	mt["solver.bytes_per_step"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(plain))
	mt["layout.exchange_s"] = exch
	mt["layout.exchange_share"] = exch / step
	mt["layout.exchange_bytes_computed"] = float64(rep.state.Copier().ExchangeBytes(kernel.NComp)) * stages
	mt["variants.exec_s"] = exec
	mt["variants.share"] = exec / step
	mt["variants.ns_per_cell"] = exec / (cells * stages) * 1e9
	numBoxes := float64(rep.state.Layout.NumBoxes())
	mt["variants.gflops_computed"] = perfmodel.FlopsPerBox(v, solveBoxN) * numBoxes * stages / exec / 1e9
	mt["variants.teff_gbs_computed"] = bytesPerCell * cells * stages / exec / 1e9
	mt["fab.axpy_s"] = axpy
	mt["fab.axpy_share"] = axpy / step
	if d := (sc1.Hits - sc0.Hits) + (sc1.Misses - sc0.Misses); d > 0 {
		mt["scratch.hit_ratio"] = float64(sc1.Hits-sc0.Hits) / float64(d)
	}
	m, err := machine.ByName("desktop")
	if err != nil {
		return nil, err
	}
	pred := perfmodel.Time(perfmodel.Config{
		Machine: m, Variant: v, BoxN: solveBoxN, NumBoxes: int(numBoxes), Threads: p.Threads,
	}).TotalSec * stages
	mt["perfmodel.predicted_step_s"] = pred
	mt["perfmodel.residual"] = step / pred
	return out, nil
}
