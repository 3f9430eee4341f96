package main

import (
	"testing"

	"stencilsched/internal/ivect"
	"stencilsched/internal/sched"
	"stencilsched/internal/solver"
)

// TestReplicaMatchesAdvance checks the solve-n64 step replica bitwise
// against Solver.Advance on a small level, Euler and RK4, so the
// per-layer numbers keep measuring the real step if Solver.Step
// changes.
func TestReplicaMatchesAdvance(t *testing.T) {
	rho := solveRho(16)
	init := func(p ivect.IntVect) float64 {
		return rho(float64(p[0])+0.5, float64(p[1])+0.5, float64(p[2])+0.5)
	}
	v, err := sched.Parse(solveVariant)
	if err != nil {
		t.Fatal(err)
	}
	for _, integ := range []solver.Integrator{solver.Euler, solver.RK4} {
		cfg := solver.Config{Variant: v, Integrator: integ, Dt: 0.2, Threads: 2}
		ref, err := solver.NewAdvectionState(16, 8, 0.5, -0.25, 0.125, init, 2)
		if err != nil {
			t.Fatal(err)
		}
		s, err := solver.New(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solver.NewAdvectionState(16, 8, 0.5, -0.25, 0.125, init, 2)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := newReplica(got, cfg, NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		const steps = 3
		s.Advance(steps)
		for i := 0; i < steps; i++ {
			rep.Step()
		}
		if b, at := stateDiff(ref, got); b >= 0 {
			t.Errorf("%v: replica differs from Solver.Advance at box %d index %d", integ, b, at)
		}
		// Every step is one root span; the layer spans hang off it.
		total, self := layerTimes(rep.rec.Spans())
		if total["solver.step"] <= 0 || total["variants.exec"] <= 0 || total["layout.exchange"] <= 0 {
			t.Errorf("%v: missing layer spans: %v", integ, total)
		}
		if self["solver.step"] < 0 {
			t.Errorf("%v: negative step self time %v", integ, self["solver.step"])
		}
	}
}
