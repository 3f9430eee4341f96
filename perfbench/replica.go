package main

import (
	"fmt"

	"stencilsched/internal/fab"
	"stencilsched/internal/kernel"
	"stencilsched/internal/layout"
	"stencilsched/internal/sched"
	"stencilsched/internal/solver"
	"stencilsched/internal/variants"
)

// stepReplica replays solver.(*Solver).Step through the public calls of
// the layers under it, so each call can be timed from outside: ghost
// exchange (layout), the flux kernel (variants), and the integrator's
// AXPYs (fab). Its arithmetic is the solver's, call for call, so its
// state stays bitwise equal to Solver.Advance; replica_test.go and the
// traced solve-n64 run both check that. It covers the Euler and RK4
// integrators with a P>=Box variant, which is what the benchmark runs.
type stepReplica struct {
	cfg    solver.Config
	state  *layout.LevelData
	tmp    *layout.LevelData
	stages [][]*fab.FAB // [stage][box]
	rec    *Recorder
	steps  int64
}

// newReplica sets up the replica over state, allocating the same stage
// scratch solver.New does.
func newReplica(state *layout.LevelData, cfg solver.Config, rec *Recorder) (*stepReplica, error) {
	n := map[solver.Integrator]int{solver.Euler: 1, solver.RK4: 4}[cfg.Integrator]
	if n == 0 || cfg.Variant.Par != sched.OverBoxes {
		return nil, fmt.Errorf("replica: replays Euler and RK4 with a P>=Box variant, not %v with %s",
			cfg.Integrator, cfg.Variant.Name())
	}
	if cfg.Dx == 0 {
		cfg.Dx = 1
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	r := &stepReplica{cfg: cfg, state: state, rec: rec}
	for k := 0; k < n; k++ {
		fs := make([]*fab.FAB, state.Layout.NumBoxes())
		for i, b := range state.Layout.Boxes {
			fs[i] = fab.New(b, kernel.NComp)
		}
		r.stages = append(r.stages, fs)
	}
	if n > 1 {
		r.tmp = layout.NewLevelData(state.Layout, kernel.NComp, state.NGhost)
	}
	return r, nil
}

// operator is Solver.operator: k = -div F(src)/dx into dst.
func (r *stepReplica) operator(parent int64, dst []*fab.FAB, src *layout.LevelData) {
	rec, req, th := r.rec, r.steps, r.cfg.Threads
	rec.Do("layout.exchange", parent, req, func() { src.Exchange(th) })
	scale := -1.0 / r.cfg.Dx
	states := make([]variants.State, len(dst))
	rec.Do("fab.fill", parent, req, func() {
		for i, b := range src.Layout.Boxes {
			dst[i].Fill(0)
			states[i] = variants.State{Valid: b, Phi0: src.Fabs[i], Phi1: dst[i]}
		}
	})
	rec.Do("variants.exec", parent, req, func() { variants.ExecLevel(r.cfg.Variant, states, th) })
	rec.Do("fab.scale", parent, req, func() {
		for _, f := range dst {
			f.Scale(scale)
		}
	})
}

// axpyState is Solver.axpyState: tmp = state + a*k on valid regions.
func (r *stepReplica) axpyState(parent int64, a float64, k []*fab.FAB) {
	r.rec.Do("fab.axpy", parent, r.steps, func() {
		for i, b := range r.state.Layout.Boxes {
			r.tmp.Fabs[i].CopyFrom(r.state.Fabs[i], b)
			r.tmp.Fabs[i].Plus(k[i], b, a)
		}
	})
}

// plus adds sum_j w_j*k_j into the state, box by box in the solver's
// order.
func (r *stepReplica) plus(parent int64, ks [][]*fab.FAB, ws []float64) {
	r.rec.Do("fab.axpy", parent, r.steps, func() {
		for i, b := range r.state.Layout.Boxes {
			f := r.state.Fabs[i]
			for j, k := range ks {
				f.Plus(k[i], b, ws[j])
			}
		}
	})
}

// Step is Solver.Step, recorded as one "solver.step" span whose
// children are the layer calls.
func (r *stepReplica) Step() {
	r.steps++
	id := r.rec.Open("solver.step", 0, r.steps)
	dt := r.cfg.Dt
	s := r.stages
	switch r.cfg.Integrator {
	case solver.Euler:
		r.operator(id, s[0], r.state)
		r.plus(id, s[:1], []float64{dt})
	case solver.RK4:
		r.operator(id, s[0], r.state)
		r.axpyState(id, dt/2, s[0])
		r.operator(id, s[1], r.tmp)
		r.axpyState(id, dt/2, s[1])
		r.operator(id, s[2], r.tmp)
		r.axpyState(id, dt, s[2])
		r.operator(id, s[3], r.tmp)
		r.plus(id, s, []float64{dt / 6, dt / 3, dt / 3, dt / 6})
	}
	r.rec.Close(id)
}

// stateDiff reports the first index at which two levels' data differ
// bitwise (ghosts included), or -1, -1 when they are identical.
func stateDiff(a, b *layout.LevelData) (box, at int) {
	for i, fa := range a.Fabs {
		da, db := fa.Data(), b.Fabs[i].Data()
		for j := range da {
			if da[j] != db[j] {
				return i, j
			}
		}
	}
	return -1, -1
}
