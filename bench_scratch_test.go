package stencilsched

// Steady-state allocation benchmarks for the scratch-arena hot path: a
// measured run executes the same variant on the same-shaped boxes reps
// times, so after the first (warm-up) execution every flux, velocity and
// carried-cache temporary must come out of retained arena storage. Run
// with -benchmem: allocs/op is the contract (near zero), MCells/s the
// throughput that motivates it.

import (
	"runtime"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/kernel"
	"stencilsched/internal/sched"
	"stencilsched/internal/scratch"
	"stencilsched/internal/variants"
)

// steadyStates builds numBoxes smooth N^3 states for the named variant.
func steadyStates(tb testing.TB, name string, n, numBoxes int) (sched.Variant, []variants.State) {
	tb.Helper()
	v, err := sched.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	boxes := make([]box.Box, numBoxes)
	for i := range boxes {
		boxes[i] = box.Cube(n)
	}
	states := variants.NewLevelState(boxes)
	for _, s := range states {
		kernel.InitSmooth(s.Phi0, n)
	}
	return v, states
}

// resetStates zeroes every box's phi1 between repetitions.
func resetStates(states []variants.State) {
	for _, s := range states {
		s.Phi1.Fill(0)
	}
}

// steadyStateBench measures one warm repetition of ExecLevel: arenas are
// warmed by one untimed execution, then each iteration resets phi1
// (untimed, like measureStates' prep) and re-executes.
func steadyStateBench(b *testing.B, name string, n, numBoxes, threads int) {
	b.Helper()
	v, states := steadyStates(b, name, n, numBoxes)
	variants.ExecLevel(v, states, threads) // warm-up: grows the arenas
	cells := int64(n) * int64(n) * int64(n) * int64(numBoxes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetStates(states)
		b.StartTimer()
		variants.ExecLevel(v, states, threads)
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MCells/s")
}

// TestSteadyStateAllocation is the benchmarks' contract as a test: once
// warm, a repetition of ExecLevel draws its temporaries from retained
// arenas and pooled headers, so the Go heap sees at most a few small
// objects per repetition. It also pins how many arenas each box checks
// out — one per executor call (per tile for the overlapped schedules) —
// because an executor that holds an idle arena while a generated runner
// checks out another lets arenas trade places and regrow, which shows in
// the byte count only when the trade happens inside the measured window.
func TestSteadyStateAllocation(t *testing.T) {
	const (
		n, boxes   = 16, 4
		warm, reps = 3, 10
		budget     = 8 << 10 // bytes per repetition
	)
	for _, c := range []struct {
		name      string
		checkouts uint64 // arenas per box execution
	}{
		{"Baseline-CLO: P>=Box", 1},
		{"Baseline-CLI: P>=Box", 1},
		{"Shift-Fuse: P>=Box", 1},
		{"Shift-Fuse OT-8: P<Box", 8},
		{"Basic-Sched OT-8: P>=Box", 8},
		{"Blocked WF-CLO-8: P<Box", 1},
	} {
		v, states := steadyStates(t, c.name, n, boxes)
		for i := 0; i < warm; i++ {
			variants.ExecLevel(v, states, 2)
		}
		var before, after runtime.MemStats
		pool0 := scratch.Default.Stats()
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			resetStates(states)
			variants.ExecLevel(v, states, 2)
		}
		runtime.ReadMemStats(&after)
		pool1 := scratch.Default.Stats()
		per := (after.TotalAlloc - before.TotalAlloc) / reps
		t.Logf("%s: %d B per warm repetition", c.name, per)
		if per > budget && !raceEnabled {
			t.Errorf("%s: %d B allocated per warm repetition, budget %d", c.name, per, budget)
		}
		got := (pool1.Hits + pool1.Misses - pool0.Hits - pool0.Misses) / (reps * boxes)
		if got != c.checkouts {
			t.Errorf("%s: %d arena checkouts per box, want %d", c.name, got, c.checkouts)
		}
	}
}

// P>=Box (box-parallel, serial within the box) at both studied box sizes.
func BenchmarkSteadyShiftFuseOverBoxes32(b *testing.B) {
	steadyStateBench(b, "Shift-Fuse: P>=Box", 32, 4, 2)
}
func BenchmarkSteadyShiftFuseOverBoxes128(b *testing.B) {
	steadyStateBench(b, "Shift-Fuse: P>=Box", 128, 1, 1)
}

// P<Box (thread-parallel within the box) at both studied box sizes.
func BenchmarkSteadyFusedOTWithinBox32(b *testing.B) {
	steadyStateBench(b, "Shift-Fuse OT-8: P<Box", 32, 1, 2)
}
func BenchmarkSteadyFusedOTWithinBox128(b *testing.B) {
	steadyStateBench(b, "Shift-Fuse OT-16: P<Box", 128, 1, 2)
}

// The baseline series schedule carries the largest temporaries (Table I),
// so it gains the most from retention.
func BenchmarkSteadyBaseline32(b *testing.B) {
	steadyStateBench(b, "Baseline: P>=Box", 32, 4, 2)
}
func BenchmarkSteadyBlockedWF32(b *testing.B) {
	steadyStateBench(b, "Blocked WF-CLO-8: P<Box", 32, 1, 2)
}
