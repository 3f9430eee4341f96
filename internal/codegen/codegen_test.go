package codegen

import (
	"math/rand"
	"reflect"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/poly"
)

func TestScatterShape(t *testing.T) {
	s := Scatter(2, 7, 8, 9)
	if len(s.Rows) != 5 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	if got := s.Eval([]int{3, 4}); !reflect.DeepEqual(got, []int{7, 3, 8, 4, 9}) {
		t.Fatalf("Eval = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad position count did not panic")
		}
	}()
	Scatter(2, 1)
}

func TestShift(t *testing.T) {
	s := Scatter(2, 0, 0, 0).Shift(1, 5)
	if got := s.Eval([]int{3, 4}); !reflect.DeepEqual(got, []int{0, 3, 0, 9, 0}) {
		t.Fatalf("shifted Eval = %v", got)
	}
	// The original schedule must be unchanged (Shift is functional).
	orig := Scatter(2, 0, 0, 0)
	if got := orig.Eval([]int{3, 4}); !reflect.DeepEqual(got, []int{0, 3, 0, 4, 0}) {
		t.Fatalf("original mutated: %v", got)
	}
}

func TestProgramValidate(t *testing.T) {
	p := &Program{}
	if err := p.Validate(); err == nil {
		t.Error("empty program accepted")
	}
	dom := poly.Box([]int{0}, []int{3})
	p.Add(&Statement{Name: "a", Domain: dom, Schedule: Scatter(1, 0, 0), Body: func([]int) {}})
	p.Add(&Statement{Name: "b", Domain: dom, Schedule: Scatter(1, 0, 1), Body: func([]int) {}})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Add(&Statement{Name: "c", Domain: dom, Schedule: Schedule{Rows: []poly.Affine{{}}}, Body: func([]int) {}})
	if err := p.Validate(); err == nil {
		t.Error("mismatched time vector lengths accepted")
	}
}

func TestExecuteOrdersByTime(t *testing.T) {
	// Two statements over [0,2]: "p" (produce) at position 0, "q" (consume)
	// at position 1, fused at the loop level: order must be p0 q0 p1 q1 ...
	var log []string
	dom := poly.Box([]int{0}, []int{2})
	p := &Program{}
	p.Add(&Statement{Name: "p", Domain: dom, Schedule: Scatter(1, 0, 0),
		Body: func(x []int) { log = append(log, "p"+string(rune('0'+x[0]))) }})
	p.Add(&Statement{Name: "q", Domain: dom, Schedule: Scatter(1, 0, 1),
		Body: func(x []int) { log = append(log, "q"+string(rune('0'+x[0]))) }})
	n, err := p.Execute()
	if err != nil || n != 6 {
		t.Fatalf("Execute = %d, %v", n, err)
	}
	want := []string{"p0", "q0", "p1", "q1", "p2", "q2"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order = %v", log)
	}
}

func TestShiftReordersAcrossStatements(t *testing.T) {
	// Shifting the consumer by +1 makes it trail the producer by one
	// iteration — the shift-and-fuse legality trick.
	dom := poly.Box([]int{0}, []int{2})
	p := &Program{}
	p.Add(&Statement{Name: "prod", Domain: dom, Schedule: Scatter(1, 0, 0), Body: func([]int) {}})
	p.Add(&Statement{Name: "cons", Domain: dom, Schedule: Scatter(1, 0, 1).Shift(0, 1), Body: func([]int) {}})
	names, iters, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	// Expected: prod0, prod1 cons0, prod2 cons1, cons2.
	wantNames := []string{"prod", "prod", "cons", "prod", "cons", "cons"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("names = %v iters = %v", names, iters)
	}
}

func TestStorageMapping(t *testing.T) {
	full := Storage([]int{1, 4}, 0, nil)
	if full([]int{3, 2}) != 11 {
		t.Fatalf("full = %d", full([]int{3, 2}))
	}
	ring := Storage([]int{1, 4}, 0, []int{0, 2})
	if ring([]int{3, 5}) != 3+4*1 {
		t.Fatalf("ring = %d", ring([]int{3, 5}))
	}
	if ring([]int{0, -1}) != 4 { // negative wraps into [0, mod)
		t.Fatalf("ring negative = %d", ring([]int{0, -1}))
	}
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch did not panic")
		}
	}()
	full([]int{1})
}

// TestExemplarSeriesMatchesReference cross-validates the What/When/Where
// expression of Fig. 6 against the hand-written reference: same bits.
func TestExemplarSeriesMatchesReference(t *testing.T) {
	b := box.Cube(6)
	phi0, want := kernel.NewState(b)
	rnd := rand.New(rand.NewSource(71))
	phi0.Randomize(rnd, 0.5, 1.5)
	kernel.Reference(phi0, want, b)

	phi1 := fab.New(b, kernel.NComp)
	if err := RunExemplar(phi0, phi1, b, false); err != nil {
		t.Fatal(err)
	}
	if d, at, c := phi1.MaxDiff(want, b); d != 0 {
		t.Fatalf("series codegen differs: %g at %v comp %d", d, at, c)
	}
}

// TestExemplarSeriesCLIMatchesReference interprets the component-loop-
// inside description, the one the compiled RunSeriesCLI is lowered from:
// moving the component loop under x changes only the When, so the bits
// stay identical.
func TestExemplarSeriesCLIMatchesReference(t *testing.T) {
	b := box.New(ivect.New(-2, 1, 3), ivect.New(3, 4, 6))
	phi0, want := kernel.NewState(b)
	phi0.Randomize(rand.New(rand.NewSource(73)), 0.5, 1.5)
	kernel.Reference(phi0, want, b)

	phi1 := fab.New(b, kernel.NComp)
	e := &exemplarData{phi0: phi0, phi1: phi1, valid: b}
	for d := 0; d < ivect.SpaceDim; d++ {
		if _, err := buildFromDesc(e, SeriesDesc(d, true)).Execute(); err != nil {
			t.Fatal(err)
		}
	}
	if d, at, c := phi1.MaxDiff(want, b); d != 0 {
		t.Fatalf("series CLI codegen differs: %g at %v comp %d", d, at, c)
	}
}

// TestExemplarFusedMatchesReference validates the shifted-and-fused
// schedule with ring-buffer storage — the When and Where both changed, the
// Whats untouched, the bits identical.
func TestExemplarFusedMatchesReference(t *testing.T) {
	for _, n := range []int{4, 6} {
		b := box.Cube(n)
		phi0, want := kernel.NewState(b)
		rnd := rand.New(rand.NewSource(int64(72 + n)))
		phi0.Randomize(rnd, 0.5, 1.5)
		kernel.Reference(phi0, want, b)

		phi1 := fab.New(b, kernel.NComp)
		if err := RunExemplar(phi0, phi1, b, true); err != nil {
			t.Fatal(err)
		}
		if d, at, c := phi1.MaxDiff(want, b); d != 0 {
			t.Fatalf("N=%d fused codegen differs: %g at %v comp %d", n, d, at, c)
		}
	}
}

// TestFusedUsesRingStorage asserts the Where actually shrank: ring storage
// is two planes, not a full face box.
func TestFusedUsesRingStorage(t *testing.T) {
	b := box.Cube(8)
	phi0, phi1 := kernel.NewState(b)
	e := &exemplarData{phi0: phi0, phi1: phi1, valid: b}
	BuildRowFused(e, 0)
	wantFlux := 2 * 8 * 9 * 9 * kernel.NComp / 9 // two (y,z) face planes per comp
	_ = wantFlux
	// Two planes of the x-face box (9x8x8): plane = 8*8 points.
	if got := len(e.flux); got != 2*8*8*kernel.NComp {
		t.Fatalf("ring flux storage = %d floats", got)
	}
	BuildSeries(e, 0)
	if got := len(e.flux); got != 9*8*8*kernel.NComp {
		t.Fatalf("full flux storage = %d floats", got)
	}
	_ = ivect.Zero
}
