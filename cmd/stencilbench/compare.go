package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"stencilsched/internal/box"
	"stencilsched/internal/conform"
	"stencilsched/internal/fab"
	"stencilsched/internal/kernel"
	"stencilsched/internal/report"
)

// compareTriple names the schedc-compiled runner for one schedule family
// and the codegen interpreter executing the same schedule (the two
// CodeGen+ schedules only). The studied variants of these families run
// on the generated runners themselves, so no hand-written twin is left
// to compare against.
type compareTriple struct {
	family      string
	generated   string
	interpreted string // "" when the family has no interpreter
}

// compareTriples lists the registered compiled families in emission order.
func compareTriples() []compareTriple {
	return []compareTriple{
		{
			family:      "series",
			generated:   "CodeGen series (generated)",
			interpreted: "CodeGen series (interpreted)",
		},
		{
			family:      "row-fused",
			generated:   "CodeGen row-fused (generated)",
			interpreted: "CodeGen row-fused (interpreted)",
		},
		{
			family:    "shift-fuse",
			generated: "Shift-Fuse (generated)",
		},
		{
			family:    "ot-16",
			generated: "Basic-Sched OT-16 (generated)",
		},
	}
}

// compareFamily is one row of the compare record: per-cell times for the
// generated and (where one exists) interpreted execution of one schedule
// family, plus the speedup the acceptance bar is stated in.
type compareFamily struct {
	Family               string  `json:"family"`
	Generated            string  `json:"generated"`
	Interpreted          string  `json:"interpreted,omitempty"`
	GeneratedNsPerCell   float64 `json:"generated_ns_per_cell"`
	InterpretedNsPerCell float64 `json:"interpreted_ns_per_cell,omitempty"`
	// SpeedupVsInterpreter is interpreted/generated per-cell time.
	SpeedupVsInterpreter float64 `json:"speedup_vs_interpreter,omitempty"`
}

// compareRecord is the BENCH_*.json schema of a compare run.
type compareRecord struct {
	Mode     string          `json:"mode"`
	BoxN     int             `json:"box_n"`
	Threads  int             `json:"threads"`
	Reps     int             `json:"reps"`
	Families []compareFamily `json:"families"`
}

// timeRunner measures one registry runner on a warm N^3 box: one
// untimed warm-up (arena growth, page faults), then reps timed runs
// taking the minimum. Returns ns per cell.
func timeRunner(r conform.Runner, phi0 *fab.FAB, b box.Box, reps int) (float64, error) {
	phi1 := fab.New(b, kernel.NComp)
	if err := r.Run(phi0, phi1, b, 1); err != nil {
		return 0, fmt.Errorf("%s: %w", r.Name, err)
	}
	best := time.Duration(0)
	for rep := 0; rep < reps; rep++ {
		phi1.Fill(0)
		start := time.Now()
		err := r.Run(phi0, phi1, b, 1)
		el := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", r.Name, err)
		}
		if best == 0 || el < best {
			best = el
		}
	}
	cells := b.NumPts()
	return float64(best.Nanoseconds()) / float64(cells), nil
}

// runCompare benchmarks interpreter vs generated for every registered
// compiled schedule family on one N^3 box and emits the compare BENCH
// record. Both implementations of a family execute the same schedule
// with one thread (the generated series runner would otherwise split its
// passes into z slabs; the interpreter is always serial), so the
// per-cell times isolate the execution mechanism: interpreter dispatch
// vs compiled nest.
func runCompare(o options) error {
	b := box.Cube(o.n)
	phi0, _ := kernel.NewState(b)
	phi0.Randomize(rand.New(rand.NewSource(42)), 0.25, 1.75)
	rec := compareRecord{Mode: "compare", BoxN: o.n, Threads: 1, Reps: o.reps}
	t := &report.Table{
		Title:  fmt.Sprintf("interpreter vs generated, N=%d, %d reps (ns/cell)", o.n, o.reps),
		Header: []string{"family", "interpreted", "generated", "speedup vs interp"},
	}
	for _, tr := range compareTriples() {
		cf := compareFamily{
			Family:      tr.family,
			Generated:   tr.generated,
			Interpreted: tr.interpreted,
		}
		measure := func(name string) (float64, error) {
			r, ok := conform.RunnerByName(name)
			if !ok {
				return 0, fmt.Errorf("runner %q not in the conformance registry", name)
			}
			return timeRunner(r, phi0, b, o.reps)
		}
		var err error
		if cf.GeneratedNsPerCell, err = measure(tr.generated); err != nil {
			return err
		}
		interpCol, speedCol := "-", "-"
		if tr.interpreted != "" {
			if cf.InterpretedNsPerCell, err = measure(tr.interpreted); err != nil {
				return err
			}
			cf.SpeedupVsInterpreter = cf.InterpretedNsPerCell / cf.GeneratedNsPerCell
			interpCol = fmt.Sprintf("%.2f", cf.InterpretedNsPerCell)
			speedCol = fmt.Sprintf("%.1fx", cf.SpeedupVsInterpreter)
		}
		rec.Families = append(rec.Families, cf)
		t.Add(cf.Family, interpCol, fmt.Sprintf("%.2f", cf.GeneratedNsPerCell), speedCol)
	}
	if err := t.Render(o.out); err != nil {
		return err
	}
	if o.jsonPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(o.jsonPath, append(data, '\n'), 0o644)
	}
	return nil
}
