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
// and its counterparts: the codegen interpreter executing the same
// schedule (the two CodeGen+ schedules only) and the hand-written
// variant of the same family (series only: the studied Shift-Fuse and
// overlapped-tile variants run on the generated runners themselves).
type compareTriple struct {
	family      string
	generated   string
	interpreted string // "" when the family has no interpreter
	handWritten string // "" when no hand-written variant runs the schedule
}

// compareTriples lists the compiled families in emission order.
func compareTriples() []compareTriple {
	return []compareTriple{
		{
			family:      "series",
			generated:   "CodeGen series (generated)",
			interpreted: "CodeGen series (interpreted)",
			handWritten: "Baseline-CLO: P>=Box",
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
// three implementations of one schedule family, plus the two derived
// ratios the acceptance bar is stated in.
type compareFamily struct {
	Family               string  `json:"family"`
	Generated            string  `json:"generated"`
	Interpreted          string  `json:"interpreted,omitempty"`
	HandWritten          string  `json:"hand_written,omitempty"`
	GeneratedNsPerCell   float64 `json:"generated_ns_per_cell"`
	InterpretedNsPerCell float64 `json:"interpreted_ns_per_cell,omitempty"`
	HandWrittenNsPerCell float64 `json:"hand_written_ns_per_cell,omitempty"`
	// SpeedupVsInterpreter is interpreted/generated per-cell time.
	SpeedupVsInterpreter float64 `json:"speedup_vs_interpreter,omitempty"`
	// RatioVsHandWritten is generated/hand-written per-cell time (1.10
	// means the generated code is 10% slower).
	RatioVsHandWritten float64 `json:"ratio_vs_hand_written,omitempty"`
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

// runCompare benchmarks interpreter vs generated vs hand-written for
// every compiled schedule family on one N^3 box and emits the compare
// BENCH record. All three implementations of a family execute the same
// schedule serially within the box, so the per-cell times isolate the
// execution mechanism: interpreter dispatch vs compiled nest vs
// hand-written Go.
func runCompare(o options) error {
	b := box.Cube(o.n)
	phi0, _ := kernel.NewState(b)
	phi0.Randomize(rand.New(rand.NewSource(42)), 0.25, 1.75)
	rec := compareRecord{Mode: "compare", BoxN: o.n, Threads: 1, Reps: o.reps}
	t := &report.Table{
		Title:  fmt.Sprintf("interpreter vs generated vs hand-written, N=%d, %d reps (ns/cell)", o.n, o.reps),
		Header: []string{"family", "interpreted", "generated", "hand-written", "speedup vs interp", "vs hand-written"},
	}
	for _, tr := range compareTriples() {
		cf := compareFamily{
			Family:      tr.family,
			Generated:   tr.generated,
			Interpreted: tr.interpreted,
			HandWritten: tr.handWritten,
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
		interpCol, handCol := "-", "-"
		if tr.interpreted != "" {
			if cf.InterpretedNsPerCell, err = measure(tr.interpreted); err != nil {
				return err
			}
			cf.SpeedupVsInterpreter = cf.InterpretedNsPerCell / cf.GeneratedNsPerCell
			interpCol = fmt.Sprintf("%.2f", cf.InterpretedNsPerCell)
		}
		if tr.handWritten != "" {
			if cf.HandWrittenNsPerCell, err = measure(tr.handWritten); err != nil {
				return err
			}
			cf.RatioVsHandWritten = cf.GeneratedNsPerCell / cf.HandWrittenNsPerCell
			handCol = fmt.Sprintf("%.2f", cf.HandWrittenNsPerCell)
		}
		rec.Families = append(rec.Families, cf)
		speedCol, ratioCol := "-", "-"
		if cf.SpeedupVsInterpreter > 0 {
			speedCol = fmt.Sprintf("%.1fx", cf.SpeedupVsInterpreter)
		}
		if cf.RatioVsHandWritten > 0 {
			ratioCol = fmt.Sprintf("%.3f", cf.RatioVsHandWritten)
		}
		t.Add(cf.Family, interpCol, fmt.Sprintf("%.2f", cf.GeneratedNsPerCell), handCol, speedCol, ratioCol)
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
