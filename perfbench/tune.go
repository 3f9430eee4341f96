package main

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"stencilsched"
)

// tune-n32: the "which schedule should I run" call over every compiled
// schedule, two 32^3 boxes on two threads, three repetitions each.
var tuneProblem = stencilsched.Problem{BoxN: 32, NumBoxes: 2, Threads: 2}

const (
	tuneReps = 3
	// tuneSetups warm-up calls (one repetition each) fill the FFT plan
	// cache and the scratch arenas; setup_s is their median.
	tuneSetups = 3
)

// tuneSlugs are the compiled schedules whose per-layer metrics are
// declared. A schedule added later is still tuned and checked; it only
// has no per-layer metric until one is declared here.
var tuneSlugs = []string{
	"codegen-series", "codegen-row-fused", "shift-fuse", "basic-sched-ot16",
	"temporal-k1", "temporal-k1-ot16", "temporal-k1-ot32",
	"temporal-k2", "temporal-k2-ot16", "temporal-k2-ot32",
	"temporal-k4", "temporal-k4-ot16", "temporal-k4-ot32",
	"fft-k1", "fft-k2", "fft-k4", "fft-k8", "fft-k16",
}

// scheduleSlug turns a compiled schedule name into a metric-name
// component: "Temporal K2 OT-16 (generated)" -> "temporal-k2-ot16",
// "FFT (spectral) K16" -> "fft-k16".
func scheduleSlug(name string) string {
	s := strings.ToLower(name)
	s = strings.NewReplacer("(generated)", "", "(spectral)", "", "ot-", "ot").Replace(s)
	return strings.Join(strings.Fields(s), "-")
}

func runTune(cfg runConfig) (*outcome, error) {
	all := stencilsched.CompiledSchedules()
	out := &outcome{metrics: map[string]float64{}}
	setups := make([]float64, tuneSetups)
	steal := stealShare()
	for i := range setups {
		var err error
		runtime.GC()
		_, setups[i] = cpuIt(func() { _, err = stencilsched.AutotuneCompiled(tuneProblem, 1, nil) })
		if err != nil {
			return nil, err
		}
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	walls, cpus, work, err := tuneCalls(out, all, budget)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		out.metrics["setup_s"] = median(setups)
		out.metrics["op_cpu_s"] = median(cpus)
		out.metrics["peak_rss_mb"] = peakRSSMB(0)
		return out, nil
	}
	setWall(out.metrics, walls, tailQuantile["tune-n32"], work/median(walls)/1e6)
	err = traceTune(out, all, budget, median(walls))
	out.metrics["bench.steal_share"] = steal()
	return out, err
}

// tuneCalls makes full AutotuneCompiled calls until budget is spent (at
// least one), checking each, and returns their wall and CPU times and
// the cell-steps one call executes.
func tuneCalls(out *outcome, all []stencilsched.CompiledSchedule, budget time.Duration) (walls, cpus []float64, work float64, err error) {
	for _, cs := range all {
		work += float64(tuneReps*cs.Steps()) * float64(tuneProblem.Cells())
	}
	for deadline := time.Now().Add(budget); len(walls) == 0 || time.Now().Before(deadline); {
		var res []stencilsched.CompiledTuneResult
		// Each call allocates fresh levels (up to 48 ghost layers for
		// K16); collecting the last call's first keeps the heap, and so
		// the page faults a call pays, the same from call to call.
		runtime.GC()
		w, c := cpuIt(func() { res, err = stencilsched.AutotuneCompiled(tuneProblem, tuneReps, nil) })
		if err != nil {
			return nil, nil, 0, err
		}
		walls, cpus = append(walls, w), append(cpus, c)
		out.attempted++
		checkTune(out, res, all)
	}
	return walls, cpus, work, nil
}

// traceTune tunes one schedule per call, each inside a span, in passes
// over every schedule until budget is spent (at least one pass). A
// schedule's per-layer figures are medians over passes of the tuner's
// own per-step time; the overhead ratio compares a pass with a full
// untraced call.
func traceTune(out *outcome, all []stencilsched.CompiledSchedule, budget time.Duration, fullCall float64) error {
	rec := NewRecorder()
	out.spans = rec
	stepSec := map[string][]float64{}
	var passes []float64
	for deadline, pass := time.Now().Add(budget), int64(1); len(passes) == 0 || time.Now().Before(deadline); pass++ {
		t := time.Now()
		root := rec.Open("tune.pass", 0, pass)
		for _, cs := range all {
			slug := scheduleSlug(cs.Name)
			var res []stencilsched.CompiledTuneResult
			var err error
			rec.Do("tune."+slug, root, pass, func() {
				res, err = stencilsched.AutotuneCompiled(tuneProblem, tuneReps, []stencilsched.CompiledSchedule{cs})
			})
			if err != nil {
				return err
			}
			out.attempted++
			checkTune(out, res, []stencilsched.CompiledSchedule{cs})
			if len(res) == 1 {
				stepSec[slug] = append(stepSec[slug], res[0].StepSeconds)
			}
		}
		rec.Close(root)
		passes = append(passes, time.Since(t).Seconds())
	}
	cells := float64(tuneProblem.Cells())
	for _, slug := range tuneSlugs {
		xs := stepSec[slug]
		if len(xs) == 0 {
			continue
		}
		s := median(xs)
		out.metrics["tune."+slug+".ns_per_cellstep"] = s / cells * 1e9
		out.metrics["tune."+slug+".teff_gbs_computed"] = bytesPerCell * cells / s / 1e9
	}
	out.metrics["bench.trace_overhead_ratio"] = median(passes) / fullCall
	return nil
}

// checkTune checks one tuning answer: every wanted schedule exactly
// once, every time finite and positive, sorted fastest first.
func checkTune(out *outcome, res []stencilsched.CompiledTuneResult, want []stencilsched.CompiledSchedule) {
	seen := map[string]int{}
	for _, r := range res {
		seen[r.Schedule.Name]++
		for _, x := range []float64{r.Seconds, r.StepSeconds, r.MCellsPerSec} {
			if !(x > 0) || math.IsInf(x, 0) {
				out.fail("tune: %s has time or rate %v", r.Schedule.Name, x)
			}
		}
	}
	for _, cs := range want {
		if seen[cs.Name] != 1 {
			out.fail("tune: %s appears %d times", cs.Name, seen[cs.Name])
		}
	}
	if len(res) != len(want) {
		out.fail("tune: %d results for %d schedules", len(res), len(want))
	}
	if !sort.SliceIsSorted(res, func(i, j int) bool { return res[i].StepSeconds < res[j].StepSeconds }) {
		out.fail("tune: results not sorted by step time")
	}
}
