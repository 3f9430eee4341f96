// Command perfbench is stencilsched's benchmark: one workload per run,
// selected by name and seeded, with its outputs checked and every metric
// printed by name and unit as the last line of standard output.
//
//	perfbench --workload solve-n64 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics, measured from outside: spans are
// recorded around calls into each layer's public functions (see
// trace.go), never inside the program. Run it through run.sh, which
// builds this command and the stencilserved binary from the checkout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd are the gated metrics every workload reports. An
// "operation" is the workload's unit of user work: one RK4 step of the
// 64^3 level (solve-n64), one full AutotuneCompiled call (tune-n32), or
// one served request from POST to observed result (serve-fleet-n16).
//
// Times are CPU seconds, not wall seconds. On a virtual machine whose
// hypervisor steals a varying share of the CPUs, wall time per
// operation moves by tens of percent from minute to minute while the
// CPU time the operation consumes stays within a few percent; the wall
// figures are still measured and printed by the traced run
// (bench.op_wall_*), with the steal share beside them. setup_s is the
// median CPU time of one set-up; op_cpu_s is the median CPU time of one
// operation, or on serve-fleet-n16, where requests overlap, the
// servers' CPU time over the load divided by the requests served.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced-run metrics. Every workload prints all of
// them; a layer the workload does not run reads 0.
var perLayer = func() []metricSpec {
	out := []metricSpec{
		{"bench.failed_frac", "ratio"},
		{"bench.trace_overhead_ratio", "ratio"},
		{"bench.spans", "count"},
		// Wall-clock figures of the untraced half of the traced run.
		{"bench.op_wall_p50_s", "s"},
		{"bench.op_wall_tail_s", "s"},
		{"bench.mcellsteps_per_s", "Mcellstep/s"},
		{"bench.steal_share", "ratio"},
		// solve-n64: the Solver.Step replica.
		{"solver.step_s", "s"},
		{"solver.unaccounted_s", "s"},
		{"solver.allocs_per_step", "count"},
		{"solver.bytes_per_step", "B"},
		{"layout.exchange_s", "s"},
		{"layout.exchange_share", "ratio"},
		{"layout.exchange_bytes_computed", "B"},
		{"variants.exec_s", "s"},
		{"variants.ns_per_cell", "ns"},
		{"variants.share", "ratio"},
		{"variants.gflops_computed", "Gflop/s"},
		{"variants.teff_gbs_computed", "GB/s"},
		{"fab.axpy_s", "s"},
		{"fab.axpy_share", "ratio"},
		{"scratch.hit_ratio", "ratio"},
		{"perfmodel.predicted_step_s", "s"},
		{"perfmodel.residual", "ratio"},
	}
	// tune-n32: one pair per compiled schedule.
	for _, slug := range tuneSlugs {
		out = append(out,
			metricSpec{"tune." + slug + ".ns_per_cellstep", "ns"},
			metricSpec{"tune." + slug + ".teff_gbs_computed", "GB/s"})
	}
	// serve-fleet-n16: consecutive phases of one request (means over
	// the traced requests; they add up to edge.latency_mean_s).
	for _, ph := range phaseNames {
		out = append(out, metricSpec{ph, "s"})
	}
	return append(out,
		metricSpec{"edge.latency_mean_s", "s"},
		metricSpec{"edge.phase_sum_error_s", "s"},
		metricSpec{"solver.elapsed_s", "s"},
		metricSpec{"edge.polls_per_request", "count"},
		metricSpec{"edge.retries", "count"},
		metricSpec{"fleet.peer_share_max", "ratio"},
		metricSpec{"fleet.replacements", "count"},
	)
}()

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	server  string // stencilserved binary (serve-fleet-n16)
}

// outDir holds trace files and server logs. run.sh runs this command
// from the checkout's root, where the directory is ignored by git.
const outDir = ".bench_build"

// outcome is what a workload hands back: its counts, its metrics, and
// any failed checks (each also counted in failed).
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	spans             *Recorder
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// workloads maps each workload name to its run; BENCHMARK.json records
// why each was chosen.
var workloads = map[string]func(runConfig) (*outcome, error){
	"solve-n64":       runSolve,
	"tune-n32":        runTune,
	"serve-fleet-n16": runServe,
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	server := flag.String("server", "", "stencilserved binary (serve-fleet-n16)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, server: *server}
	out, err := w(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if out.spans != nil {
		path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, cfg.seed))
		if err := out.spans.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
		out.metrics["bench.spans"] = float64(out.spans.Len())
	}
	specs := endToEnd
	if cfg.trace {
		out.metrics["bench.failed_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
		specs = perLayer
	}
	if err := printResult(os.Stdout, out, specs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if out.failed > 0 {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the result line. Every spec'd metric is present;
// one the workload did not set reads 0, and a metric the workload set
// but no spec names is a bug in this command.
func printResult(f *os.File, out *outcome, specs []metricSpec) error {
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v := out.metrics[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.Name, v)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range out.metrics {
		if _, ok := res.Metrics[name]; !ok && !isSpecName(name) {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(b))
	return err
}

func isSpecName(name string) bool {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if s.Name == name {
				return true
			}
		}
	}
	return false
}

// quantile is the linear-interpolation quantile of xs at q in [0, 1]
// (the "inclusive" method); xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the quantile bench.op_wall_tail_s reports. A served
// request takes tens of milliseconds, so serve-fleet-n16 has hundreds
// of samples and reports p95; a 64^3 RK4 step takes about half a second
// and a tuning call a few seconds, so solve-n64 and tune-n32 report
// p75, whose thin sampling tail reports on standard error.
var tailQuantile = map[string]float64{"solve-n64": 0.75, "tune-n32": 0.75, "serve-fleet-n16": 0.95}

// setWall records the wall-clock figures of a run's untraced
// operations: their median and tail, and the work rate.
func setWall(m map[string]float64, walls []float64, q, mcellstepsPerSec float64) {
	m["bench.op_wall_p50_s"] = median(walls)
	m["bench.op_wall_tail_s"] = tail(walls, q)
	m["bench.mcellsteps_per_s"] = mcellstepsPerSec
}

// tail returns quantile q of xs, warning when fewer than ten samples
// lie beyond it.
func tail(xs []float64, q float64) float64 {
	if beyond := (1 - q) * float64(len(xs)); beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %d samples leave %.1f beyond the p%.0f tail\n", len(xs), beyond, 100*q)
	}
	return quantile(xs, q)
}

// timeIt returns fn's wall time in seconds.
func timeIt(fn func()) float64 {
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}

// cpuSeconds is the CPU time this process has used, user plus system,
// all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuIt returns fn's wall time and the CPU time this process used
// while it ran, in seconds.
func cpuIt(fn func()) (wall, cpu float64) {
	c := cpuSeconds()
	wall = timeIt(fn)
	return wall, cpuSeconds() - c
}

// stealClock reads the host's CPU time counters from /proc/stat: the
// time the hypervisor stole from this machine's CPUs and the total.
func stealClock() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64) // a malformed field counts as 0
		if i == 7 {
			steal = v
		}
		if i < 8 { // guest time is already inside user time
			total += v
		}
	}
	return steal, total
}

// stealShare returns a function reporting the share of CPU time the
// hypervisor stole since stealShare was called.
func stealShare() func() float64 {
	s0, t0 := stealClock()
	return func() float64 {
		s1, t1 := stealClock()
		if t1 <= t0 {
			return 0
		}
		return (s1 - s0) / (t1 - t0)
	}
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB;
// pid 0 means this process. It returns 0 if the kernel does not say.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
