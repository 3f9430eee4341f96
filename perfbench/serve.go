package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serve-fleet-n16: one stencilserved coordinator over two peers on
// loopback, driven by a closed loop of two clients. Each client submits
// a solve, polls its job to a terminal state every servePoll, then
// submits the next.
const (
	servePeers   = 2
	serveClients = 2
	servePoll    = 5 * time.Millisecond
	// serveWarmup requests run before timing, so connections are open
	// and the peers' arenas are warm.
	serveWarmup = 4
	// serveSetups fleet start-ups per run; setup_s is their median.
	serveSetups = 9
	// serveRetryWait is the pause before resubmitting a 429 or 503.
	serveRetryWait = 5 * time.Millisecond
	// serveLinfBound bounds a served solve's density error.
	serveLinfBound = 1e-2
	startTimeout   = 20 * time.Second
)

var bannerURL = regexp.MustCompile(`http://127\.0\.0\.1:[0-9]+`)

// proc is one stencilserved process. Its stderr goes to a log file; the
// first URL in it is the address the process listens on.
type proc struct {
	cmd      *exec.Cmd
	url      string
	copyDone chan struct{}
	stopOnce sync.Once
}

// startProc starts bin and waits until it prints its listening URL.
func startProc(bin, name, logDir string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	// The kernel kills the server if this process dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{cmd: cmd, copyDone: make(chan struct{})}
	urlc := make(chan string, 1)
	go func() {
		defer close(p.copyDone)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if u := bannerURL.FindString(sc.Text()); u != "" && !sent {
				urlc <- u
				sent = true
			}
		}
	}()
	select {
	case p.url = <-urlc:
		return p, nil
	case <-p.copyDone:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening (see %s.log)", name, name)
	case <-time.After(startTimeout):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within %v", name, startTimeout)
	}
}

// stop asks the process to drain, kills it if it has not exited after a
// few seconds, and waits for it.
func (p *proc) stop() {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-p.copyDone:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.copyDone
		}
		_ = p.cmd.Wait() // its exit status after a signal says nothing
	})
}

// fleetProcs is one coordinator and its peers.
type fleetProcs struct {
	peers []*proc
	coord *proc
}

func (f *fleetProcs) all() []*proc {
	out := append([]*proc(nil), f.peers...)
	if f.coord != nil {
		out = append(out, f.coord)
	}
	return out
}

func (f *fleetProcs) stop() {
	for _, p := range f.all() {
		p.stop()
	}
}

// cpuSeconds sums the running processes' CPU time, user plus system,
// from /proc/<pid>/stat. Its resolution is the kernel's clock tick.
func (f *fleetProcs) cpuSeconds() (float64, error) {
	var s float64
	for _, p := range f.all() {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesized command name start at field 3
		// (state); utime and stime are fields 14 and 15.
		i := bytes.LastIndexByte(b, ')')
		fs := strings.Fields(string(b[i+1:]))
		if i < 0 || len(fs) < 13 {
			return 0, fmt.Errorf("malformed /proc/%d/stat", p.cmd.Process.Pid)
		}
		for _, x := range fs[11:13] {
			ticks, err := strconv.ParseFloat(x, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/stat: %w", p.cmd.Process.Pid, err)
			}
			s += ticks / clockTicks
		}
	}
	return s, nil
}

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat times,
// which is 100 on x86 and arm.
const clockTicks = 100

// exitedCPU sums the CPU time of the stopped processes, from their exit
// status.
func (f *fleetProcs) exitedCPU() float64 {
	var s time.Duration
	for _, p := range f.all() {
		s += p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime()
	}
	return s.Seconds()
}

// rssMB sums the processes' peak resident set sizes.
func (f *fleetProcs) rssMB() float64 {
	var s float64
	for _, p := range f.all() {
		s += peakRSSMB(p.cmd.Process.Pid)
	}
	return s
}

// peerName is the name the coordinator knows peer i by; finished jobs
// report it as their peer.
func peerName(i int) string { return fmt.Sprintf("p%d", i) }

// startFleet starts the peers and the coordinator and returns once the
// coordinator reports every peer healthy.
func startFleet(ctx context.Context, hc *http.Client, bin, logDir string, gen int) (*fleetProcs, error) {
	f := &fleetProcs{}
	var spec []string
	for i := 0; i < servePeers; i++ {
		p, err := startProc(bin, fmt.Sprintf("peer%d-%d", i, gen), logDir,
			"-addr", "127.0.0.1:0", "-cache-dir=")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.peers = append(f.peers, p)
		spec = append(spec, peerName(i)+"="+p.url)
	}
	c, err := startProc(bin, fmt.Sprintf("coord-%d", gen), logDir,
		"-addr", "127.0.0.1:0", "-cache-dir=", "-peers", strings.Join(spec, ","))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = c
	for deadline := time.Now().Add(startTimeout); ; {
		var h struct {
			PeersHealthy int `json:"peers_healthy"`
		}
		if err := getJSON(ctx, hc, c.url+"/healthz", &h); err == nil && h.PeersHealthy == servePeers {
			return f, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			f.stop()
			return nil, fmt.Errorf("fleet not healthy within %v", startTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// jobSnap is a job snapshot as coordinator and peers serve it.
type jobSnap struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

func (j jobSnap) terminal() bool {
	return j.Status == "done" || j.Status == "failed" || j.Status == "canceled"
}

// placedResult is a finished coordinator job's result.
type placedResult struct {
	Peer         string `json:"peer"`
	RemoteID     string `json:"remote_id"`
	Replacements int    `json:"replacements"`
	Result       struct {
		Steps       int        `json:"steps"`
		Totals      [5]float64 `json:"totals"`
		DensityLinf float64    `json:"density_linf"`
		ElapsedSec  float64    `json:"elapsed_sec"`
	} `json:"result"`
}

// reqRecord is one request as the client saw it.
type reqRecord struct {
	idx            int
	t0, tObs       time.Time
	polls, retries int
	snap           jobSnap
	res            placedResult
	err            error
}

// doRequest submits body and polls its job to a terminal state. With a
// recorder it records an "edge.request" span with "edge.submit" and
// "edge.poll" children, all under request ID req.
func doRequest(ctx context.Context, hc *http.Client, base string, body []byte, rec *Recorder, req int64) reqRecord {
	r := reqRecord{t0: time.Now()}
	root := rec.Open("edge.request", 0, req)
	defer rec.Close(root)
	sub := rec.Open("edge.submit", root, req)
	var snap jobSnap
	for {
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/solve", bytes.NewReader(body))
		if err != nil {
			r.err = err
			return r
		}
		hr.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(hr)
		if err != nil {
			r.err = err
			return r
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			r.err = err
			return r
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			r.retries++
			select {
			case <-time.After(serveRetryWait):
				continue
			case <-ctx.Done():
				r.err = ctx.Err()
				return r
			}
		}
		if resp.StatusCode != http.StatusAccepted {
			r.err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
			return r
		}
		if err := json.Unmarshal(b, &snap); err != nil || snap.ID == "" {
			r.err = fmt.Errorf("submit: bad job body %q: %v", b, err)
			return r
		}
		break
	}
	rec.Close(sub)
	tick := time.NewTicker(servePoll)
	defer tick.Stop()
	for {
		ps := time.Now()
		var j jobSnap
		err := getJSON(ctx, hc, base+"/v1/jobs/"+snap.ID, &j)
		r.polls++
		rec.Record("edge.poll", root, req, ps, time.Now())
		if err != nil {
			r.err = err
			return r
		}
		if j.terminal() {
			r.tObs = time.Now()
			r.snap = j
			if j.Status == "done" {
				r.err = json.Unmarshal(j.Result, &r.res)
			}
			return r
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			r.err = ctx.Err()
			return r
		}
	}
}

// load runs the closed loop for d and returns every request made.
func load(ctx context.Context, hc *http.Client, base string, gen *reqGen, d time.Duration, rec *Recorder) []reqRecord {
	var mu sync.Mutex
	var recs []reqRecord
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i, body := gen.Next()
				r := doRequest(ctx, hc, base, body, rec, int64(i+1))
				r.idx = i
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

// serveTotal0 is the initial density total every served solve must
// conserve.
var serveTotal0 = func() float64 {
	rho := solveRho(serveDomainN)
	var s float64
	for k := 0; k < serveDomainN; k++ {
		for j := 0; j < serveDomainN; j++ {
			for i := 0; i < serveDomainN; i++ {
				s += rho(float64(i)+0.5, float64(j)+0.5, float64(k)+0.5)
			}
		}
	}
	return s
}()

// checkServe counts each request and fails those whose job did not
// finish with a conserved, accurate result.
func checkServe(out *outcome, recs []reqRecord) {
	for _, r := range recs {
		out.attempted++
		res := r.res.Result
		switch {
		case r.err != nil:
			out.fail("serve: request %d: %v", r.idx, r.err)
		case r.snap.Status != "done":
			out.fail("serve: request %d ended %s: %s", r.idx, r.snap.Status, r.snap.Error)
		case res.Steps != serveSteps:
			out.fail("serve: request %d ran %d steps", r.idx, res.Steps)
		case math.Abs(res.Totals[0]-serveTotal0) > conserveRelTol*serveTotal0:
			out.fail("serve: request %d density total %v, want %v", r.idx, res.Totals[0], serveTotal0)
		case !(res.DensityLinf <= serveLinfBound):
			out.fail("serve: request %d density error %g above %g", r.idx, res.DensityLinf, serveLinfBound)
		}
	}
}

func latencies(recs []reqRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.err == nil {
			out = append(out, r.tObs.Sub(r.t0).Seconds())
		}
	}
	return out
}

func runServe(cfg runConfig) (*outcome, error) {
	if cfg.server == "" {
		return nil, fmt.Errorf("serve-fleet-n16 needs --server")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logDir := filepath.Join(outDir, "serve-logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
		Timeout:   30 * time.Second,
	}
	defer hc.CloseIdleConnections()
	steal := stealShare()
	// A set-up is one fleet's life: start, every peer healthy, drained
	// exit. The fleet that serves the load is started afterwards.
	setups := make([]float64, serveSetups)
	for i := range setups {
		f, err := startFleet(ctx, hc, cfg.server, logDir, i)
		if err != nil {
			return nil, err
		}
		f.stop()
		setups[i] = f.exitedCPU()
	}
	f, err := startFleet(ctx, hc, cfg.server, logDir, serveSetups)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	base := f.coord.url
	gen := newReqGen(cfg.seed)
	out := &outcome{metrics: map[string]float64{}}
	var warm []reqRecord
	for i := 0; i < serveWarmup; i++ {
		n, body := gen.Next()
		r := doRequest(ctx, hc, base, body, nil, int64(n+1))
		r.idx = n
		warm = append(warm, r)
	}
	checkServe(out, warm)
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	cpu0, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	recs := load(ctx, hc, base, gen, d, nil)
	checkServe(out, recs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	lat := latencies(recs)
	if len(lat) == 0 {
		return nil, fmt.Errorf("serve: no request completed in %v", d)
	}
	if !cfg.trace {
		out.metrics["setup_s"] = median(setups)
		out.metrics["op_cpu_s"] = (cpu1 - cpu0) / float64(len(lat))
		out.metrics["peak_rss_mb"] = f.rssMB()
		return out, nil
	}
	var last time.Time
	for _, r := range recs {
		if r.tObs.After(last) {
			last = r.tObs
		}
	}
	setWall(out.metrics, lat, tailQuantile["serve-fleet-n16"],
		float64(len(lat))*math.Pow(serveDomainN, 3)*serveSteps/last.Sub(start).Seconds()/1e6)
	rec := NewRecorder()
	out.spans = rec
	traced := load(ctx, hc, base, gen, d, rec)
	checkServe(out, traced)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	peerJobs := map[string]map[string]jobSnap{}
	for i, p := range f.peers {
		var list []jobSnap
		if err := getJSON(ctx, hc, p.url+"/v1/jobs", &list); err != nil {
			return nil, err
		}
		m := map[string]jobSnap{}
		for _, j := range list {
			m[j.ID] = j
		}
		peerJobs[peerName(i)] = m
	}
	out.metrics["bench.trace_overhead_ratio"] = median(latencies(traced)) / median(lat)
	out.metrics["bench.steal_share"] = steal()
	servePhases(out, traced, peerJobs)
	return out, nil
}

// phaseNames are the consecutive phases of one request's client
// latency, in critical-path order (see requestPhases).
var phaseNames = []string{
	"edge.submit_s",
	"jobs.queue_wait_s",
	"jobs.run_s",
	"fleet.placement_s",
	"fleet.queue_wait_s",
	"fleet.relay_s",
	"edge.observe_slack_s",
}

// requestPhases splits one request's client latency, t0 to tObs, at the
// events that lie on its critical path:
//
//	edge.submit_s        client send -> peer job created (the coordinator's
//	                     HTTP intake and its synchronous ring submit)
//	jobs.queue_wait_s    -> peer job started
//	jobs.run_s           -> peer job finished
//	fleet.placement_s    -> coordinator job created
//	fleet.queue_wait_s   -> coordinator job started
//	fleet.relay_s        -> coordinator job finished (its poll saw the peer)
//	edge.observe_slack_s -> the client's poll saw it
//
// The coordinator creates and starts its placement job while the peer
// runs, so each boundary is clamped to lie between the previous one and
// tObs: a coordinator step counts only for the time it kept the result
// waiting after the peer finished. The phases therefore add up to the
// client latency exactly.
func requestPhases(t0, tObs time.Time, coord, peer jobSnap) ([]float64, error) {
	if peer.Started == nil || peer.Finished == nil || coord.Started == nil || coord.Finished == nil {
		return nil, fmt.Errorf("job %s/%s lacks start or finish times", coord.ID, peer.ID)
	}
	events := []time.Time{t0, peer.Created, *peer.Started, *peer.Finished,
		coord.Created, *coord.Started, *coord.Finished, tObs}
	out := make([]float64, len(events)-1)
	prev := t0
	for i, e := range events[1:] {
		if e.Before(prev) {
			e = prev
		}
		if e.After(tObs) {
			e = tObs
		}
		out[i] = e.Sub(prev).Seconds()
		prev = e
	}
	return out, nil
}

// servePhases turns the traced requests into the serve-fleet-n16
// per-layer metrics.
func servePhases(out *outcome, recs []reqRecord, peerJobs map[string]map[string]jobSnap) {
	sums := make([]float64, len(phaseNames))
	var n, lat, maxErr, elapsed, polls float64
	perPeer := map[string]int{}
	replacements, retries := 0, 0
	for _, r := range recs {
		if r.err != nil || r.snap.Status != "done" {
			continue
		}
		perPeer[r.res.Peer]++
		replacements += r.res.Replacements
		retries += r.retries
		pj, ok := peerJobs[r.res.Peer][r.res.RemoteID]
		if !ok {
			out.fail("serve: request %d: peer %s no longer lists job %s", r.idx, r.res.Peer, r.res.RemoteID)
			continue
		}
		ph, err := requestPhases(r.t0, r.tObs, r.snap, pj)
		if err != nil {
			out.fail("serve: request %d: %v", r.idx, err)
			continue
		}
		l := r.tObs.Sub(r.t0).Seconds()
		var s float64
		for i, x := range ph {
			sums[i] += x
			s += x
		}
		maxErr = math.Max(maxErr, math.Abs(s-l))
		n++
		lat += l
		elapsed += r.res.Result.ElapsedSec
		polls += float64(r.polls)
	}
	if n == 0 {
		return
	}
	for i, name := range phaseNames {
		out.metrics[name] = sums[i] / n
	}
	out.metrics["edge.latency_mean_s"] = lat / n
	out.metrics["edge.phase_sum_error_s"] = maxErr
	out.metrics["solver.elapsed_s"] = elapsed / n
	out.metrics["edge.polls_per_request"] = polls / n
	most := 0
	for _, c := range perPeer {
		most = max(most, c)
	}
	out.metrics["fleet.peer_share_max"] = float64(most) / n
	out.metrics["fleet.replacements"] = float64(replacements)
	out.metrics["edge.retries"] = float64(retries)
}
