package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestReqGenSeededDistinctCFLSafe(t *testing.T) {
	const n = 2000
	a, b, c := newReqGen(7), newReqGen(7), newReqGen(8)
	seen := map[string]bool{}
	differ := false
	for i := 0; i < n; i++ {
		ia, ba := a.Next()
		_, bb := b.Next()
		_, bc := c.Next()
		if ia != i {
			t.Fatalf("body %d has index %d", i, ia)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("seed 7 body %d differs between generators: %s vs %s", i, ba, bb)
		}
		differ = differ || !bytes.Equal(ba, bc)
		if seen[string(ba)] {
			t.Fatalf("body %d repeats: %s", i, ba)
		}
		seen[string(ba)] = true
		var body solveBody
		if err := json.Unmarshal(ba, &body); err != nil {
			t.Fatal(err)
		}
		ua := body.U
		cfl := serveDt * (math.Abs(ua[0]) + math.Abs(ua[1]) + math.Abs(ua[2]))
		if cfl > maxCFL || cfl == 0 {
			t.Fatalf("body %d velocity %v has CFL %v", i, ua, cfl)
		}
		if body.DomainN != 16 || body.BoxN != 16 || body.Steps != 8 || body.Threads != 1 || body.Integrator != "euler" {
			t.Fatalf("body %d is not the serve-fleet-n16 problem: %s", i, ba)
		}
	}
	if !differ {
		t.Error("seeds 7 and 8 gave the same bodies")
	}
}

func TestRequestPhasesAddUp(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	ptr := func(x time.Time) *time.Time { return &x }
	// The peer starts before the coordinator has even created its job,
	// as it does on an idle fleet; the coordinator's steps then overlap
	// the peer's run and count as zero.
	peer := jobSnap{ID: "p", Created: at(1), Started: ptr(at(1.2)), Finished: ptr(at(30))}
	coord := jobSnap{ID: "c", Created: at(1.5), Started: ptr(at(1.6)), Finished: ptr(at(55))}
	ph, err := requestPhases(t0, at(58), coord, peer)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.2, 28.8, 0, 0, 25, 3}
	var sum float64
	for i, x := range ph {
		sum += x
		if math.Abs(x*1e3-want[i]) > 1e-9 {
			t.Errorf("%s = %v ms, want %v", phaseNames[i], x*1e3, want[i])
		}
	}
	if math.Abs(sum-0.058) > 1e-12 {
		t.Errorf("phases sum to %v, want the 58 ms latency", sum)
	}
	// A coordinator that starts only after the peer finished shows up
	// in fleet.queue_wait_s.
	coord.Started = ptr(at(40))
	ph, _ = requestPhases(t0, at(58), coord, peer)
	if got := ph[4] * 1e3; math.Abs(got-10) > 1e-9 {
		t.Errorf("fleet.queue_wait_s = %v ms, want 10", got)
	}
	if _, err := requestPhases(t0, at(58), jobSnap{}, peer); err == nil {
		t.Error("a job without start and finish times was accepted")
	}
}

func TestSchedulesHaveDeclaredSlugs(t *testing.T) {
	all := map[string]bool{}
	for _, s := range tuneSlugs {
		all[s] = true
	}
	for _, cs := range compiledNames(t) {
		if !all[scheduleSlug(cs)] {
			t.Errorf("compiled schedule %q (slug %q) has no declared metrics", cs, scheduleSlug(cs))
		}
	}
	if got := scheduleSlug("Temporal K2 OT-16 (generated)"); got != "temporal-k2-ot16" {
		t.Errorf("slug %q", got)
	}
	if got := scheduleSlug("FFT (spectral) K16"); got != "fft-k16" {
		t.Errorf("slug %q", got)
	}
}
