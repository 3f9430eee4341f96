package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestRecorderConcurrentAndSelfTime(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(req int64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := rec.Open("root", 0, req)
				rec.Do("child", root, req, func() { time.Sleep(10 * time.Microsecond) })
				rec.Close(root)
			}
		}(int64(g + 1))
	}
	wg.Wait()
	spans := rec.Spans()
	if len(spans) != 400 {
		t.Fatalf("%d spans, want 400", len(spans))
	}
	total, self := layerTimes(spans)
	if total["child"] <= 0 || self["child"] != total["child"] {
		t.Errorf("child total %v self %v: a leaf's self time is its total", total["child"], self["child"])
	}
	if d := total["root"] - total["child"] - self["root"]; d > 1e-9 || d < -1e-9 {
		t.Errorf("root self %v != root %v - children %v", self["root"], total["root"], total["child"])
	}

	path := filepath.Join(t.TempDir(), "traces", "x.jsonl")
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start || s.Req == 0 {
			t.Fatalf("bad span %+v", s)
		}
	}
	if n != 400 {
		t.Errorf("file holds %d spans, want 400", n)
	}
}

func TestNilRecorderRunsUntraced(t *testing.T) {
	var rec *Recorder
	ran := false
	rec.Do("x", rec.Open("root", 0, 1), 1, func() { ran = true })
	rec.Close(0)
	if !ran {
		t.Error("nil recorder did not run the call")
	}
}
