package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Parent is the ID of
// the span that caused it (0 for a root) and Req groups the spans of one
// request or step. Times are offsets from the recorder's epoch.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's length in seconds.
func (s Span) Dur() float64 { return (s.End - s.Start).Seconds() }

// Recorder keeps spans in memory until WriteFile. It is safe for
// concurrent use. A nil *Recorder records nothing, so the same calling
// code runs traced and untraced.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Record stores a finished span and returns its ID.
func (r *Recorder) Record(name string, parent, req int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// Open starts a span whose children need its ID before it ends; Close
// fills in its end time.
func (r *Recorder) Open(name string, parent, req int64) int64 {
	if r == nil {
		return 0
	}
	now := time.Now()
	return r.Record(name, parent, req, now, now)
}

// Close ends a span from Open.
func (r *Recorder) Close(id int64) {
	if r == nil || id == 0 {
		return
	}
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// Do records fn as a span.
func (r *Recorder) Do(name string, parent, req int64, fn func()) {
	if r == nil {
		fn()
		return
	}
	t := time.Now()
	fn()
	r.Record(name, parent, req, t, time.Now())
}

// Len returns the number of spans recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON lines, creating the directory.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("encode span %d: %w", s.ID, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes sums span durations by name, and self time by name: a
// span's duration minus the time its direct children cover. Children of
// one span are sequential in every caller here, so their durations add.
func layerTimes(spans []Span) (total, self map[string]float64) {
	total = map[string]float64{}
	self = map[string]float64{}
	childSum := map[int64]float64{}
	for _, s := range spans {
		total[s.Name] += s.Dur()
		if s.Parent != 0 {
			childSum[s.Parent] += s.Dur()
		}
	}
	for _, s := range spans {
		self[s.Name] += s.Dur() - childSum[s.ID]
	}
	return total, self
}
