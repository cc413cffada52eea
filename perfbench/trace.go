package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
// Replayed stages are children of the request's HTTP span: they run after
// the drive window, serially, on the same payload, so their durations — not
// their wall-clock position — are what the parent's self time subtracts.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id. A nil tracer records
// nothing, so untraced runs pay one branch per boundary.
func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds, keyed by span id:
// its duration minus the durations of its direct children. Children of one
// span run one after another, so their durations never overlap.
func selfTimes(spans []span) map[int64]int64 {
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// stageMeans averages self time per span name over the spans whose root
// ancestor is named root, in milliseconds. Means (unlike medians) add up:
// the stage means sum to the mean root duration.
func stageMeans(spans []span, root string) (means map[string]float64, roots int) {
	self := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) span {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s
	}
	sums := map[string]int64{}
	for _, s := range spans {
		if rootOf(s).Name != root {
			continue
		}
		if s.Parent == 0 {
			roots++
		}
		sums[s.Name] += self[s.ID]
	}
	means = make(map[string]float64, len(sums))
	if roots == 0 {
		return means, 0
	}
	for name, v := range sums {
		means[name] = float64(v) / float64(roots) / 1e6
	}
	return means, roots
}
