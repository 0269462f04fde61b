package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer. Spans of one job share Job;
// Parent is the ID of the enclosing span (0 for a root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Job     string  `json:"job"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(name string, start, end time.Time, parent int, job string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		StartUs: float64(start.Sub(t.epoch).Nanoseconds()) / 1e3,
		EndUs:   float64(end.Sub(t.epoch).Nanoseconds()) / 1e3,
	})
	return id
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// selfTime is one span name's total duration and self time (duration
// minus the time its child spans cover), in milliseconds.
type selfTime struct {
	name    string
	count   int
	totalMs float64
	selfMs  float64
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	childUs := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		childUs[s.Parent] += s.EndUs - s.StartUs
	}
	by := map[string]*selfTime{}
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{name: s.Name}
			by[s.Name] = st
		}
		d := s.EndUs - s.StartUs
		self := d - childUs[s.ID]
		if self < 0 {
			self = 0
		}
		st.count++
		st.totalMs += d / 1e3
		st.selfMs += self / 1e3
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfMs > out[j].selfMs })
	return out
}
