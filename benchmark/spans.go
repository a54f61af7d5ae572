package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Start and End are nanoseconds since the recorder was created;
// Parent is the ID of the span that caused this one (-1 for the root).
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	Interval int    `json:"interval"` // measurement interval, -1 outside one
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced passes run the same code.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{t0: time.Now(), spans: make([]span, 0, 1024)}
}

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *spanRecorder) begin(name string, parent, interval int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Interval: interval,
		Start: int64(time.Since(r.t0)), End: -1})
	return id
}

func (r *spanRecorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// validate checks the tree is well-formed: every span closed, children
// inside their parents, and no span's children covering more than it.
func (r *spanRecorder) validate() error {
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) not closed or ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d opened after it", s.ID, s.Name, s.Parent)
		}
		p := r.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) leaves its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		children[s.Parent] += s.End - s.Start
	}
	for _, s := range r.spans {
		if children[s.ID] > s.End-s.Start {
			return fmt.Errorf("span %d (%s) has negative self time", s.ID, s.Name)
		}
	}
	return nil
}

// selfTime sums, per span name, duration minus the children's durations.
func (r *spanRecorder) selfTime() map[string]time.Duration {
	self := make([]int64, len(r.spans))
	for _, s := range r.spans {
		self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		out[s.Name] += time.Duration(self[s.ID])
	}
	return out
}

func (r *spanRecorder) write(path string) error {
	data, err := json.Marshal(struct {
		Unit  string `json:"time_unit"`
		Spans []span `json:"spans"`
	}{"ns since run start", r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
