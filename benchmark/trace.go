package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// share the operation's span as their root; ID 0 means "no parent".
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTime sums, over every span called name, its duration minus the part
// of it that its child spans cover. Children never outlive their parent,
// so subtracting their durations is exact.
func (t *tracer) selfTime(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[int]int64{}
	for _, s := range t.spans {
		if s.Name == name {
			self[s.ID] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if _, ok := self[s.Parent]; ok {
			self[s.Parent] -= s.End - s.Start
		}
	}
	var sum int64
	for _, d := range self {
		sum += d
	}
	return time.Duration(sum)
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
