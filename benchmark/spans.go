package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded
// from the benchmark's own files around the calls into each layer;
// spans inside the program are ROADMAP item 4.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // -1 for the root
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"` // since the log was opened
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A
// nil *spanLog is the untraced run: every method is a no-op, so the
// call sites need no branches and end-to-end runs pay nothing.
type spanLog struct {
	mu    sync.Mutex // svc-live records from both connection goroutines
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span under parent and returns its id.
func (l *spanLog) start(parent int, name string) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNs: now, EndNs: now})
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id].EndNs = now
	l.mu.Unlock()
}

// count attaches a count taken at the span's boundary.
func (l *spanLog) count(id int, key string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.spans[id].Counts == nil {
		l.spans[id].Counts = map[string]float64{}
	}
	l.spans[id].Counts[key] = v
	l.mu.Unlock()
}

// spanFile is the traced run's on-disk record.
type spanFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Host     hostInfo               `json:"host"`
	Metrics  map[string]metricValue `json:"metrics"`
	Spans    []span                 `json:"spans"`
}

// write stores the log as JSON at path, creating the directory.
func (l *spanLog) write(path string, f spanFile) error {
	f.Spans = l.spans
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
