package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, named "<layer>.<call>".
// Start and End are host time since the tracer started. Parent is the ID
// of the enclosing span (0 for a pass root); Run is the pass the span
// belongs to; TID separates concurrent callers (daemon clients).
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration
	Run, TID   int
}

// tracer keeps spans in memory until the benchmark exits. A nil *tracer
// records nothing, so untraced passes pay only a nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, run, tid int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, Run: run, TID: tid})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time by ID: its duration minus the
// part of its interval that its direct children cover. Overlapping
// children (concurrent callers) are counted once; child time outside the
// parent's interval is ignored.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur, curEnd := s.Start, s.Start
		for _, c := range kids {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				covered += curEnd - cur
				cur, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		covered += curEnd - cur
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open offline.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes spans as Chrome trace-event JSON to path, with meta
// (workload, seed, per-layer metrics) under "otherData".
func writeChrome(path string, spans []span, meta map[string]any) error {
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.TID,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "run": s.Run,
				"self_us": float64(self[s.ID].Nanoseconds()) / 1e3,
			},
		})
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
