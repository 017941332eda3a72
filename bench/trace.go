package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced pass. parent is the index of the
// span that caused it, -1 for a root.
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// tracer keeps spans in memory; nothing is written until the pass ends.
// Every span is opened and closed by benchmark code around a call into a
// layer's public API — the simulator itself carries no instrumentation.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	return s.end - s.start
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// write stores the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): complete events in microseconds, parent kept in args.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
