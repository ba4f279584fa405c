package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed call into a layer's public function. parent indexes
// the enclosing span (-1 at the root); cell is the identifier every span
// of one workload cell shares.
type span struct {
	name       string
	cell       int
	parent     int
	start, end time.Duration // since tracer.t0
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span named name, nested under whatever span is open.
func (t *tracer) do(name string, cell int, fn func()) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, cell: cell, parent: parent})
	t.stack = append(t.stack, id)
	t.spans[id].start = time.Since(t.t0)
	fn()
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// wrapFn runs fn as one named step of cell id; harness- and ladder-driven
// passes take one so the traced pass can hang a span on each public call.
type wrapFn func(id int, name string, fn func())

// untraced is the wrapFn of the timed passes.
func untraced(_ int, _ string, fn func()) { fn() }

// wrap returns the wrapFn that records a span, with ids offset by cellBase.
func (t *tracer) wrap(cellBase int) wrapFn {
	return func(id int, name string, fn func()) { t.do(name, cellBase+id, fn) }
}

// selfMs sums, per span name, each span's duration minus the part its
// direct children cover, over spans[from:].
func (t *tracer) selfMs(from int) map[string]float64 {
	self := make([]time.Duration, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		s := &t.spans[i]
		self[i] += s.end - s.start
		if s.parent >= from {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]float64{}
	for i := from; i < len(t.spans); i++ {
		out[t.spans[i].name] += float64(self[i]) / 1e6
	}
	return out
}

// writeChrome emits the spans as Chrome trace-event JSON (the format the
// repo's own recorder writes; opens in Perfetto). One thread row per
// workload; nesting follows from the timestamps.
func (t *tracer) writeChrome(w io.Writer, rowOf func(cell int) (tid int, label string)) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	named := map[int]bool{}
	for i := range t.spans {
		s := &t.spans[i]
		tid, label := rowOf(s.cell)
		if !named[tid] {
			named[tid] = true
			evs = append(evs, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": label}})
		}
		evs = append(evs, event{Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"cell": s.cell, "parent": s.parent}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
