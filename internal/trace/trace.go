// Package trace is the simulator's observability subsystem: a cycle-windowed
// telemetry sampler (JSONL time series of counter deltas), a bounded
// structured event recorder (Chrome trace-event / Perfetto JSON), and the
// plumbing that hands both to a machine instance.
//
// The contract with the hot paths is zero cost when disabled: every producer
// holds a possibly-nil *Recorder or *Sampler and checks it before doing any
// work, and neither ever mutates simulated state — they only read counters
// and append to their own buffers. Cycle counts are therefore bit-identical
// with tracing on or off.
package trace

import (
	"fmt"
	"io"
)

// Default knobs, applied when the corresponding Config field is zero.
const (
	DefaultSampleEvery = 1024
	DefaultEventCap    = 1 << 16
)

// Config selects which outputs a Sink produces. A nil writer disables that
// output entirely (its accessor returns nil and producers skip all work).
type Config struct {
	// SampleEvery is the telemetry window size in cycles. Windows may cover
	// more than SampleEvery cycles when the machine fast-forwards across a
	// boundary; deltas stay exact either way.
	SampleEvery int64
	// SampleTo receives one JSON object per window (JSONL).
	SampleTo io.Writer
	// EventsTo receives the Chrome trace-event JSON at Close.
	EventsTo io.Writer
	// EventCap bounds the event ring buffer; the oldest events are dropped
	// (and counted) when a run emits more. Ring memory is allocated as
	// events arrive, so a large cap costs nothing a short run does not use.
	EventCap int
}

// Sink owns one run's observability outputs. Attach it to a machine via
// machine.Params.Trace (or kernels.ExecOpts.Trace) and Close it after the
// run to flush the event trace. A Sink is cheap when a Config output is
// disabled; a nil Sink costs nothing at all.
type Sink struct {
	sampler  *Sampler
	rec      *Recorder
	eventsTo io.Writer
	closed   bool
}

// NewSink builds a sink from cfg.
func NewSink(cfg Config) *Sink {
	s := &Sink{}
	if cfg.SampleTo != nil {
		s.sampler = NewSampler(cfg.SampleTo, cfg.SampleEvery)
	}
	if cfg.EventsTo != nil {
		capacity := cfg.EventCap
		if capacity <= 0 {
			capacity = DefaultEventCap
		}
		s.rec = NewRecorder(capacity)
		s.eventsTo = cfg.EventsTo
	}
	return s
}

// Sampler returns the windowed-telemetry sampler, or nil when disabled.
func (s *Sink) Sampler() *Sampler {
	if s == nil {
		return nil
	}
	return s.sampler
}

// Recorder returns the event recorder, or nil when disabled.
func (s *Sink) Recorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// Close flushes the event trace to its writer and parks the recorder's
// event chunks for the next sink's recorder, so the recorder holds no
// events afterwards. Idempotent; returns the first error from either
// output.
func (s *Sink) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.sampler != nil {
		first = s.sampler.Err()
	}
	if s.rec != nil {
		if s.eventsTo != nil {
			if err := s.rec.WriteJSON(s.eventsTo); err != nil && first == nil {
				first = err
			}
		}
		s.rec.release()
	}
	if first != nil {
		return fmt.Errorf("trace: %w", first)
	}
	return nil
}
