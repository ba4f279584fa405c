package machine

import (
	"testing"

	"rockcress/internal/metrics"
	"rockcress/internal/trace"
)

// announced lists every kind the fault stack announces: each fault verb and
// each step of the recovery ladder.
var announced = []trace.Kind{
	trace.EvCheckpoint, trace.EvReplayStart, trace.EvReplayOK, trace.EvReplayRetry,
	trace.EvReplayEscalate, trace.EvRecoverGroupBreak, trace.EvFaultStick,
	trace.EvFaultFlip, trace.EvFaultKill, trace.EvFaultCutLink,
	trace.EvFaultKillRouter, trace.EvFaultKillBank, trace.EvFaultDramDegrade,
}

// announceArgs returns values that fit k's row: 1, 2, ... per key, led by a
// duration of 7 for a span kind.
func announceArgs(k trace.Kind) []int64 {
	var vals []int64
	if trace.Vocabulary[k].Ph == trace.PhSpan {
		vals = append(vals, 7)
	}
	for i := range trace.Vocabulary[k].Keys {
		vals = append(vals, int64(i+1))
	}
	return vals
}

// TestAnnounceFeedsBothSinks announces every fault and recovery kind once
// and reads both sinks back: the recorder holds the events in order with
// the values in the row's slots, the flight ring holds one note per event
// whose kind is the row's name and whose detail is derived from the row.
// With neither sink attached an announcement costs no allocation.
func TestAnnounceFeedsBothSinks(t *testing.T) {
	rec, flight := trace.NewRecorder(64), metrics.NewFlight()
	o := &observers{rec: rec, flight: flight}
	for i, k := range announced {
		o.announce(k, int64(100+i), int64(i), announceArgs(k)...)
	}
	events := rec.Events()
	if len(events) != len(announced) {
		t.Fatalf("recorder holds %d events, want %d", len(events), len(announced))
	}
	path, err := flight.Dump(t.TempDir(), "test", nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := metrics.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.Notes) != len(announced) {
		t.Fatalf("flight ring holds %d notes, want %d", len(bundle.Notes), len(announced))
	}
	for i, k := range announced {
		info := trace.Vocabulary[k]
		e, n := events[i], bundle.Notes[i]
		if e.Kind != k || e.Ts != int64(100+i) || e.Tid != int32(i) {
			t.Errorf("%s: event %+v, want kind %d at cycle %d on tid %d", info.Name, e, k, 100+i, i)
		}
		if info.Ph == trace.PhSpan && e.Dur != 7 {
			t.Errorf("%s: span duration %d, want 7", info.Name, e.Dur)
		}
		for j, key := range info.Keys {
			if got := e.Arg(key); got != int64(j+1) {
				t.Errorf("%s: arg %s = %d, want %d", info.Name, key, got, j+1)
			}
		}
		if n.Kind != info.Name || n.Cycle != int64(100+i) {
			t.Errorf("note %d is %q at cycle %d, want %q at %d", i, n.Kind, n.Cycle, info.Name, 100+i)
		}
	}
	// Detail text is the row's pairs: spot-check one instant and the span.
	details := map[string]string{}
	for _, n := range bundle.Notes {
		details[n.Kind] = n.Detail
	}
	if got, want := details["fault.flip"], "tid=7 bit=1 offset=2"; got != want {
		t.Errorf("fault.flip detail %q, want %q", got, want)
	}
	if got, want := details["fault.stick"], "tid=6 dur=7"; got != want {
		t.Errorf("fault.stick detail %q, want %q", got, want)
	}

	bare := &observers{}
	if allocs := testing.AllocsPerRun(100, func() {
		bare.announce(trace.EvFaultFlip, 5, 3, 7, 64)
		bare.announce(trace.EvCheckpoint, 5, 80, 12, 8192)
		bare.announce(trace.EvFaultStick, 5, 9, 500)
	}); allocs != 0 {
		t.Errorf("announce with no sink attached allocates %.0f times per run, want 0", allocs)
	}
}
