package analyze

import (
	"os"
	"path/filepath"
	"testing"

	"rockcress/internal/trace"
)

// TestAnalyzeTrace feeds a hand-built event stream through the pipeline
// matcher: two vloads fan out, one frame fills, opens, and is consumed.
func TestAnalyzeTrace(t *testing.T) {
	evs := []TraceEvent{
		{Name: "vload.issue", Ph: "i", Ts: 100, Tid: 7, Args: map[string]int64{"addr": 4096}},
		{Name: "vload.issue", Ph: "i", Ts: 110, Tid: 7, Args: map[string]int64{"addr": 8192}},
		{Name: "llc.fanout", Ph: "i", Ts: 112, Tid: 64, Args: map[string]int64{"src": 7, "addr": 4096}},
		{Name: "llc.fanout", Ph: "i", Ts: 130, Tid: 64, Args: map[string]int64{"src": 7, "addr": 8192}},
		// Frame on tile 7 slot 0: filling 120..160, opened at 170,
		// consumed over 170..200.
		{Name: "frame.fill", Ph: "X", Ts: 120, Dur: 40, Tid: 7, Args: map[string]int64{"slot": 0}},
		{Name: "frame.open", Ph: "i", Ts: 170, Tid: 7, Args: map[string]int64{"slot": 0}},
		{Name: "frame.consume", Ph: "X", Ts: 170, Dur: 30, Tid: 7, Args: map[string]int64{"slot": 0}},
		{Name: "barrier.release", Ph: "i", Ts: 210, Tid: 0},
		{Name: "fastforward", Ph: "X", Ts: 220, Dur: 80, Tid: 0},
	}
	st := AnalyzeTrace(evs, 5)
	if st.Dropped != 5 {
		t.Fatalf("dropped %d, want 5", st.Dropped)
	}
	// p50 of {12, 20} interpolates to the midpoint; p99 must sit at the
	// tail, not truncate back down to the lower sample.
	if st.IssueToFanout.Count != 2 || st.IssueToFanout.Max != 20 ||
		st.IssueToFanout.P50 != 16 || st.IssueToFanout.P99 < 19 {
		t.Fatalf("issue->fanout %+v, want n=2 p50=16 p99>=19 max=20", st.IssueToFanout)
	}
	if st.FillDur.Count != 1 || st.FillDur.Mean != 40 {
		t.Fatalf("fill %+v, want n=1 mean=40", st.FillDur)
	}
	if st.FullToOpen.Count != 1 || st.FullToOpen.Mean != 10 {
		t.Fatalf("full->open %+v, want n=1 mean=10 (full at 160, open at 170)", st.FullToOpen)
	}
	if st.OpenToConsumed.Count != 1 || st.OpenToConsumed.Mean != 30 {
		t.Fatalf("open->consumed %+v, want n=1 mean=30", st.OpenToConsumed)
	}
	if st.Residency.Count != 1 || st.Residency.Mean != 40 {
		t.Fatalf("residency %+v, want n=1 mean=40 (full 160 -> freed 200)", st.Residency)
	}
	if st.FramesConsumed != 1 || st.PeakOccupied != 1 {
		t.Fatalf("frames consumed %d peak %d, want 1/1", st.FramesConsumed, st.PeakOccupied)
	}
	// One frame held [160, 200) of span [100, 300): 40/200.
	if st.SpanTs != 200 || st.MeanOccupied != 0.2 {
		t.Fatalf("span %d mean occupied %v, want 200 / 0.2", st.SpanTs, st.MeanOccupied)
	}
	if st.BarrierReleases != 1 || st.FastForwarded != 80 {
		t.Fatalf("barriers %d ff %d, want 1 / 80", st.BarrierReleases, st.FastForwarded)
	}
}

// TestAnalyzeTraceUnmatchedTail checks the ring-buffer defense: a consume
// whose fill was overwritten contributes no residency sample and no
// negative occupancy.
func TestAnalyzeTraceUnmatchedTail(t *testing.T) {
	evs := []TraceEvent{
		{Name: "frame.consume", Ph: "X", Ts: 100, Dur: 20, Tid: 3, Args: map[string]int64{"slot": 1}},
	}
	st := AnalyzeTrace(evs, 100)
	if st.FramesConsumed != 1 || st.Residency.Count != 0 || st.PeakOccupied != 0 {
		t.Fatalf("unmatched consume mishandled: %+v", st)
	}
}

// TestReadTraceRoundTrip writes a trace through the real Recorder and
// reads it back, checking metadata events are skipped and drops surface.
func TestReadTraceRoundTrip(t *testing.T) {
	rec := trace.NewRecorder(2)
	rec.Meta(7, "tile7")
	rec.Instant(trace.EvVloadIssue, 10, 7, 64, 16)
	rec.Span(trace.EvFrameFill, 20, 15, 7, 0)
	rec.Instant(trace.EvBarrierRelease, 50, 0, 1) // overwrites the vload.issue
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tf, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, dropped := tf.Events, tf.Dropped
	if dropped != 1 {
		t.Fatalf("dropped %d, want 1 (ring capacity 2, 3 events; the label is not in the ring)", dropped)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(evs), evs)
	}
	if evs[0].Name != "frame.fill" || evs[0].Dur != 15 || evs[0].Args["slot"] != 0 {
		t.Fatalf("first surviving event %+v", evs[0])
	}
}

// TestAnalyzerReadsVocabulary: every event AnalyzeTrace matches on is a
// vocabulary row whose name resolves back to it, and every argument key it
// reads is a key of that row — renaming either in the table without the
// analyzer following would silently empty the statistics.
func TestAnalyzerReadsVocabulary(t *testing.T) {
	reads := map[trace.Kind][]string{
		trace.EvVloadIssue:     {"addr"},
		trace.EvLLCFanout:      {"addr", "src"},
		trace.EvFrameFill:      {"slot"},
		trace.EvFrameOpen:      {"slot"},
		trace.EvFrameConsume:   {"slot"},
		trace.EvBarrierRelease: nil,
		trace.EvFastForward:    nil,
	}
	for k, keys := range reads {
		if got, ok := trace.KindOf(k.Name()); !ok || got != k {
			t.Errorf("KindOf(%q) = %d, %v; want %d", k.Name(), got, ok, k)
		}
		for _, key := range keys {
			if k.ArgIndex(key) < 0 {
				t.Errorf("%s has no argument %q in the vocabulary", k.Name(), key)
			}
		}
	}
}
