package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"rockcress/internal/trace"
)

// TraceEvent is one Chrome trace-event object as the Recorder writes it.
type TraceEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	Ts   int64            `json:"ts"`
	Dur  int64            `json:"dur"`
	Tid  int64            `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// traceDoc is the JSON document shape (the object form with traceEvents).
type traceDoc struct {
	TraceEvents []json.RawMessage `json:"traceEvents"`
	OtherData   struct {
		DroppedEvents int64 `json:"droppedEvents"`
		Truncated     bool  `json:"truncated"`
	} `json:"otherData"`
}

// TraceFile is a parsed event-trace file: its counter events plus the
// provenance the recorder stamped on it (ring drops, and whether the run
// was cut short by a cancel, wall-budget expiry, or fault).
type TraceFile struct {
	Events    []TraceEvent
	Dropped   int64
	Truncated bool
}

// LatencyDist summarizes one latency population in cycles.
type LatencyDist struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

func distOf(samples []float64) LatencyDist {
	if len(samples) == 0 {
		return LatencyDist{}
	}
	sort.Float64s(samples)
	// Interpolate between neighbor ranks: truncating the index would
	// under-report the tail on small populations (n=10 would label ~p89
	// as p99).
	pick := func(q float64) float64 {
		pos := q * float64(len(samples)-1)
		lo := int(math.Floor(pos))
		if lo >= len(samples)-1 {
			return samples[len(samples)-1]
		}
		return samples[lo] + (pos-float64(lo))*(samples[lo+1]-samples[lo])
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return LatencyDist{
		Count: int64(len(samples)),
		P50:   pick(0.50), P90: pick(0.90), P99: pick(0.99),
		Max:  samples[len(samples)-1],
		Mean: sum / float64(len(samples)),
	}
}

// TraceStats is what the trace analyzer recovers from an event trace: the
// vload pipeline stage latencies (issue at a tile -> fanout at an LLC bank
// -> frame filled -> frame opened -> frame consumed) and frame-occupancy
// statistics across scratchpads.
type TraceStats struct {
	Events  int64 `json:"events"`
	Dropped int64 `json:"dropped"`
	// Truncated marks statistics computed from a trace whose run was cut
	// short (cancel, wall budget, or fault); they describe a prefix of the
	// run, not the whole run.
	Truncated bool  `json:"truncated,omitempty"`
	SpanTs    int64 `json:"span_ts"` // last event end - first event start, cycles

	// IssueToFanout: vload request injected at its source tile until an LLC
	// bank accepted it (request-plane traversal + bank admission).
	IssueToFanout LatencyDist `json:"issue_to_fanout"`
	// FillDur: first word of a frame arriving until the frame is full
	// (LLC/DRAM service plus response-plane fanin).
	FillDur LatencyDist `json:"fill_dur"`
	// FullToOpen: frame full until the consumer opened it (negative waits
	// are clamped to 0 — the consumer was already blocked on the frame).
	FullToOpen LatencyDist `json:"full_to_open"`
	// OpenToConsumed: frame opened until it was fully consumed and freed.
	OpenToConsumed LatencyDist `json:"open_to_consumed"`
	// Residency: frame full until freed — how long a filled frame holds a
	// scratchpad slot.
	Residency LatencyDist `json:"residency"`

	FramesConsumed int64 `json:"frames_consumed"`
	// MeanOccupied is the time-weighted mean count of full-but-unfreed
	// frames across all scratchpads; PeakOccupied is its maximum.
	MeanOccupied float64 `json:"mean_occupied"`
	PeakOccupied int64   `json:"peak_occupied"`

	// Barriers and fast-forward coverage put the above in context.
	BarrierReleases int64 `json:"barrier_releases"`
	FastForwarded   int64 `json:"fast_forwarded_cycles"`
}

// ReadTraceFile parses a Chrome trace-event JSON file the Recorder wrote,
// including its truncation marker. An interrupted run flushes a valid,
// truncation-marked document, so readers report "partial" rather than
// failing on it.
func ReadTraceFile(path string) (*TraceFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("analyze: %s: %w", path, err)
	}
	tf := &TraceFile{
		Events:    make([]TraceEvent, 0, len(doc.TraceEvents)),
		Dropped:   doc.OtherData.DroppedEvents,
		Truncated: doc.OtherData.Truncated,
	}
	for _, raw := range doc.TraceEvents {
		var e TraceEvent
		if err := json.Unmarshal(raw, &e); err != nil {
			// Metadata events carry a string arg; skip anything that does
			// not decode as a counter event.
			continue
		}
		if e.Ph == "M" {
			continue
		}
		tf.Events = append(tf.Events, e)
	}
	return tf, nil
}

type slotKey struct {
	tid  int64
	slot int64
}

// AnalyzeTrace reconstructs the vload pipeline from the event stream. The
// ring buffer keeps the tail of a long run, so matching is defensive:
// unmatched head events (their partner was overwritten) are skipped, and
// dropped-event counts are surfaced so partial statistics read as partial.
func AnalyzeTrace(evs []TraceEvent, dropped int64) *TraceStats {
	ts := &TraceStats{Events: int64(len(evs)), Dropped: dropped}
	if len(evs) == 0 {
		return ts
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	first, last := evs[0].Ts, evs[0].Ts

	type issueKey struct{ src, addr int64 }
	pendingIssue := map[issueKey][]int64{} // issue ts FIFO per (src, addr)
	fillEnd := map[slotKey][]int64{}       // frame-full ts FIFO per (tile, slot)
	openTs := map[slotKey][]int64{}        // frame-open ts FIFO per (tile, slot)

	var i2f, fill, f2o, o2c, res []float64
	type occEdge struct {
		t  int64
		dv int64
	}
	var occ []occEdge

	for i := range evs {
		e := &evs[i]
		if end := e.Ts + e.Dur; end > last {
			last = end
		}
		// Names come from the recorder's vocabulary; anything else in the
		// file (a foreign or newer trace) is counted but not matched.
		kind, known := trace.KindOf(e.Name)
		if !known {
			continue
		}
		switch kind {
		case trace.EvVloadIssue:
			k := issueKey{src: e.Tid, addr: e.Args["addr"]}
			pendingIssue[k] = append(pendingIssue[k], e.Ts)
		case trace.EvLLCFanout:
			k := issueKey{src: e.Args["src"], addr: e.Args["addr"]}
			if q := pendingIssue[k]; len(q) > 0 {
				i2f = append(i2f, float64(e.Ts-q[0]))
				pendingIssue[k] = q[1:]
			}
		case trace.EvFrameFill:
			fill = append(fill, float64(e.Dur))
			k := slotKey{tid: e.Tid, slot: e.Args["slot"]}
			fillEnd[k] = append(fillEnd[k], e.Ts+e.Dur)
			occ = append(occ, occEdge{t: e.Ts + e.Dur, dv: +1})
		case trace.EvFrameOpen:
			k := slotKey{tid: e.Tid, slot: e.Args["slot"]}
			openTs[k] = append(openTs[k], e.Ts)
			if q := fillEnd[k]; len(q) > 0 {
				d := e.Ts - q[0]
				if d < 0 {
					d = 0
				}
				f2o = append(f2o, float64(d))
			}
		case trace.EvFrameConsume:
			ts.FramesConsumed++
			o2c = append(o2c, float64(e.Dur))
			k := slotKey{tid: e.Tid, slot: e.Args["slot"]}
			end := e.Ts + e.Dur
			if q := fillEnd[k]; len(q) > 0 {
				if d := end - q[0]; d >= 0 {
					res = append(res, float64(d))
				}
				fillEnd[k] = q[1:]
				occ = append(occ, occEdge{t: end, dv: -1})
			}
			if q := openTs[k]; len(q) > 0 {
				openTs[k] = q[1:]
			}
		case trace.EvBarrierRelease:
			ts.BarrierReleases++
		case trace.EvFastForward:
			ts.FastForwarded += e.Dur
		}
	}

	ts.SpanTs = last - first
	ts.IssueToFanout = distOf(i2f)
	ts.FillDur = distOf(fill)
	ts.FullToOpen = distOf(f2o)
	ts.OpenToConsumed = distOf(o2c)
	ts.Residency = distOf(res)

	// Time-weighted occupancy from the +1/-1 edges of matched frames.
	sort.SliceStable(occ, func(i, j int) bool { return occ[i].t < occ[j].t })
	var cur, peak int64
	var area float64
	prev := first
	for _, e := range occ {
		area += float64(cur) * float64(e.t-prev)
		prev = e.t
		cur += e.dv
		if cur > peak {
			peak = cur
		}
	}
	area += float64(cur) * float64(last-prev)
	if ts.SpanTs > 0 {
		ts.MeanOccupied = area / float64(ts.SpanTs)
	}
	ts.PeakOccupied = peak
	return ts
}

func renderDist(w io.Writer, name string, d LatencyDist) {
	if d.Count == 0 {
		fmt.Fprintf(w, "  %-18s (no samples)\n", name)
		return
	}
	fmt.Fprintf(w, "  %-18s n=%-7d p50=%-7.0f p90=%-7.0f p99=%-7.0f max=%-7.0f mean=%.1f\n",
		name, d.Count, d.P50, d.P90, d.P99, d.Max, d.Mean)
}

// Render prints the trace statistics for humans.
func (t *TraceStats) Render(w io.Writer) {
	fmt.Fprintf(w, "events: %d over %d cycles", t.Events, t.SpanTs)
	if t.FastForwarded > 0 {
		fmt.Fprintf(w, " (%d fast-forwarded)", t.FastForwarded)
	}
	fmt.Fprintln(w)
	if t.Truncated {
		fmt.Fprintln(w, "WARNING: run was interrupted; this trace covers a prefix of the run, not its whole execution")
	}
	if t.Dropped > 0 {
		fmt.Fprintf(w, "WARNING: %d events were dropped by the ring buffer; statistics cover the tail of the run only\n", t.Dropped)
	}
	fmt.Fprintln(w, "vload pipeline latencies (cycles):")
	renderDist(w, "issue->fanout", t.IssueToFanout)
	renderDist(w, "fill (first->full)", t.FillDur)
	renderDist(w, "full->open", t.FullToOpen)
	renderDist(w, "open->consumed", t.OpenToConsumed)
	renderDist(w, "residency", t.Residency)
	fmt.Fprintf(w, "frames: %d consumed, mean %.2f full frames held, peak %d\n",
		t.FramesConsumed, t.MeanOccupied, t.PeakOccupied)
	if t.BarrierReleases > 0 {
		fmt.Fprintf(w, "barriers released: %d\n", t.BarrierReleases)
	}
}
