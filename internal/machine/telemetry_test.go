package machine_test

// Telemetry contract tests: (1) attaching a full observability sink (event
// trace + cycle-windowed sampler + engine profile) must not move a single
// golden cycle count; (2) conservation — the
// per-window counter deltas must sum exactly to the end-of-run stats.Machine
// aggregates, because both are read from the same live counters; (3) both
// properties survive a fault run that exercises the recovery ladder.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/kernels"
	"rockcress/internal/sim"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// readWindows parses a sampler's JSONL output and checks the series shape:
// contiguous [start,end) windows from cycle 0, exactly one final window, and
// the final end matching the run's cycle count. Fault-harness runs reset the
// sampler per attempt, so the series may restart from zero; attempts==1
// callers get a single monotone series.
func readWindows(t *testing.T, raw []byte, wantEnd int64) []trace.Window {
	t.Helper()
	var ws []trace.Window
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var w trace.Window
		if err := dec.Decode(&w); err != nil {
			t.Fatalf("telemetry JSONL: %v", err)
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 {
		t.Fatal("telemetry: no windows emitted")
	}
	if ws[0].Start != 0 {
		t.Errorf("first window starts at %d, want 0", ws[0].Start)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].Start != ws[i-1].End {
			t.Errorf("window %d starts at %d, previous ended at %d", i, ws[i].Start, ws[i-1].End)
		}
		if ws[i-1].Final {
			t.Errorf("window %d marked final but %d more follow", i-1, len(ws)-i)
		}
	}
	last := ws[len(ws)-1]
	if !last.Final {
		t.Error("last window not marked final")
	}
	if last.End != wantEnd {
		t.Errorf("last window ends at %d, want run end %d", last.End, wantEnd)
	}
	return ws
}

// checkConservation sums every window delta and compares against the
// end-of-run aggregates. Equality must be exact: the sampler snapshots the
// counters collect() brings up to date in stats.Machine.
func checkConservation(t *testing.T, ws []trace.Window, st *stats.Machine) {
	t.Helper()
	var sum trace.Window
	sum.Roles = map[string]trace.RoleCounters{}
	for _, w := range ws {
		for name, rc := range w.Roles {
			s := sum.Roles[name]
			s.Issued += rc.Issued
			s.Frame += rc.Frame
			s.Inet += rc.Inet
			s.Backpressure += rc.Backpressure
			s.Other += rc.Other
			s.Instrs += rc.Instrs
			sum.Roles[name] = s
		}
		sum.Frames.Consumed += w.Frames.Consumed
		sum.Frames.Poisons += w.Frames.Poisons
		sum.Frames.Replays += w.Frames.Replays
		sum.Frames.Retries += w.Frames.Retries
		sum.Frames.StaleDrops += w.Frames.StaleDrops
		sum.LLC.Accesses += w.LLC.Accesses
		sum.LLC.Misses += w.LLC.Misses
		sum.LLC.WideReqs += w.LLC.WideReqs
		sum.LLC.RespWords += w.LLC.RespWords
		sum.LLC.Writebacks += w.LLC.Writebacks
		sum.Dram.Reads += w.Dram.Reads
		sum.Dram.Writes += w.Dram.Writes
		sum.Dram.Busy += w.Dram.Busy
		sum.Noc.FlitsReq += w.Noc.FlitsReq
		sum.Noc.HopsReq += w.Noc.HopsReq
		sum.Noc.FlitsResp += w.Noc.FlitsResp
		sum.Noc.HopsResp += w.Noc.HopsResp
		sum.Noc.Retrans += w.Noc.Retrans
		sum.Noc.Dropped += w.Noc.Dropped
		sum.Noc.Corrupt += w.Noc.Corrupt
		sum.Noc.RemoteStores += w.Noc.RemoteStores
		sum.Engine.FastForwards += w.Engine.FastForwards
		sum.Engine.SkippedCycles += w.Engine.SkippedCycles
		sum.Engine.Checkpoints += w.Engine.Checkpoints

		// Per-link hop deltas must themselves conserve: the nonzero link
		// entries of a window sum to that window's per-plane hop delta.
		var lr, lp int64
		for _, d := range w.LinksReq {
			lr += d
		}
		for _, d := range w.LinksResp {
			lp += d
		}
		if lr != w.Noc.HopsReq || lp != w.Noc.HopsResp {
			t.Errorf("window [%d,%d): link hop sums %d/%d, plane hop deltas %d/%d",
				w.Start, w.End, lr, lp, w.Noc.HopsReq, w.Noc.HopsResp)
		}
	}

	var issued, frame, inet, backp, other, instrs int64
	var consumed, poisons, replays, retries, stale int64
	for i := range st.Cores {
		c := &st.Cores[i]
		issued += c.Issued()
		frame += c.Stall(stats.StallFrame)
		inet += c.Stall(stats.StallInet)
		backp += c.Stall(stats.StallBackpressure)
		other += c.Stall(stats.StallOther)
		instrs += c.Instrs
		consumed += c.FramesConsumed
		poisons += c.FramePoisons
		replays += c.FrameReplays
		retries += c.ReplayRetries
		stale += c.ReplayStaleDrops
	}
	var rsum trace.RoleCounters
	for _, rc := range sum.Roles {
		rsum.Issued += rc.Issued
		rsum.Frame += rc.Frame
		rsum.Inet += rc.Inet
		rsum.Backpressure += rc.Backpressure
		rsum.Other += rc.Other
		rsum.Instrs += rc.Instrs
	}
	want := trace.RoleCounters{Issued: issued, Frame: frame, Inet: inet,
		Backpressure: backp, Other: other, Instrs: instrs}
	if rsum != want {
		t.Errorf("role sums %+v, stats aggregates %+v", rsum, want)
	}
	if sum.Frames.Consumed != consumed || sum.Frames.Poisons != poisons ||
		sum.Frames.Replays != replays || sum.Frames.Retries != retries ||
		sum.Frames.StaleDrops != stale {
		t.Errorf("frame sums %+v, stats %d/%d/%d/%d/%d",
			sum.Frames, consumed, poisons, replays, retries, stale)
	}
	var acc, miss, wide, resp, wb int64
	for i := range st.LLCs {
		l := &st.LLCs[i]
		acc += l.Accesses
		miss += l.Misses
		wide += l.WideReqs
		resp += l.RespWords
		wb += l.Writebacks
	}
	if sum.LLC != (trace.LLCCounters{Accesses: acc, Misses: miss, WideReqs: wide,
		RespWords: resp, Writebacks: wb}) {
		t.Errorf("llc sums %+v, stats %d/%d/%d/%d/%d", sum.LLC, acc, miss, wide, resp, wb)
	}
	if sum.Dram != (trace.DramCounters{Reads: st.DramReads, Writes: st.DramWrites, Busy: st.DramBusy}) {
		t.Errorf("dram sums %+v, stats %d/%d/%d", sum.Dram, st.DramReads, st.DramWrites, st.DramBusy)
	}
	if got := sum.Noc.FlitsReq + sum.Noc.FlitsResp; got != st.NocFlits {
		t.Errorf("flit sum %d, stats %d", got, st.NocFlits)
	}
	if got := sum.Noc.HopsReq + sum.Noc.HopsResp; got != st.NocHops {
		t.Errorf("hop sum %d, stats %d", got, st.NocHops)
	}
	if sum.Noc.Retrans != st.NocRetrans || sum.Noc.Dropped != st.NocDropped ||
		sum.Noc.Corrupt != st.NocCorrupt || sum.Noc.RemoteStores != st.RemoteStores {
		t.Errorf("noc fault/store sums %+v, stats %d/%d/%d/%d",
			sum.Noc, st.NocRetrans, st.NocDropped, st.NocCorrupt, st.RemoteStores)
	}
	if sum.Engine != (trace.EngineCounters{FastForwards: st.FastForwards,
		SkippedCycles: st.SkippedCycles, Checkpoints: st.Checkpoints}) {
		t.Errorf("engine sums %+v, stats %d/%d/%d",
			sum.Engine, st.FastForwards, st.SkippedCycles, st.Checkpoints)
	}
}

// checkEventJSON parses the recorder's Chrome trace-event output and returns
// the event-name histogram.
func checkEventJSON(t *testing.T, raw []byte) map[string]int {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("event trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("event trace: no events (thread metadata alone should be present)")
	}
	names := map[string]int{}
	for _, e := range doc.TraceEvents {
		names[e.Name]++
	}
	if names["thread_name"] == 0 {
		t.Error("event trace: no thread_name metadata events")
	}
	return names
}

// TestTelemetryGoldenAndConservation runs every golden entry (15 kernels x
// NV/V4/V16 at tiny scale) with a full sink attached — bounded event ring,
// windowed sampler, engine profile — and asserts the golden cycle count is
// untouched and the windows conserve, once per inertWorkers value.
func TestTelemetryGoldenAndConservation(t *testing.T) {
	entries, _ := readGolden(t)
	for _, e := range entries {
		for _, workers := range inertWorkers {
			e, workers := e, workers
			t.Run(fmt.Sprintf("%s/%s/w%d", e.bench, e.config, workers), func(t *testing.T) {
				t.Parallel()
				bench, err := kernels.Get(e.bench)
				if err != nil {
					t.Fatal(err)
				}
				sw, err := config.Preset(e.config)
				if err != nil {
					t.Fatal(err)
				}
				var events, samples bytes.Buffer
				sink := trace.NewSink(trace.Config{
					SampleEvery: 256, SampleTo: &samples, EventsTo: &events,
				})
				prof := &sim.Prof{}
				res, err := kernels.ExecuteOpts(bench, bench.Defaults(kernels.Tiny), sw,
					config.ManycoreDefault(),
					kernels.ExecOpts{Workers: workers, Trace: sink, Prof: prof})
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Cycles(); got != e.cycles {
					t.Errorf("cycles with sink attached = %d, want golden %d", got, e.cycles)
				}
				if err := sink.Close(); err != nil {
					t.Fatal(err)
				}
				ws := readWindows(t, samples.Bytes(), res.Stats.Cycles)
				checkConservation(t, ws, res.Stats)
				checkEventJSON(t, events.Bytes())
				if len(prof.Stages) == 0 {
					t.Error("engine profile attached but no stage meters recorded")
				}
				for _, s := range prof.Stages {
					if s.Ticks == 0 {
						t.Errorf("stage %q recorded no ticks", s.Name)
					}
				}
			})
		}
	}
}

// TestTelemetryFaultConservation attaches the full sink to a fault run that
// triggers one in-run frame replay (the replay_test schedule) and asserts
// the windows still conserve and the recovery-ladder events appear.
func TestTelemetryFaultConservation(t *testing.T) {
	bench, err := kernels.Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	hw := config.ManycoreDefault()
	groups, err := kernels.GroupsFor(sw, sw.Apply(hw))
	if err != nil {
		t.Fatal(err)
	}
	victim := groups[0].Lanes[len(groups[0].Lanes)-1]
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.FlipSpadWord, Cycle: 2758, Tile: victim, Offset: 0, Bit: 30},
	}}
	var events, samples bytes.Buffer
	sink := trace.NewSink(trace.Config{SampleEvery: 256, SampleTo: &samples, EventsTo: &events})
	res, err := kernels.ExecuteWithFaultsOpts(bench, bench.Defaults(kernels.Tiny), sw, hw, plan,
		kernels.ExecOpts{Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 {
		t.Fatalf("expected the flip to be repaired in-run (1 attempt), got %d", res.Attempts)
	}
	if res.FrameReplays < 1 {
		t.Fatalf("schedule did not trigger a replay")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	ws := readWindows(t, samples.Bytes(), res.Stats.Cycles)
	checkConservation(t, ws, res.Stats)
	var replays int64
	for _, w := range ws {
		replays += w.Frames.Replays
	}
	if replays != res.FrameReplays {
		t.Errorf("windows saw %d replays, ladder counted %d", replays, res.FrameReplays)
	}
	names := checkEventJSON(t, events.Bytes())
	for _, want := range []string{"fault.flip", "frame.poison", "replay.start", "replay.ok"} {
		if names[want] == 0 {
			t.Errorf("event trace missing %q (histogram %v)", want, names)
		}
	}
}
