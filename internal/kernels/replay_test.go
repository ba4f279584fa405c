package kernels

import (
	"io"
	"runtime"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/machine"
	"rockcress/internal/trace"
)

// replayMaxCycles bounds the small Tiny-scale searches below.
const replayMaxCycles = 30_000_000

// TestReplayLadderBeatsRestart is the acceptance criterion for the recovery
// ladder under silent data corruption: for every PolyBench kernel under V4,
// ProbeReplayWin must find a fault schedule the ladder repairs strictly
// cheaper than the whole-run-restart baseline. Fourteen kernels demonstrate
// the frame-replay rung (a frame-region bit flip poisons an in-flight vload
// frame, repaired in-run with no dead tiles); gramschm — the one kernel
// whose builds never stream data through scratchpad frames (global gathers
// only, paper sec. 6.2) — demonstrates the checkpoint rung under a lane
// kill, and a frame flip must be provably benign for it.
func TestReplayLadderBeatsRestart(t *testing.T) {
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	hw := config.ManycoreDefault()
	for _, b := range PolyBench() {
		b := b
		t.Run(b.Info().Name, func(t *testing.T) {
			p := b.Defaults(Tiny)
			pr, err := ProbeReplayWinOpts(b, p, sw, hw, ExecOpts{MaxCycles: replayMaxCycles})
			if err != nil {
				t.Fatal(err)
			}
			lad := pr.Ladder
			if lad.Report == nil {
				t.Fatal("ladder run has no fault report")
			}
			switch pr.Rung {
			case "replay":
				var poisons int64
				for i := range lad.Stats.Cores {
					poisons += lad.Stats.Cores[i].FramePoisons
				}
				if poisons < 1 {
					t.Errorf("replay fired without a recorded frame poison: %+v", lad.Report)
				}
				if len(lad.Ladder) != 1 || lad.Ladder[0].FrameReplays < 1 {
					t.Errorf("ladder detail %+v, want one attempt with >= 1 replay", lad.Ladder)
				}
			case "checkpoint":
				if ladderCheckpoints(lad) < 1 {
					t.Errorf("checkpoint restart without a recorded publish: %+v", lad.Ladder)
				}
				fromCkpt := false
				for _, ai := range lad.Ladder {
					fromCkpt = fromCkpt || ai.FromCheckpoint
				}
				if !fromCkpt {
					t.Errorf("no ladder attempt marked FromCheckpoint: %+v", lad.Ladder)
				}
			default:
				t.Fatalf("unknown rung %q", pr.Rung)
			}
			wantRung := "replay"
			if b.Info().Name == "gramschm" {
				wantRung = "checkpoint"
			}
			if pr.Rung != wantRung {
				t.Errorf("win on the %s rung, want %s", pr.Rung, wantRung)
			}
			t.Logf("%s rung (%s @%d): ladder %d cycles (replays %d, ckpt restarts %d) vs restart baseline %d (attempts %d)",
				pr.Rung, pr.Plan.Events[0].Kind, pr.Plan.Events[0].Cycle,
				lad.TotalCycles, lad.FrameReplays, lad.CheckpointRestarts,
				pr.Restart.TotalCycles, pr.Restart.Attempts)
		})
	}
}

// TestGramschmFlipBenign pins the gather-only exception: a frame-region flip
// on a gramschm lane must not disturb the run at all — one clean attempt,
// correct result, flip recorded in the report.
func TestGramschmFlipBenign(t *testing.T) {
	b, err := Get("gramschm")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	hw := config.ManycoreDefault()
	groups, err := GroupsFor(sw, sw.Apply(hw))
	if err != nil {
		t.Fatal(err)
	}
	victim := groups[0].Lanes[len(groups[0].Lanes)-1]
	p := b.Defaults(Tiny)
	base, err := ExecuteOpts(b, p, sw, hw, ExecOpts{MaxCycles: replayMaxCycles})
	if err != nil {
		t.Fatal(err)
	}
	lad, err := ExecuteWithFaultsOpts(b, p, sw, hw, flipPlan(base.Cycles()/2, victim, 0), ExecOpts{MaxCycles: replayMaxCycles})
	if err != nil {
		t.Fatalf("frame flip must be benign for a gather-only kernel: %v", err)
	}
	if lad.Attempts != 1 || lad.Report.Degraded() {
		t.Errorf("benign flip cost %d attempts (degraded %v), want 1 clean attempt", lad.Attempts, lad.Report.Degraded())
	}
	if lad.Stats.SpadFlipsFrame+lad.Stats.SpadFlipsData < 1 {
		t.Errorf("flip not recorded in stats: frame %d, data %d", lad.Stats.SpadFlipsFrame, lad.Stats.SpadFlipsData)
	}
}

// TestCheckpointRestart kills a lane late enough in a V4 mvt run that a
// checkpoint has been published: the restart must resume from the snapshot
// (CheckpointRestarts, Ladder.FromCheckpoint) and still produce the correct
// result on the reformed fabric.
func TestCheckpointRestart(t *testing.T) {
	b, err := Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	hw := config.ManycoreDefault()
	groups, err := GroupsFor(sw, sw.Apply(hw))
	if err != nil {
		t.Fatal(err)
	}
	victim := groups[0].Lanes[len(groups[0].Lanes)-1]
	p := b.Defaults(Tiny)
	base, err := ExecuteOpts(b, p, sw, hw, ExecOpts{MaxCycles: replayMaxCycles})
	if err != nil {
		t.Fatal(err)
	}
	baseCycles := base.Cycles()
	// The kill must land after a phase boundary published a snapshot but
	// before the run finishes; sweep the second half of the run.
	for _, fr := range [][2]int64{{5, 8}, {3, 4}, {1, 2}, {7, 8}, {9, 16}, {11, 16}} {
		plan := &fault.Plan{Events: []fault.Event{
			{Kind: fault.KillTile, Cycle: baseCycles * fr[0] / fr[1], Tile: victim},
		}}
		res, err := ExecuteWithFaultsOpts(b, p, sw, hw, plan, ExecOpts{MaxCycles: replayMaxCycles})
		if err != nil || res.CheckpointRestarts < 1 {
			continue
		}
		fromCkpt := false
		for _, ai := range res.Ladder {
			fromCkpt = fromCkpt || ai.FromCheckpoint
		}
		if !fromCkpt {
			t.Errorf("CheckpointRestarts %d but no ladder attempt marked FromCheckpoint: %+v",
				res.CheckpointRestarts, res.Ladder)
		}
		if ladderCheckpoints(res) < 1 {
			t.Errorf("restart without a recorded checkpoint publish: %+v", res.Ladder)
		}
		if res.Result == nil || res.Result.Stats.Cycles <= 0 {
			t.Fatal("no final result after checkpoint restart")
		}
		t.Logf("kill @%d: %d attempts, %d checkpoint restart(s), %d full restart(s), total %d cycles",
			plan.Events[0].Cycle, res.Attempts, res.CheckpointRestarts, res.FullRestarts, res.TotalCycles)
		return
	}
	t.Fatal("no kill cycle produced a checkpoint-resumed restart")
}

// mvtV4Tiny is the cell the host-cost tests below run.
func mvtV4Tiny(t *testing.T) (Benchmark, Params, config.Software, config.Manycore) {
	t.Helper()
	b, err := Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	return b, b.Defaults(Tiny), sw, config.ManycoreDefault()
}

// lateKillPlan forces one checkpoint restart on mvtV4Tiny: tile 9 is the
// last lane of the first V4 group, and cycle 1970 is 5/8 of the fault-free
// run, after the first phase boundary published a checkpoint.
func lateKillPlan() *fault.Plan {
	return &fault.Plan{Events: []fault.Event{{Kind: fault.KillTile, Cycle: 1970, Tile: 9}}}
}

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointCostScalesWithDirtyPages gates the host cost of the
// checkpoint rung on a deterministic proxy: a warm mvt/V4 Tiny cell whose
// kill forces one checkpoint restart publishes two checkpoints and builds
// two machines, and must allocate far less than the one 32 MiB store a
// dense snapshot would copy — while recovering exactly as the dense ladder
// did (pinned attempt, restart and cycle counts).
func TestCheckpointCostScalesWithDirtyPages(t *testing.T) {
	b, p, sw, hw := mvtV4Tiny(t)
	plan := lateKillPlan()
	run := func() *FaultResult {
		res, err := ExecuteWithFaultsOpts(b, p, sw, hw, plan, ExecOpts{MaxCycles: replayMaxCycles})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run() // warm: the store pool and every lazily built table
	var res *FaultResult
	got := allocatedBy(func() { res = run() })
	if limit := uint64(16 << 20); got >= limit {
		t.Errorf("ladder cell allocated %d bytes, want < %d: checkpoints must cost the pages the kernel touched",
			got, limit)
	}
	if res.Attempts != 2 || res.CheckpointRestarts != 1 || res.FullRestarts != 0 {
		t.Errorf("attempts %d, checkpoint restarts %d, full restarts %d; want 2, 1, 0",
			res.Attempts, res.CheckpointRestarts, res.FullRestarts)
	}
	if res.TotalCycles != 5110 || res.Cycles() != 1889 {
		t.Errorf("total %d cycles, restored attempt %d; want 5110 and 1889", res.TotalCycles, res.Cycles())
	}
	if n := ladderCheckpoints(res); n != 2 {
		t.Errorf("ladder %+v published %d checkpoints, want 2", res.Ladder, n)
	}
	if len(res.Ladder) != 2 || !res.Ladder[1].FromCheckpoint {
		t.Errorf("ladder %+v, want the second attempt resumed from a checkpoint", res.Ladder)
	}
}

// TestCheckpointEventReportsPagesCopied: the trace must show what a
// checkpoint cost — the pages copied — beside the size of the store it
// covers.
func TestCheckpointEventReportsPagesCopied(t *testing.T) {
	b, p, sw, hw := mvtV4Tiny(t)
	sink := trace.NewSink(trace.Config{EventsTo: io.Discard})
	if _, err := ExecuteWithFaultsOpts(b, p, sw, hw, lateKillPlan(),
		ExecOpts{MaxCycles: replayMaxCycles, Trace: sink}); err != nil {
		t.Fatal(err)
	}
	publishes, restores := 0, 0
	var machineTid int32
	for _, e := range sink.Recorder().Events() {
		switch e.Kind {
		case trace.EvCheckpoint:
			publishes++
			machineTid = e.Tid
			words, pages := e.Arg("words"), e.Arg("pages")
			if words != machine.DefaultMemBytes/4 || pages < 1 || pages > 128 {
				t.Errorf("checkpoint event words %d pages %d: want the store's words and a small count of copied pages", words, pages)
			}
		case trace.EvCheckpointRestore:
			restores++
			if e.Tid != machineTid || e.Arg("attempt") != 2 {
				t.Errorf("restore on tid %d attempt %d: want the machine track (tid %d) its publish sits on, attempt 2",
					e.Tid, e.Arg("attempt"), machineTid)
			}
		}
	}
	if publishes != 2 || restores != 1 {
		t.Errorf("saw %d checkpoint and %d restore events, want 2 and 1", publishes, restores)
	}
}

// TestFailedRunRecyclesStore: a cell that fails must park its global store
// like a cell that succeeds, or every failing cell of a sweep allocates and
// clears a fresh 32 MiB. More failing runs than the pool could ever hold
// rule out stores parked by earlier tests.
func TestFailedRunRecyclesStore(t *testing.T) {
	b, p, sw, hw := mvtV4Tiny(t)
	fail := func() {
		if _, err := ExecuteOpts(b, p, sw, hw, ExecOpts{MaxCycles: 100}); err == nil {
			t.Fatal("a 100-cycle budget must fail the run")
		}
	}
	fail() // may allocate the one store the rest reuse
	for i := 0; i < 10; i++ {
		if got := allocatedBy(fail); got >= machine.DefaultMemBytes {
			t.Fatalf("failing run %d allocated %d bytes: the previous run's store was dropped, not recycled", i+2, got)
		}
	}
}

// ladderCheckpoints is the snapshots every attempt of the ladder published.
func ladderCheckpoints(fr *FaultResult) int64 {
	var n int64
	for _, a := range fr.Ladder {
		n += a.Checkpoints
	}
	return n
}
