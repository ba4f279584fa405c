package kernels

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/metrics"
)

// TestExecuteWithFaultsKillLane is the acceptance scenario: a V4 mvt run
// loses one lane of group 0 mid-kernel, the harness re-forms the fabric
// around the dead tile, and the final output still matches the serial
// reference.
func TestExecuteWithFaultsKillLane(t *testing.T) {
	bench, err := Get("mvt")
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
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.KillTile, Cycle: 1500, Tile: victim},
	}}
	fr, err := ExecuteWithFaultsOpts(bench, bench.Defaults(Tiny), sw, hw, plan, ExecOpts{MaxCycles: 30_000_000})
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !fr.Report.Degraded() {
		t.Fatal("run not marked degraded")
	}
	if fr.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (restart after the kill)", fr.Attempts)
	}
	if fr.MIMDFallback {
		t.Error("one dead tile must not force MIMD fallback on an 8x8 fabric")
	}
	if dead := fr.Report.DeadTiles; len(dead) != 1 || dead[0] != victim {
		t.Errorf("dead tiles %v, want [%d]", dead, victim)
	}
	if fr.Result == nil || fr.Result.Stats.Cycles <= 0 {
		t.Fatal("no final result")
	}
	if fr.TotalCycles <= fr.Result.Cycles() {
		t.Errorf("TotalCycles %d must include the aborted attempt (final %d)",
			fr.TotalCycles, fr.Result.Cycles())
	}
	// The reformed layout must exclude the dead tile.
	for _, g := range fr.Result.Groups {
		for _, l := range g.Lanes {
			if l == victim {
				t.Errorf("reformed group %d still uses dead tile %d", g.ID, victim)
			}
		}
	}
}

// TestExecuteWithFaultsNVKill kills one worker of an NV run: the restart
// must renumber the survivors densely and recompute the dead worker's
// partition.
func TestExecuteWithFaultsNVKill(t *testing.T) {
	bench, err := Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("NV")
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.KillTile, Cycle: 1000, Tile: 3},
	}}
	fr, err := ExecuteWithFaultsOpts(bench, bench.Defaults(Tiny), sw, config.ManycoreDefault(), plan, ExecOpts{MaxCycles: 30_000_000})
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !fr.Report.Degraded() || !slices.Equal(fr.Report.DeadTiles, []int{3}) {
		t.Fatalf("dead tiles %v, want [3]", fr.Report.DeadTiles)
	}
	if fr.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2", fr.Attempts)
	}
	// The ladder's per-attempt record is read off each attempt's spine: the
	// last rung is the completed attempt, whose stats the result carries.
	last := fr.Ladder[len(fr.Ladder)-1]
	var replays, sum int64
	for i := range fr.Stats.Cores {
		replays += fr.Stats.Cores[i].FrameReplays
	}
	if last.Checkpoints != fr.Stats.Checkpoints || last.FrameReplays != replays {
		t.Errorf("last rung checkpoints/replays = %d/%d, want the spine's %d/%d",
			last.Checkpoints, last.FrameReplays, fr.Stats.Checkpoints, replays)
	}
	for _, a := range fr.Ladder {
		sum += a.FrameReplays
	}
	if fr.FrameReplays != sum {
		t.Errorf("FrameReplays = %d, want the ladder's sum %d", fr.FrameReplays, sum)
	}
}

// TestExecuteWithFaultsNilPlan checks that a nil or an empty plan is the
// fault-free run: the recovery ladder's first rung with no recovery
// instrumentation, counting exactly what ExecuteOpts counts. The GPU row
// still refuses a non-empty plan.
func TestExecuteWithFaultsNilPlan(t *testing.T) {
	bench, err := Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	hw := config.ManycoreDefault()
	opts := ExecOpts{MaxCycles: 30_000_000}
	base, err := ExecuteOpts(bench, bench.Defaults(Tiny), sw, hw, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := *base.Stats
	want.WallNs = 0
	for _, plan := range []*fault.Plan{nil, {Seed: 7}} {
		fr, err := ExecuteWithFaultsOpts(bench, bench.Defaults(Tiny), sw, hw, plan, opts)
		if err != nil {
			t.Fatalf("plan %v: %v", plan, err)
		}
		if fr.Attempts != 1 || fr.Report.Degraded() {
			t.Errorf("plan %v: attempts %d, degraded %v", plan, fr.Attempts, fr.Report.Degraded())
		}
		if fr.TotalCycles != fr.Cycles() {
			t.Errorf("plan %v: TotalCycles %d != Cycles %d", plan, fr.TotalCycles, fr.Cycles())
		}
		if fr.Ladder != nil || fr.Report != nil {
			t.Errorf("plan %v: ladder %+v, report %v; want neither", plan, fr.Ladder, fr.Report)
		}
		if fr.CheckpointRestarts != 0 || fr.FullRestarts != 0 || fr.FrameReplays != 0 {
			t.Errorf("plan %v: %d checkpoint restarts, %d full restarts, %d frame replays; want none",
				plan, fr.CheckpointRestarts, fr.FullRestarts, fr.FrameReplays)
		}
		got := *fr.Stats
		got.WallNs = 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("plan %v: stats differ from ExecuteOpts (cycles %d vs %d)", plan, got.Cycles, want.Cycles)
		}
	}
	kill := &fault.Plan{Events: []fault.Event{{Kind: fault.KillTile, Cycle: 100, Tile: 3}}}
	_, err = ExecuteWithFaultsOpts(bench, bench.Defaults(Tiny), GPUSoftware(), hw, kill, opts)
	if err == nil || !strings.Contains(err.Error(), "fault injection targets the manycore fabric") {
		t.Errorf("GPU under a fault plan: err %v, want the manycore-only refusal", err)
	}
}

// TestVectorRowNeedsAGroup runs V4 on a 2x2 fabric, where no complete V4
// group fits: the run is refused before any machine is built, naming the
// row and the fabric, rather than simulated as a vector build without
// groups or silently finished in MIMD.
func TestVectorRowNeedsAGroup(t *testing.T) {
	bench, err := Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	hw := config.ManycoreDefault()
	hw.MeshWidth, hw.MeshHeight, hw.Cores, hw.LLCBanks = 2, 2, 4, 4
	plane := metrics.NewPlane("")
	_, err = ExecuteOpts(bench, bench.Defaults(Tiny), sw, hw, ExecOpts{MaxCycles: 30_000_000, Obs: plane})
	if err == nil || !strings.Contains(err.Error(), "no complete V4 group fits a 2x2 fabric") {
		t.Fatalf("V4 on 2x2: err %v, want the no-group refusal", err)
	}
	if sim := plane.Run().Snapshot().Sim; sim.Cycles != 0 {
		t.Errorf("the refused run simulated %d cycles, want none", sim.Cycles)
	}
}

// TestFlightKeyFollowsMachineSlot begins two cells on one plane, the way
// `rockbench -j N` overlaps them: mvt/V4 (rung 2 of a ladder) builds first
// and wins the plane's machine slot, gemm/NV begins and builds while it
// holds it. Every flight note comes from the slot holder's machine, so the
// kill it records, and the header of a bundle dumped then, must carry
// mvt/V4 attempt 2 — not the key of the cell that began last.
func TestFlightKeyFollowsMachineSlot(t *testing.T) {
	plane := metrics.NewPlane(t.TempDir())
	begin := func(bench, cfg string, n int, plan *fault.Plan) *trial {
		t.Helper()
		b, err := Get(bench)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := config.Preset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hw := sw.Apply(config.ManycoreDefault())
		groups, err := GroupsFor(sw, hw)
		if err != nil {
			t.Fatal(err)
		}
		tok := plane.Run().Begin(bench, cfg)
		plane.Run().SetAttempt(tok, max(n, 1))
		t.Cleanup(func() { plane.Run().End(tok, nil) })
		a := &trial{n: n, plan: plan}
		if err := a.build(b, b.Defaults(Tiny), sw, sw, hw, groups, ExecOpts{Obs: plane}); err != nil {
			t.Fatal(err)
		}
		return a
	}
	holder := begin("mvt", "V4", 2, &fault.Plan{Events: []fault.Event{{Kind: fault.KillTile, Cycle: 100, Tile: 12}}})
	later := begin("gemm", "NV", 0, nil)
	if !holder.m.ObsBound() || later.m.ObsBound() {
		t.Fatalf("slot: mvt/V4 bound %v, gemm/NV bound %v; want the first builder to hold it",
			holder.m.ObsBound(), later.m.ObsBound())
	}
	if err := holder.m.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	path, err := plane.DumpFlight("test", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := metrics.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if bundle.Run != "mvt/V4" || bundle.Attempt != 2 {
		t.Errorf("bundle header says %s attempt %d, want the slot holder mvt/V4 attempt 2", bundle.Run, bundle.Attempt)
	}
	kills := 0
	for _, n := range bundle.Notes {
		if n.Kind == "fault.kill" {
			kills++
		}
		if n.Run != "mvt/V4" || n.Attempt != 2 {
			t.Errorf("note %s at cycle %d tagged %s attempt %d, want mvt/V4 attempt 2", n.Kind, n.Cycle, n.Run, n.Attempt)
		}
	}
	if kills != 1 {
		t.Errorf("%d fault.kill notes in the bundle, want the one the slot holder's machine wrote", kills)
	}
}
