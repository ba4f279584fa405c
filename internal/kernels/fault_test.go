package kernels

import (
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
	fr, err := ExecuteWithFaults(bench, bench.Defaults(Tiny), sw, hw, 30_000_000, plan)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !fr.Degraded() {
		t.Fatal("run not marked degraded")
	}
	if fr.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (restart after the kill)", fr.Attempts)
	}
	if fr.MIMDFallback {
		t.Error("one dead tile must not force MIMD fallback on an 8x8 fabric")
	}
	if len(fr.DeadTiles) != 1 || fr.DeadTiles[0] != victim {
		t.Errorf("dead tiles %v, want [%d]", fr.DeadTiles, victim)
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
	fr, err := ExecuteWithFaults(bench, bench.Defaults(Tiny), sw, config.ManycoreDefault(), 30_000_000, plan)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !fr.Degraded() || len(fr.DeadTiles) != 1 || fr.DeadTiles[0] != 3 {
		t.Fatalf("dead tiles %v, want [3]", fr.DeadTiles)
	}
	if fr.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2", fr.Attempts)
	}
}

// TestExecuteWithFaultsNilPlan checks the nil-plan path is exactly the
// plain Execute path: same cycle count, one attempt, no report.
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
	base, err := Execute(bench, bench.Defaults(Tiny), sw, hw, 30_000_000)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := ExecuteWithFaults(bench, bench.Defaults(Tiny), sw, hw, 30_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Attempts != 1 || fr.Degraded() {
		t.Errorf("nil plan: attempts %d, degraded %v", fr.Attempts, fr.Degraded())
	}
	if fr.Result.Cycles() != base.Cycles() {
		t.Errorf("nil plan cycles %d != plain Execute cycles %d", fr.Result.Cycles(), base.Cycles())
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
