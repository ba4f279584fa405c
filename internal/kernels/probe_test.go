package kernels

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/lifecycle"
	"rockcress/internal/sim"
)

// everyFlipBites is the exhaustive walk the dry run replaced: no candidate
// is ruled out, so the search simulates them one by one as the parent did.
// It exists only as the tests' reference.
func everyFlipBites(_ Benchmark, _ Params, _ config.Software, _ config.Manycore, _ ExecOpts,
	_ int, cands []flipCand) ([]bool, error) {
	bites := make([]bool, len(cands))
	for i := range bites {
		bites[i] = true
	}
	return bites, nil
}

// coreTicks is the core stage's tick count in an engine self-profile: the
// cycles actually simulated, whatever the host's speed.
func coreTicks(t *testing.T, prof *sim.Prof) int64 {
	t.Helper()
	for i := range prof.Stages {
		if prof.Stages[i].Name == "cores" {
			return prof.Stages[i].Ticks
		}
	}
	t.Fatal("profile has no cores stage")
	return 0
}

// sameProbe fails unless two searches returned the same outcome: the plan,
// the rung, both runs' cycle totals and the ladder run's per-attempt detail
// and merged fault report — or the same error.
func sameProbe(t *testing.T, what string, got *LadderProbe, gotErr error, want *LadderProbe, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, want %v", what, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got.Plan, want.Plan) || got.Rung != want.Rung {
		t.Errorf("%s: %s rung on %v, want %s rung on %v", what, got.Rung, got.Plan, want.Rung, want.Plan)
	}
	if got.Ladder.TotalCycles != want.Ladder.TotalCycles || got.Restart.TotalCycles != want.Restart.TotalCycles {
		t.Errorf("%s: ladder %d / restart %d cycles, want %d / %d", what,
			got.Ladder.TotalCycles, got.Restart.TotalCycles, want.Ladder.TotalCycles, want.Restart.TotalCycles)
	}
	if !reflect.DeepEqual(got.Ladder.Ladder, want.Ladder.Ladder) {
		t.Errorf("%s: attempts %+v, want %+v", what, got.Ladder.Ladder, want.Ladder.Ladder)
	}
	if !reflect.DeepEqual(got.Ladder.Report, want.Ladder.Report) {
		t.Errorf("%s: fault report %+v, want %+v", what, got.Ladder.Report, want.Ladder.Report)
	}
}

// TestReplayProbeMatchesExhaustive is the dry run's licence: on every cell
// the search that simulates only the candidates FlipWouldPoison lets through
// returns what the walk over all 284 returns. mvt and gemm under V4 run in
// tier-1; the 15 kernels x {V4, V16} survey (about half a minute, two cells
// exhaust the list) runs on request:
//
//	ROCKCRESS_PROBE_SURVEY=1 go test -run TestReplayProbeMatchesExhaustive ./internal/kernels
func TestReplayProbeMatchesExhaustive(t *testing.T) {
	benches, cfgs := []string{"mvt", "gemm"}, []string{"V4"}
	if os.Getenv("ROCKCRESS_PROBE_SURVEY") != "" {
		benches, cfgs = nil, []string{"V4", "V16"}
		for _, b := range PolyBench() {
			benches = append(benches, b.Info().Name)
		}
	}
	hw := config.ManycoreDefault()
	for _, cn := range cfgs {
		sw, err := config.Preset(cn)
		if err != nil {
			t.Fatal(err)
		}
		for _, bn := range benches {
			b, err := Get(bn)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(bn+"/"+cn, func(t *testing.T) {
				p := b.Defaults(Tiny)
				var fast, slow sim.Prof
				got, gotErr := ProbeReplayWinOpts(b, p, sw, hw, ExecOpts{MaxCycles: replayMaxCycles, Prof: &fast})
				want, wantErr := probeReplayWin(b, p, sw, hw, ExecOpts{MaxCycles: replayMaxCycles, Prof: &slow}, everyFlipBites)
				sameProbe(t, "dry-run search vs exhaustive walk", got, gotErr, want, wantErr)
				t.Logf("core-stage ticks: %d with the dry run, %d exhaustive", coreTicks(t, &fast), coreTicks(t, &slow))
			})
		}
	}
}

// TestReplayProbeCost pins the redundancy out by count, not by clock: the
// whole search — base run, dry run, the trials the verdicts demand, the
// restart baseline — ticks the core stage a fixed number of times. The
// parent's walk cost 113 050 ticks on mvt/V4 (33 full runs) and 121 247 on
// gemm/V4 (87).
func TestReplayProbeCost(t *testing.T) {
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	hw := config.ManycoreDefault()
	for _, c := range []struct {
		bench string
		limit int64
	}{{"mvt", 20_000}, {"gemm", 9_000}} {
		b, err := Get(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		var prof sim.Prof
		if _, err := ProbeReplayWinOpts(b, b.Defaults(Tiny), sw, hw,
			ExecOpts{MaxCycles: replayMaxCycles, Prof: &prof}); err != nil {
			t.Fatal(err)
		}
		if got := coreTicks(t, &prof); got > c.limit {
			t.Errorf("%s/V4 search ticked the core stage %d times, want <= %d: "+
				"it is simulating candidates the dry run rules out", c.bench, got, c.limit)
		}
	}
}

// TestProbeStopsOnHostLimits pins which failed trials end the search: a
// cancelled or timed-out context and an exhausted wall budget do, however
// deeply the ladder wrapped them — scoring those as "the flip did not bite"
// would let host speed pick the plan — while a trial that merely went wrong
// is skipped.
func TestProbeStopsOnHostLimits(t *testing.T) {
	// As a run that dies at a watchdog checkpoint reaches the search: the
	// machine's RunError with the ladder's cell identity added.
	wrap := func(err error) error {
		return lifecycle.WrapRun("mvt", "V4", 2, &lifecycle.RunError{Cycle: 2048, Tile: -1, Err: fmt.Errorf("machine: %w", err)})
	}
	for _, c := range []struct {
		name string
		err  error
		want bool
	}{
		{"wall budget", wrap(lifecycle.ErrWallBudget), true},
		{"deadline", wrap(fmt.Errorf("run canceled: %w", context.DeadlineExceeded)), true},
		{"cancel", wrap(context.Canceled), true},
		{"wrong result", errors.New("mvt/V4: wrong result with no fault consumed (not repairable by restart)"), false},
		{"run failure", wrap(errors.New("no completion after 100 cycles")), false},
	} {
		if got := stopsSearch(c.err); got != c.want {
			t.Errorf("%s: stopsSearch(%v) = %v, want %v", c.name, c.err, got, c.want)
		}
	}
}
