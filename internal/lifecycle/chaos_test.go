package lifecycle_test

// Chaos soak: random fault schedules (kills, injected panics) crossed with
// random cancel points and short wall budgets, driven through the real
// kernel execution stack. The assertions are the lifecycle layer's whole
// contract:
//
//   - no scenario hangs past its outer wall budget (the soak itself is
//     deadline-bounded);
//   - no partial-result corruption: a run either returns a result that
//     passed the reference check, or a classifiable error and no result;
//   - every failure is structured — a *lifecycle.RunError naming its cell,
//     or an interrupt the classifier recognizes;
//   - the sweep journal stays replayable no matter where a sweep is cut.
//
// The RNG is seeded so a failure reproduces; runs under -race in CI.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/harness"
	"rockcress/internal/kernels"
	"rockcress/internal/lifecycle"
)

// soakTimeout bounds one scenario; anything slower is a hang, which is
// exactly what the lifecycle layer exists to prevent.
const soakTimeout = 120 * time.Second

func chaosScale(t *testing.T) kernels.Scale {
	t.Helper()
	s, err := kernels.ParseScale("tiny")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChaosSoak runs the randomized schedule x cancel-point matrix.
func TestChaosSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(0x50AC))
	scale := chaosScale(t)
	hw := config.ManycoreDefault()
	benchNames := []string{"gemm", "mvt"}
	cfgNames := []string{"NV", "V4"}

	const iters = 12
	for i := 0; i < iters; i++ {
		bench, err := kernels.Get(benchNames[rng.Intn(len(benchNames))])
		if err != nil {
			t.Fatal(err)
		}
		sw, err := config.Preset(cfgNames[rng.Intn(len(cfgNames))])
		if err != nil {
			t.Fatal(err)
		}

		// Fault schedule: nothing, a kill, an injected panic, or both.
		var plan *fault.Plan
		cycle := func() int64 { return 100 + rng.Int63n(20_000) }
		tile := func() int { return rng.Intn(hw.Cores) }
		switch rng.Intn(4) {
		case 1:
			plan = &fault.Plan{Events: []fault.Event{
				{Kind: fault.KillTile, Cycle: cycle(), Tile: tile()}}}
		case 2:
			plan = &fault.Plan{Events: []fault.Event{
				{Kind: fault.PanicTile, Cycle: cycle(), Tile: tile()}}}
		case 3:
			plan = &fault.Plan{Events: []fault.Event{
				{Kind: fault.KillTile, Cycle: cycle(), Tile: tile()},
				{Kind: fault.PanicTile, Cycle: cycle(), Tile: tile()}}}
		}

		// Interference: none, a cancel at a random point, a pre-canceled
		// context, or a wall budget too short for most runs.
		opts := kernels.ExecOpts{Ctx: context.Background()}
		var cleanup func()
		switch rng.Intn(4) {
		case 1:
			ctx, cancel := context.WithCancel(context.Background())
			opts.Ctx = ctx
			timer := time.AfterFunc(time.Duration(rng.Intn(10_000))*time.Microsecond, cancel)
			cleanup = func() { timer.Stop(); cancel() }
		case 2:
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			opts.Ctx = ctx
		case 3:
			opts.WallBudget = time.Duration(1+rng.Intn(10)) * time.Millisecond
		}

		label := fmt.Sprintf("iter %d: %s/%s plan=%v budget=%v",
			i, bench.Info().Name, sw.Name, plan, opts.WallBudget)

		type outcome struct {
			fr  *kernels.FaultResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			fr, err := kernels.ExecuteWithFaultsOpts(bench, bench.Defaults(scale), sw, hw, plan, opts)
			done <- outcome{fr, err}
		}()
		var out outcome
		select {
		case out = <-done:
		case <-time.After(soakTimeout):
			t.Fatalf("%s: hang past %v", label, soakTimeout)
		}
		if cleanup != nil {
			cleanup()
		}

		if out.err == nil {
			// Success path: the result exists and already passed the
			// serial-reference check inside the executor.
			if out.fr == nil || out.fr.Result == nil {
				t.Fatalf("%s: nil result without error", label)
			}
			continue
		}
		// Failure path: no torn result may escape alongside the error.
		if out.fr != nil {
			t.Fatalf("%s: partial result alongside error %v", label, out.err)
		}
		var re *lifecycle.RunError
		structured := errors.As(out.err, &re)
		interrupted := lifecycle.Interrupted(out.err) || lifecycle.WallBudget(out.err)
		if !structured && !interrupted {
			t.Fatalf("%s: unclassifiable failure %T: %v", label, out.err, out.err)
		}
		if structured && (re.Kernel == "" || re.Config == "" || re.Attempt == 0) {
			t.Fatalf("%s: RunError missing cell identity: %+v", label, re)
		}
	}
}

// TestChaosTopologySoak is the permanent-fault variant of the soak: random
// campaigns of link cuts, router kills, bank decommissions and DRAM
// degradation crossed with random cancel points, wall budgets and engine
// widths. A campaign may partition the mesh or bury a tile a group needed —
// the contract is the same either way: a correct result, or a structured
// (or interrupt-classified) error with no torn result, never a hang.
func TestChaosTopologySoak(t *testing.T) {
	rng := rand.New(rand.NewSource(0x70B0))
	scale := chaosScale(t)
	hw := config.ManycoreDefault()
	benchNames := []string{"gemm", "mvt"}
	cfgNames := []string{"NV", "V4"}

	const iters = 12
	for i := 0; i < iters; i++ {
		bench, err := kernels.Get(benchNames[rng.Intn(len(benchNames))])
		if err != nil {
			t.Fatal(err)
		}
		sw, err := config.Preset(cfgNames[rng.Intn(len(cfgNames))])
		if err != nil {
			t.Fatal(err)
		}

		// Campaign: seeded cut/kill plans so a failing iteration replays
		// from the logged label alone.
		seed := rng.Uint64()
		start := 100 + rng.Int63n(5_000)
		plan := fault.LinkPlan(seed, 1+rng.Intn(3), hw.MeshWidth, hw.MeshHeight, start, 101)
		if rng.Intn(2) == 0 {
			plan = fault.Merge(plan, fault.BankPlan(seed, 1+rng.Intn(2), hw.LLCBanks, start+50, 101))
		}
		if rng.Intn(3) == 0 {
			plan = fault.Merge(plan, &fault.Plan{Events: []fault.Event{
				{Kind: fault.KillRouter, Cycle: start + 200, Tile: rng.Intn(hw.Cores)}}})
		}
		if rng.Intn(3) == 0 {
			plan = fault.Merge(plan, &fault.Plan{Events: []fault.Event{
				{Kind: fault.DramDegrade, Cycle: start, Factor: 1.5 + rng.Float64()}}})
		}

		opts := kernels.ExecOpts{Ctx: context.Background()}
		var cleanup func()
		switch rng.Intn(3) {
		case 1:
			ctx, cancel := context.WithCancel(context.Background())
			opts.Ctx = ctx
			timer := time.AfterFunc(time.Duration(rng.Intn(10_000))*time.Microsecond, cancel)
			cleanup = func() { timer.Stop(); cancel() }
		case 2:
			opts.WallBudget = time.Duration(1+rng.Intn(10)) * time.Millisecond
		}

		label := fmt.Sprintf("iter %d: %s/%s plan=%v budget=%v",
			i, bench.Info().Name, sw.Name, plan, opts.WallBudget)

		type outcome struct {
			fr  *kernels.FaultResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			fr, err := kernels.ExecuteWithFaultsOpts(bench, bench.Defaults(scale), sw, hw, plan, opts)
			done <- outcome{fr, err}
		}()
		var out outcome
		select {
		case out = <-done:
		case <-time.After(soakTimeout):
			t.Fatalf("%s: hang past %v", label, soakTimeout)
		}
		if cleanup != nil {
			cleanup()
		}

		if out.err == nil {
			if out.fr == nil || out.fr.Result == nil {
				t.Fatalf("%s: nil result without error", label)
			}
			continue
		}
		if out.fr != nil {
			t.Fatalf("%s: partial result alongside error %v", label, out.err)
		}
		var re *lifecycle.RunError
		structured := errors.As(out.err, &re)
		interrupted := lifecycle.Interrupted(out.err) || lifecycle.WallBudget(out.err)
		if !structured && !interrupted {
			t.Fatalf("%s: unclassifiable failure %T: %v", label, out.err, out.err)
		}
	}
}

// TestChaosPanicRecovered pins the containment story end to end: an injected
// panic mid-run is contained (process survives), attributed, and the
// recovery ladder restarts around it to a correct result.
func TestChaosPanicRecovered(t *testing.T) {
	scale := chaosScale(t)
	bench, err := kernels.Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.PanicTile, Cycle: 2_000, Tile: 5}}}
	fr, err := kernels.ExecuteWithFaultsOpts(bench, bench.Defaults(scale), sw,
		config.ManycoreDefault(), plan, kernels.ExecOpts{})
	if err != nil {
		t.Fatalf("panic not recovered: %v", err)
	}
	if fr.Attempts < 2 {
		t.Fatalf("expected a restart after the contained panic, got %d attempt(s)", fr.Attempts)
	}
}

// TestChaosJournalReplayable cuts journaled sweeps at random points and
// requires every resulting journal to load cleanly with every recorded
// result still unmarshaling — the replayability guarantee -resume stands on.
func TestChaosJournalReplayable(t *testing.T) {
	rng := rand.New(rand.NewSource(0x10AD))
	scale := chaosScale(t)
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		path := filepath.Join(dir, fmt.Sprintf("sweep%d.journal", i))
		j, err := lifecycle.CreateJournal(path, map[string]string{"scale": "tiny"})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Duration(rng.Intn(40))*time.Millisecond, cancel)
		r := harness.New(harness.Options{
			Scale: scale, Out: io.Discard, Jobs: 2, Journal: j,
			Ctx: ctx,
		})
		for _, bn := range []string{"gemm", "mvt"} {
			bench, err := kernels.Get(bn)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []string{"NV", "V4"} {
				// Errors are expected once the cancel lands; the journal must
				// stay replayable regardless.
				_, _ = r.RunNamed(bench, cfg, nil)
			}
		}
		timer.Stop()
		cancel()
		if err := j.Close(); err != nil {
			t.Fatalf("journal %d: close: %v", i, err)
		}
		_, entries, err := lifecycle.LoadJournal(path)
		if err != nil {
			t.Fatalf("journal %d not replayable: %v", i, err)
		}
		for _, e := range entries {
			if e.Err != "" {
				continue
			}
			var res kernels.Result
			if err := json.Unmarshal(e.Result, &res); err != nil {
				t.Fatalf("journal %d: entry %s corrupt: %v", i, e.Key, err)
			}
		}
	}
}
