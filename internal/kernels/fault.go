package kernels

import (
	"fmt"
	"slices"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/lifecycle"
	"rockcress/internal/machine"
)

// AttemptInfo records one rung of the recovery ladder: what a single
// machine attempt cost and how it recovered, read off the attempt's
// stats.Machine.
type AttemptInfo struct {
	Cycles         int64
	FromCheckpoint bool  // resumed from a published snapshot, not the image
	FrameReplays   int64 // poisoned frames repaired in-run
	ReplayRetries  int64
	Checkpoints    int64 // snapshots published during the attempt
}

// FaultResult is the outcome of a run through the recovery ladder: the final
// (correct) result plus how the harness got there. TotalCycles includes the
// cycles burned by aborted attempts — the price of degradation the fault
// figure plots. A fault-free run has one attempt and no Report or Ladder.
type FaultResult struct {
	*Result
	Report       *fault.Report
	Attempts     int   // machine runs, including the final successful one
	TotalCycles  int64 // cycles summed over every attempt
	MIMDFallback bool  // vector groups could not re-form; finished in MIMD

	// Recovery ladder: in-run frame replays, restarts resumed from a
	// checkpoint, restarts from the initial image, and the per-attempt
	// detail.
	FrameReplays       int64
	CheckpointRestarts int
	FullRestarts       int
	Ladder             []AttemptInfo
}

// ExecuteWithFaultsOpts runs benchmark b under a fault schedule and degrades
// gracefully: when an attempt loses tiles (broken groups, killed workers) or
// produces wrong output, the harness re-forms the fabric around the dead
// tiles — vector groups via config.Reform, or a dense-ranked MIMD partition
// when no complete group fits — and restarts from the initial image with the
// already-fired fault events stripped from the plan. It returns once an
// attempt completes with output matching the serial reference. A nil or
// empty plan is the fault-free run.
func ExecuteWithFaultsOpts(b Benchmark, p Params, sw config.Software, hw config.Manycore,
	plan *fault.Plan, opts ExecOpts) (*FaultResult, error) {
	if sw.Style == config.StyleGPU && plan != nil && len(plan.Events) > 0 {
		return nil, fmt.Errorf("%s/GPU: fault injection targets the manycore fabric", b.Info().Name)
	}
	fr := &FaultResult{}
	if err := execute(b, p, sw, hw, plan, opts, fr); err != nil {
		return nil, err
	}
	return fr, nil
}

// executeFaultLadder is the recovery ladder, into fr. Under a nil or empty
// plan it is one rung with no recovery instrumentation: the fault-free run.
// restart selects the whole-run-restart baseline (see trial.restart).
// opts.MaxCycles must be set.
func executeFaultLadder(b Benchmark, p Params, sw config.Software, hw config.Manycore,
	plan *fault.Plan, opts ExecOpts, tok int, restart bool, fr *FaultResult) error {
	name := b.Info().Name
	hw = sw.Apply(hw)
	cur := plan
	if cur != nil && len(cur.Events) == 0 {
		cur = nil
	}
	var avoid []int
	mimd := false
	// One wall budget covers the whole recovery ladder, not each attempt:
	// a pathological restart loop is exactly what the budget must bound.
	ctx, cancel := lifecycle.WithWallBudget(opts.Ctx, opts.WallBudget)
	defer cancel()
	opts.Ctx = ctx
	// Latest published checkpoint, carried across attempts. The ladder owns
	// its image: it recycles one once a newer checkpoint replaces it or the
	// ladder ends.
	var snap *machine.Checkpoint
	var snapSites int
	defer func() { recycleSnap(snap) }()
	// One attempt per core is a generous upper bound: every restart either
	// succeeds or buries at least one more tile.
	for attempt := 1; attempt <= hw.Cores; attempt++ {
		fr.Attempts = attempt
		opts.Obs.Run().SetAttempt(tok, attempt)
		// Cancellation and the wall budget also gate restarts, so an
		// interrupted ladder stops between attempts, not just mid-run.
		if err := opts.stopBefore(name, sw.Name, attempt); err != nil {
			return err
		}
		groups, ctxAvoid, err := degradedLayout(sw, hw, avoid, mimd)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", name, sw.Name, err)
		}
		if sw.Style == config.StyleVector && len(groups) == 0 {
			mimd = true
			groups, ctxAvoid = nil, avoid
		}
		buildSW := sw
		if mimd && sw.Style == config.StyleVector {
			// Survivors fall back to plain MIMD: same kernel, NV-style build.
			buildSW = config.Software{Name: sw.Name + "-mimd", Style: config.StyleNV, VLen: 1}
		}
		// Restart from the last checkpoint when one is compatible with this
		// attempt's build; otherwise from the initial image.
		a := trial{n: attempt, plan: cur, restart: restart, avoid: ctxAvoid,
			snap: snap, snapSites: snapSites}
		if err := a.run(b, p, sw, buildSW, hw, groups, opts); err != nil {
			return err
		}
		m, runErr, restored := a.m, a.runErr, a.restored
		if restored {
			fr.CheckpointRestarts++
		} else if attempt > 1 {
			fr.FullRestarts++
		}
		fr.TotalCycles += m.Now()
		rep := m.FaultReport()
		lost := mergeReport(fr, rep)
		if rep != nil {
			info := AttemptInfo{Cycles: m.Now(), FromCheckpoint: restored, Checkpoints: a.st.Checkpoints}
			for i := range a.st.Cores {
				info.FrameReplays += a.st.Cores[i].FrameReplays
				info.ReplayRetries += a.st.Cores[i].ReplayRetries
			}
			fr.Ladder = append(fr.Ladder, info)
			fr.FrameReplays += info.FrameReplays
		}
		if ck := m.Checkpoint(); ck != nil {
			recycleSnap(snap)
			snap, snapSites = ck, a.sites
		}
		checkErr := runErr
		if checkErr == nil {
			checkErr = a.img.Check(m.Global)
		}
		var res *Result
		if checkErr == nil {
			res = a.result(name, p, sw, hw, groups)
		}
		// Every reader of the machine is done, and a published checkpoint is
		// a copy, not a view: park its slabs for the next attempt or cell.
		m.Recycle()
		if res != nil {
			fr.Result, fr.MIMDFallback = res, mimd
			return nil
		}
		if cur == nil {
			// Fault-free: no fault to blame, nothing a restart could repair.
			if runErr != nil {
				return lifecycle.WrapRun(name, sw.Name, attempt, runErr)
			}
			return fmt.Errorf("%s/%s: wrong result: %w", name, sw.Name, checkErr)
		}
		// A run that completed but wrong had a fault corrupt data or kill a
		// worker whose partition never ran. Restart on the degraded fabric.
		//
		// Restart only makes progress when the fabric shrank or the plan did
		// (fired events — kills, flips, exhausted link windows — are stripped
		// so the replay cannot hit them again). Permanent topology events are
		// the exception: a restarted machine is built fresh, so stripping a
		// fired cutlink/killrouter/killbank would HEAL the fabric the previous
		// attempt lost. Those carry over at cycle 0 (idempotent machine-side),
		// and because they re-fire and re-carry every attempt they never count
		// as consumed plan work in the progress check below.
		nBefore := len(cur.Events)
		if rep != nil {
			carried := carryTopology(cur, rep.Fired)
			cur = cur.Without(rep.Fired)
			if len(carried) > 0 {
				cur = &fault.Plan{Seed: cur.Seed, Events: append(carried, cur.Events...)}
			}
		}
		if lost == 0 && len(cur.Events) == nBefore {
			if restored {
				// The snapshot itself may be the problem (kernel state the
				// memory image cannot capture, or corruption published
				// before the integrity layer saw it): discard it and take
				// one restart from the initial image before giving up.
				recycleSnap(snap)
				snap = nil
				continue
			}
			if runErr != nil {
				// Failed without consuming any fault: restarting cannot help.
				return lifecycle.WrapRun(name, sw.Name, attempt, runErr)
			}
			return fmt.Errorf("%s/%s: wrong result with no fault consumed (not repairable by restart)",
				name, sw.Name)
		}
		avoid = append([]int(nil), fr.Report.DeadTiles...)
	}
	return fmt.Errorf("%s/%s: no fault-free attempt within %d restarts", name, sw.Name, fr.Attempts)
}

// recycleSnap parks a checkpoint's image once the ladder is done with it.
func recycleSnap(ck *machine.Checkpoint) {
	if ck != nil {
		ck.Image.Recycle()
	}
}

// degradedLayout picks the group layout for an attempt: full-health layouts
// on the first try, Reform around dead tiles after, nil groups for MIMD.
func degradedLayout(sw config.Software, hw config.Manycore, avoid []int, mimd bool) ([]*config.Group, []int, error) {
	if sw.Style != config.StyleVector || mimd {
		return nil, avoid, nil
	}
	if len(avoid) == 0 {
		g, err := GroupsFor(sw, hw)
		return g, nil, err
	}
	g, err := config.Reform(hw, sw.VLen, avoid)
	return g, nil, err
}

// carryTopology extracts the fired permanent events (fault.Event.Permanent:
// cut links, dead routers, dead banks, and unbounded DRAM degradation)
// rescheduled to cycle 0 so the next attempt's fresh machine re-applies them
// before any work issues. Windowed DRAM degradation is transient and is not
// carried.
func carryTopology(p *fault.Plan, fired []int) []fault.Event {
	var out []fault.Event
	for _, i := range fired {
		if i < 0 || i >= len(p.Events) || !p.Events[i].Permanent() {
			continue
		}
		e := p.Events[i]
		e.Cycle = 0
		out = append(out, e)
	}
	return out
}

// mergeReport folds one attempt's fault record into the ladder's and
// returns how many tiles the attempt newly lost. Topology losses (tiles,
// links, routers, banks) dedupe across attempts — carried-over events re-fire
// on every restart — broken groups append, and the stuck-queue and
// escalation counts add up. Every other count is the attempt's stats.Machine.
func mergeReport(fr *FaultResult, rep *fault.Report) int {
	if rep == nil {
		return 0
	}
	if fr.Report == nil {
		fr.Report = &fault.Report{}
	}
	r := fr.Report
	before := len(r.DeadTiles)
	r.DeadTiles = union(r.DeadTiles, rep.DeadTiles)
	r.CutLinks = union(r.CutLinks, rep.CutLinks)
	r.DeadRouters = union(r.DeadRouters, rep.DeadRouters)
	r.DeadBanks = union(r.DeadBanks, rep.DeadBanks)
	r.BrokenGroups = append(r.BrokenGroups, rep.BrokenGroups...)
	r.StuckQueues += rep.StuckQueues
	r.ReplayEscalations += rep.ReplayEscalations
	return len(r.DeadTiles) - before
}

// union appends the elements of src that dst lacks, in src order.
func union[T comparable](dst, src []T) []T {
	for _, v := range src {
		if !slices.Contains(dst, v) {
			dst = append(dst, v)
		}
	}
	return dst
}
