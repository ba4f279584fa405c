package kernels

import (
	"cmp"
	"fmt"
	"slices"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/lifecycle"
)

// LadderProbe is the outcome of a recovery-ladder comparison for one kernel:
// a fault schedule that demonstrably bites, the run repaired by the ladder,
// and the same schedule absorbed by whole-run restarts only.
type LadderProbe struct {
	Plan    *fault.Plan
	Rung    string // "replay" or "checkpoint": the ladder rung that repaired it
	Ladder  *FaultResult
	Restart *FaultResult
}

// ProbeReplayWinOpts searches for a fault schedule on which the recovery
// ladder strictly beats the whole-run-restart baseline, and returns both
// runs.
//
// It first looks, among a fixed list of single bit flips over injection
// cycles and frame offsets, for one that poisons an in-flight vload frame: a
// flip only bites when it lands on an already-arrived word of a frame still
// to be verified, so the list needs fine cycle granularity and offsets
// spanning several frame slots (slot stride is frameWords*4 bytes). One dry
// run of the ladder's first rung (flipVerdicts) tells which candidates can
// bite; only those are simulated. For kernels that never stream data through
// scratchpad frames (gramschm reads everything via global gathers, paper
// sec. 6.2) no flip can bite; the probe falls back to killing a lane so the
// checkpoint rung carries the comparison. Returns an error if neither rung
// can demonstrate a strict win.
//
// Ctx and WallBudget bound every execution the search performs. The whole
// search is one sweep cell on opts.Obs.
func ProbeReplayWinOpts(b Benchmark, p Params, sw config.Software, hw config.Manycore,
	opts ExecOpts) (*LadderProbe, error) {
	return probeReplayWin(b, p, sw, hw, opts, flipVerdicts)
}

// flipCand is one candidate flip of the search: inject at cycle, at byte
// offset off of the victim lane's scratchpad.
type flipCand struct {
	cycle int64
	off   uint32
}

// flipCandidates lists the search's flips in visiting order. List and order
// are frozen: which plan the search returns — and with it Figure R and the
// fault_tiny workload's cycle counts — depends on both.
func flipCandidates(baseCycles int64) []flipCand {
	var cands []flipCand
	// Coarse pass: a handful of cycles, head-slot offsets.
	for _, fr := range [][2]int64{{1, 3}, {1, 2}, {1, 4}, {2, 3}, {1, 6}, {3, 4}, {5, 6}, {1, 8}, {7, 8}} {
		for _, off := range []uint32{0, 4, 16, 32} {
			cands = append(cands, flipCand{baseCycles * fr[0] / fr[1], off})
		}
	}
	// Fine pass: i/32 cycle sweep crossed with offsets spanning the frame
	// queue, for kernels whose frames verify quickly or whose flip must hit a
	// deeper slot.
	for i := int64(1); i < 32; i++ {
		for _, off := range []uint32{0, 64, 128, 192, 256, 320, 384, 448} {
			cands = append(cands, flipCand{baseCycles * i / 32, off})
		}
	}
	return cands
}

// flipPlan builds a single-event silent-corruption plan: one bit flip in
// tile's scratchpad at the given cycle and byte offset. Bit 30 lands in a
// float's exponent, so a consumed flip always moves the result far outside
// the checker's tolerance.
func flipPlan(cycle int64, tile int, off uint32) *fault.Plan {
	return &fault.Plan{Events: []fault.Event{
		{Kind: fault.FlipSpadWord, Cycle: cycle, Tile: tile, Offset: off, Bit: 30},
	}}
}

// stopsSearch reports whether a failed execution ends the whole search
// rather than just ruling its schedule out: the caller cancelled, or host
// time ran out. Scoring either as "this fault did not bite" would make the
// plan the search returns depend on how fast the host is.
func stopsSearch(err error) bool {
	return lifecycle.Interrupted(err) || lifecycle.WallBudget(err)
}

// verdictFunc answers, for every candidate at once, whether its flip can
// poison a frame of the victim tile's scratchpad. The search takes it as a
// parameter so the tests can run the exhaustive walk as their reference.
type verdictFunc func(b Benchmark, p Params, sw config.Software, hw config.Manycore, opts ExecOpts,
	victim int, cands []flipCand) ([]bool, error)

// flipVerdicts is the search's verdictFunc. Whether a flip can poison a
// frame depends only on the victim scratchpad's state at the flip's cycle in
// a run where nothing has fired yet, and every candidate's trial shares that
// prefix, so one dry run of it serves them all: the ladder's first rung,
// built by the same trial path, with a flip armed at a cycle it never
// reaches (the fault-free base run is not the prefix: the instrumented build
// runs different cycles), stopped at each candidate cycle in ascending order
// to ask the scratchpad what a flip landing there would do
// (mem.Scratchpad.FlipWouldPoison). A candidate the dry run cannot reach —
// it failed, or every core halted first — cannot bite either: its trial fails
// the same way, or flips a word nobody will open.
//
// A false verdict means the trial's parity checks all pass, so it reports no
// frame replay and tryFlip would discard it; a true one is only a candidate.
// The dry run is a measurement, not a cell: no trace sink, plane or causal
// recorder sees it. opts.MaxCycles must be set.
func flipVerdicts(b Benchmark, p Params, sw config.Software, hw config.Manycore, opts ExecOpts,
	victim int, cands []flipCand) ([]bool, error) {
	bites := make([]bool, len(cands))
	hw = sw.Apply(hw)
	groups, err := GroupsFor(sw, hw)
	if err != nil {
		return nil, err
	}
	opts.Trace, opts.Obs, opts.Causal = nil, nil, false
	a := trial{n: 1, plan: flipPlan(opts.MaxCycles, victim, 0), wallDeadline: opts.wallDeadline()}
	if err := a.build(b, p, sw, sw, hw, groups, opts); err != nil {
		return bites, nil // so does every trial's build
	}
	defer a.m.Recycle()
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(cands[i].cycle, cands[j].cycle) })
	spad := a.m.Spad(victim)
	for _, i := range order {
		if err := a.m.RunUntil(cands[i].cycle); err != nil {
			if stopsSearch(err) {
				return nil, wrapRun(b.Info().Name, sw.Name, 1, err)
			}
			break
		}
		if a.m.Now() < cands[i].cycle {
			break
		}
		bites[i] = spad.FlipWouldPoison(cands[i].off)
	}
	return bites, nil
}

// probeReplayWin is the search; verdicts is flipVerdicts, or the tests'
// stand-in that rules nothing out.
func probeReplayWin(b Benchmark, p Params, sw config.Software, hw config.Manycore, opts ExecOpts,
	verdicts verdictFunc) (pr *LadderProbe, err error) {
	if opts.MaxCycles == 0 {
		opts.MaxCycles = DefaultMaxCycles
	}
	groups, err := GroupsFor(sw, sw.Apply(hw))
	if err != nil {
		return nil, err
	}
	if len(groups) == 0 || len(groups[0].Lanes) == 0 {
		return nil, fmt.Errorf("%s: no vector lanes to probe", sw.Name)
	}
	victim := groups[0].Lanes[len(groups[0].Lanes)-1]
	// One cell for the whole search: the base run, every trial and every
	// restart baseline report under this token, rungs through SetAttempt.
	tok := opts.Obs.Run().Begin(b.Info().Name, cellConfig(opts, sw, hw))
	defer func() { opts.Obs.Run().End(tok, err) }()
	// ladder is one run of the search; restart selects the baseline.
	ladder := func(plan *fault.Plan, restart bool) (*FaultResult, error) {
		fr := &FaultResult{}
		return fr, executeFaultLadder(b, p, sw, hw, plan, opts, tok, restart, fr)
	}
	base, err := ladder(nil, false)
	if err != nil {
		return nil, err
	}
	baseCycles := base.Cycles()

	tryFlip := func(c flipCand) (*LadderProbe, error) {
		plan := flipPlan(c.cycle, victim, c.off)
		lad, err := ladder(plan, false)
		if err != nil {
			// Any failed flip but one that ends the search is just not the
			// scenario under test.
			if stopsSearch(err) {
				return nil, err
			}
			return nil, nil
		}
		if lad.FrameReplays < 1 || lad.Attempts != 1 || lad.Report.Degraded() {
			// Flip not caught as a poisoned frame (overwritten before
			// verification, data region, or escalated): not the scenario
			// under test.
			return nil, nil
		}
		rst, err := ladder(plan, true)
		if err != nil {
			return nil, fmt.Errorf("restart baseline: %w", err)
		}
		if rst.TotalCycles <= lad.TotalCycles {
			// The baseline shrugged this flip off (its uninstrumented build
			// never consumed the corrupt word): it cannot witness the
			// ladder's advantage.
			return nil, nil
		}
		return &LadderProbe{Plan: plan, Rung: "replay", Ladder: lad, Restart: rst}, nil
	}
	// A kernel that never consumes a frame in its fault-free run has nothing
	// the parity check protects: skip the flip sweep entirely.
	var frames int64
	for i := range base.Stats.Cores {
		frames += base.Stats.Cores[i].FramesConsumed
	}
	if frames > 0 {
		cands := flipCandidates(baseCycles)
		bites, err := verdicts(b, p, sw, hw, opts, victim, cands)
		if err != nil {
			return nil, err
		}
		for i, c := range cands {
			if !bites[i] {
				continue
			}
			pr, err := tryFlip(c)
			if pr != nil || err != nil {
				return pr, err
			}
		}
	}
	// No flip bites: the kernel does not stream data through frames. Kill
	// the victim instead and let the checkpoint rung carry the comparison.
	for _, fr := range [][2]int64{{3, 4}, {1, 2}, {7, 8}, {5, 8}} {
		plan := &fault.Plan{Events: []fault.Event{
			{Kind: fault.KillTile, Cycle: baseCycles * fr[0] / fr[1], Tile: victim},
		}}
		lad, err := ladder(plan, false)
		if err != nil {
			if stopsSearch(err) {
				return nil, err
			}
			continue
		}
		if lad.CheckpointRestarts < 1 {
			continue
		}
		rst, err := ladder(plan, true)
		if err != nil {
			return nil, fmt.Errorf("restart baseline: %w", err)
		}
		if rst.TotalCycles <= lad.TotalCycles {
			continue
		}
		return &LadderProbe{Plan: plan, Rung: "checkpoint", Ladder: lad, Restart: rst}, nil
	}
	return nil, fmt.Errorf("%s/%s: no fault schedule demonstrates a ladder win (base %d cycles)",
		b.Info().Name, sw.Name, baseCycles)
}
