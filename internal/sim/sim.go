// Package sim is the simulation engine the machine's cycle loop runs on. A
// cycle is a fixed sequence of stages; each stage ticks a list of shards, and
// each shard a list of components, all serially in declared order. That
// order is the whole determinism contract: the machine declares banks, mesh
// planes and cores in the order the cycle must visit them, and the engine
// visits them in exactly that order every cycle.
//
// A shard is the unit of parking: when every component in it reports that
// its next ticks are no-ops, the shard drops out of the tick loop until its
// wake cycle arrives or another component wakes it (see Sleeper, Waker).
package sim

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Never is the wake time of a component with no self-scheduled future
// event: it stays parked until some other component acts on it.
const Never = math.MaxInt64

// Component is one simulated unit owned by the engine.
type Component interface {
	// Tick advances the component one cycle. Components tick serially, in
	// declared order, so a Tick sees every earlier component's Tick of the
	// same cycle.
	Tick(now int64)
}

// Sleeper is an optional Component extension that lets the engine park a
// whole shard out of the tick loop. Park is asked after the stage ticks:
// ok means ticking the component at every cycle after now is a pure no-op
// (or a fixed-kind stall it can replay) until wakeAt arrives or another
// component acts on it — the acting side must Wake the shard through the
// Waker the machine wired. CatchUp(n) then replays the n skipped ticks'
// bookkeeping (stall accounting, internal clocks) so parking is
// bit-invisible: every counter ends exactly as n real ticks would have
// left it. A shard parks only when every component in it agrees.
type Sleeper interface {
	Component
	Park(now int64) (ok bool, wakeAt int64)
	CatchUp(n int64)
}

// Shard is an ordered list of components that park and wake together.
type Shard []Component

// shardCtl is the engine's parking state for one shard.
type shardCtl struct {
	sleepers []Sleeper // non-nil only when every component can park
	parked   bool
	parkedAt int64 // last cycle the shard's books are settled through
	wakeAt   int64
	woken    bool
}

// stageCtl aggregates one stage's parking state so a fully parked stage
// costs O(1) per cycle instead of a scan over its shards. nParked and
// minWake are recomputed whenever the stage scans its shards; woken latches
// any Waker firing on a shard of the stage and is cleared by that scan.
type stageCtl struct {
	woken   bool
	nParked int
	minWake int64
}

// Waker wakes one parked shard. Wakes latch until the shard next ticks, and
// waking an unparked shard is a no-op.
type Waker struct {
	ctl *shardCtl
	grp *stageCtl
}

// Wake marks the shard runnable at its stage's next tick.
func (w *Waker) Wake() {
	if w.ctl.parked {
		w.ctl.woken = true
		w.grp.woken = true
	}
}

// Stage is one step of the cycle: an optional prologue, the shard tick, and
// an optional epilogue. Stages run in declared order.
type Stage struct {
	Name   string
	Pre    func(now int64) // before any component of this stage ticks
	Shards []Shard
	Post   func(now int64) // after every component of this stage ticked
}

// StageMeter accumulates one stage's self-profile: how many times it ticked
// and the wall time spent inside it (Pre + shard ticks + Post).
type StageMeter struct {
	Name  string
	Ticks int64
	Ns    int64
}

func (m *StageMeter) add(d time.Duration) {
	m.Ticks++
	m.Ns += int64(d)
}

// Prof collects the engine's self-profile: per-stage wall time plus the time
// the run loop spends asking NextWake and jumping. All writes happen on the
// driving goroutine, so no locking. Attach with SetProfile; the engine pays
// one time.Now pair per stage tick only when attached.
type Prof struct {
	Stages []StageMeter
	// FastForward is the run loop's idle jump: Ns covers every ask (one per
	// loop iteration), Ticks counts the jumps taken.
	FastForward StageMeter
}

// String renders the profile as an aligned table, stages in declared order
// (the order a cycle runs them) and fast-forward last.
func (p *Prof) String() string {
	var b strings.Builder
	var total int64
	for i := range p.Stages {
		total += p.Stages[i].Ns
	}
	total += p.FastForward.Ns
	row := func(m *StageMeter) {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(m.Ns) / float64(total)
		}
		per := 0.0
		if m.Ticks > 0 {
			per = float64(m.Ns) / float64(m.Ticks)
		}
		fmt.Fprintf(&b, "  %-14s %12d ticks %12.1fms %8.1f%% %8.0fns/tick\n",
			m.Name, m.Ticks, float64(m.Ns)/1e6, pct, per)
	}
	b.WriteString("engine profile:\n")
	for i := range p.Stages {
		row(&p.Stages[i])
	}
	if p.FastForward.Ticks > 0 {
		row(&p.FastForward)
	}
	return b.String()
}

// Engine drives the stages.
type Engine struct {
	stages []Stage
	prof   *Prof

	// Per-stage, per-shard parking state and wakers, plus the per-stage
	// aggregates. ctls and wakers are carved from one slab each.
	ctls   [][]shardCtl
	wakers [][]Waker
	groups []stageCtl
}

// NewEngine builds an engine over the given stages.
func NewEngine(stages []Stage) *Engine {
	e := &Engine{stages: stages}
	shards, members := 0, 0
	for si := range stages {
		shards += len(stages[si].Shards)
		for _, sh := range stages[si].Shards {
			members += len(sh)
		}
	}
	ctls := make([]shardCtl, shards)
	wakers := make([]Waker, shards)
	sleepers := make([]Sleeper, 0, members)
	e.ctls = make([][]shardCtl, len(stages))
	e.wakers = make([][]Waker, len(stages))
	e.groups = make([]stageCtl, len(stages))
	for si := range stages {
		n := len(stages[si].Shards)
		e.ctls[si], ctls = ctls[:n:n], ctls[n:]
		e.wakers[si], wakers = wakers[:n:n], wakers[n:]
		for j, sh := range stages[si].Shards {
			ctl := &e.ctls[si][j]
			e.wakers[si][j] = Waker{ctl: ctl, grp: &e.groups[si]}
			// A shard parks only when every component can: its sleeper list
			// is the shard's piece of the slab, or nil.
			from := len(sleepers)
			for _, c := range sh {
				s, ok := c.(Sleeper)
				if !ok {
					sleepers = sleepers[:from]
					break
				}
				sleepers = append(sleepers, s)
			}
			if len(sleepers) > from {
				ctl.sleepers = sleepers[from:len(sleepers):len(sleepers)]
			}
		}
	}
	return e
}

// WakerFor returns the Waker of shard j of stage si, the order NewEngine was
// given them in. The machine wires these to the events that make a parked
// component runnable again (a mesh injection, an LLC delivery).
func (e *Engine) WakerFor(si, j int) *Waker { return &e.wakers[si][j] }

// WakeAll marks every parked shard runnable at its next stage tick. Used
// for broadcast events that can unblock many components at once — a global
// barrier release, a fault mutating state after Sync; rare, so the sweep
// cost does not matter.
func (e *Engine) WakeAll() {
	for si := range e.ctls {
		for j := range e.ctls[si] {
			e.wakers[si][j].Wake()
		}
	}
}

// NextWake answers the one question the run loop asks between ticks: when is
// the first cycle any shard can act again? While some shard is unparked, or
// a Waker has latched since its stage last ticked, that is now — the next
// cycle to execute. Once every shard of every stage is parked it is the
// earliest self-scheduled wake (Never when all wait on outside events), and
// ticking any cycle before it would run the stages' hooks and nothing else.
func (e *Engine) NextWake(now int64) int64 {
	wake := int64(Never)
	for si := range e.groups {
		grp := &e.groups[si]
		if grp.nParked != len(e.ctls[si]) || grp.woken {
			return now
		}
		wake = min(wake, grp.minWake)
	}
	return wake
}

// Sync settles every parked shard's books in place, leaving each
// component's statistics exactly as if it had ticked every cycle up to (but
// excluding) now — the next cycle to execute. Shards stay parked, wakes stay
// latched and NextWake answers as before, so a reader (telemetry sampling, a
// counter publish, final collection) may Sync between ticks without
// changing what the engine ticks or skips. A caller that goes on to mutate
// component state out of band (a fault landing) must follow with WakeAll:
// a parked shard's Park verdict is only as good as the state it was given on.
func (e *Engine) Sync(now int64) {
	for si := range e.ctls {
		for j := range e.ctls[si] {
			if ctl := &e.ctls[si][j]; ctl.parked {
				ctl.settle(now)
			}
		}
	}
}

// settle back-fills the cycles a parked shard skipped before now.
func (ctl *shardCtl) settle(now int64) {
	if n := now - ctl.parkedAt - 1; n > 0 {
		for _, s := range ctl.sleepers {
			s.CatchUp(n)
		}
		ctl.parkedAt = now - 1
	}
}

// unpark wakes one shard that will next tick at now, back-filling the
// cycles it skipped while parked.
func (ctl *shardCtl) unpark(now int64) {
	ctl.settle(now)
	ctl.parked = false
	ctl.woken = false
}

// tryPark asks a shard that just ticked at now whether all its components
// are inert; if every wake lies beyond the next cycle, the shard drops out
// of the tick loop.
func (ctl *shardCtl) tryPark(now int64) {
	wake := int64(Never)
	for _, s := range ctl.sleepers {
		ok, w := s.Park(now)
		if !ok {
			return
		}
		if w < wake {
			wake = w
		}
	}
	if wake <= now+1 {
		return
	}
	ctl.parkedAt = now
	ctl.wakeAt = wake
	ctl.woken = false
	ctl.parked = true
}

// SetProfile attaches a self-profile. The stage meter list is (re)used when
// its names already match the engine's stages — a harness can hand the same
// Prof to successive fault-run attempts and get cumulative numbers. nil
// detaches.
func (e *Engine) SetProfile(p *Prof) {
	e.prof = p
	if p == nil {
		return
	}
	p.FastForward.Name = "fast-forward"
	if e.metersMatch(p) {
		return
	}
	p.Stages = make([]StageMeter, len(e.stages))
	for i := range e.stages {
		p.Stages[i].Name = e.stages[i].Name
	}
}

// metersMatch reports whether p's stage meters name e's stages in order.
func (e *Engine) metersMatch(p *Prof) bool {
	if len(p.Stages) != len(e.stages) {
		return false
	}
	for i := range e.stages {
		if p.Stages[i].Name != e.stages[i].Name {
			return false
		}
	}
	return true
}

// Tick advances every stage one cycle.
func (e *Engine) Tick(now int64) {
	if e.prof != nil {
		for i := range e.stages {
			t0 := time.Now()
			e.tickStage(now, &e.stages[i], e.ctls[i], &e.groups[i])
			e.prof.Stages[i].add(time.Since(t0))
		}
		return
	}
	for i := range e.stages {
		e.tickStage(now, &e.stages[i], e.ctls[i], &e.groups[i])
	}
}

// tickStage runs one stage at cycle now. Parked shards are skipped unless
// their wake cycle arrived or a Waker fired; shards whose components all
// report a no-op future park afterwards. The prologue/epilogue always run —
// they carry machine-level events (fault schedules, barrier releases) whose
// cycle alignment parking must never disturb.
func (e *Engine) tickStage(now int64, st *Stage, ctls []shardCtl, grp *stageCtl) {
	if st.Pre != nil {
		st.Pre(now)
	}
	if grp.nParked == len(ctls) && now < grp.minWake && !grp.woken {
		// Every shard is parked past this cycle and no Waker fired: only
		// the hooks run. The shard scan is skipped entirely — the common
		// state for a stage whose components all wait on another stage's
		// events.
		if st.Post != nil {
			st.Post(now)
		}
		return
	}
	grp.woken = false
	for i, sh := range st.Shards {
		ctl := &ctls[i]
		if ctl.parked {
			if now < ctl.wakeAt && !ctl.woken {
				continue
			}
			ctl.unpark(now)
		}
		for _, c := range sh {
			c.Tick(now)
		}
	}
	// Park verdicts are taken once the whole stage has ticked, so a shard's
	// Park sees every same-stage write of the cycle.
	minWake := int64(Never)
	parked := 0
	for i := range ctls {
		ctl := &ctls[i]
		if !ctl.parked && ctl.sleepers != nil {
			ctl.tryPark(now)
		}
		if ctl.parked {
			parked++
			minWake = min(minWake, ctl.wakeAt)
		}
	}
	grp.nParked = parked
	grp.minWake = minWake
	if st.Post != nil {
		st.Post(now)
	}
}
