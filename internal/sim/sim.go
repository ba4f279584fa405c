// Package sim is the two-phase simulation engine the machine's cycle loop
// runs on. A cycle is a fixed sequence of stages; each stage ticks a set of
// shards. Within a shard, components tick serially in declared order; across
// shards, ticking is free of data dependencies by construction (the machine
// partitions components so every same-stage interaction is either
// shard-internal or commutative), so shards may run on any number of workers
// in any interleaving and the result is bit-identical to the serial engine.
//
// The tick is split in two phases:
//
//   - Propose: read shared state, compute and apply the component's own next
//     state. Cross-shard writes must be commutative (atomic counters) or
//     deferred to Commit.
//   - Commit: apply deferred order-sensitive writes. Commit always runs
//     serially, over every component of the stage in declared order, so a
//     deferred write sequence is indistinguishable from the serial engine's.
package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError wraps a panic that happened on an engine worker goroutine so it
// can be re-raised on the driving goroutine without losing the worker's
// stack. Recover handlers up the call chain (machine.Run) unwrap it to build
// a structured error whose stack points at the component that died, not at
// the re-panic site.
type PanicError struct {
	Val   any    // the original panic value
	Stack []byte // the worker goroutine's stack at the panic
}

func (p *PanicError) Error() string { return fmt.Sprintf("engine worker panic: %v", p.Val) }

// Never is the wake time of a component with no self-scheduled future
// event: it stays parked until some other component acts on it.
const Never = math.MaxInt64

// Component is one simulated unit owned by the engine.
type Component interface {
	// Propose advances the component one cycle: read any shared state,
	// update owned state, and buffer order-sensitive cross-shard writes
	// for Commit. Propose calls in different shards may run concurrently.
	Propose(now int64)
	// Commit applies the writes buffered by Propose. Commit runs serially
	// in declared component order after every Propose of the stage.
	Commit(now int64)
}

// Sleeper is an optional Component extension that lets the engine park a
// whole shard out of the tick loop. Park is asked after the shard commits:
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

// Shard is an ordered list of components that must tick serially relative
// to each other (they share state within a cycle).
type Shard []Component

// shardCtl is the engine's parking state for one shard. parked and woken
// are atomics: wakers run on engine workers (a core injecting into a
// parked mesh) while the driving goroutine owns the rest between barriers.
type shardCtl struct {
	sleepers []Sleeper // non-nil only when every component can park
	parked   atomic.Bool
	// parkedHint mirrors parked for the driving goroutine, which is the
	// only writer of both: the per-cycle shard scan reads the plain bool
	// instead of paying an atomic load per shard.
	parkedHint bool
	parkedAt   int64 // last cycle the shard's books are settled through
	wakeAt     int64
	woken      atomic.Bool
}

// stageCtl aggregates one stage's parking state so a fully parked stage
// costs O(1) per cycle instead of a scan over its shards. nParked and
// minWake are maintained by the driving goroutine's slow path; woken
// latches any Waker firing on a shard of the stage and is cleared only by
// the slow path.
type stageCtl struct {
	woken   atomic.Bool
	nParked int
	minWake int64
}

// Waker wakes one parked shard. Safe to call from any engine worker or the
// driving goroutine; wakes latch until the shard next ticks, and waking an
// unparked shard is a no-op.
type Waker struct {
	ctl *shardCtl
	grp *stageCtl
}

// Wake marks the shard runnable at its stage's next tick.
func (w *Waker) Wake() {
	if w.ctl.parked.Load() {
		w.ctl.woken.Store(true)
		w.grp.woken.Store(true)
	}
}

// Stage is one step of the cycle: an optional serial prologue, a parallel
// shard tick, and an optional serial epilogue. Stages run in declared
// order with a full barrier between them.
type Stage struct {
	Name   string
	Pre    func(now int64) // serial, before any Propose of this stage
	Shards []Shard
	Post   func(now int64) // serial, after every Commit of this stage
}

// StageMeter accumulates one stage's self-profile: how many times it ticked
// and the wall time spent inside it (Pre + Propose + Commit + Post).
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
		p.FastForward.Name = "fast-forward"
		row(&p.FastForward)
	}
	return b.String()
}

// Engine drives the stages, optionally on a fixed worker pool.
type Engine struct {
	stages  []Stage
	workers int
	prof    *Prof

	// Per-stage, per-shard parking state and wakers, the per-stage
	// aggregates, plus the reusable active-shard index scratch the tick loop
	// fills each stage. ctls and wakers are carved from one slab each.
	ctls   [][]shardCtl
	wakers [][]Waker
	groups []stageCtl
	act    []int

	tasks   chan func()
	started bool

	// Persistent propose task: one closure created at Start and sent for
	// every parallel phase, so steady-state ticking allocates nothing. The
	// closure reads the current phase through cur*; the task channel send
	// and wg.Wait bracket every access with happens-before edges.
	taskFn    func()
	curShards []Shard
	curAct    []int
	curNow    int64
	next      atomic.Int64
	wg        sync.WaitGroup

	panicMu  sync.Mutex
	panicVal any
	panicked bool
}

// NewEngine builds an engine over the given stages. workers <= 1 selects
// the serial engine; larger values bound the pool Start spins up. The
// result is bit-identical for every worker count.
func NewEngine(stages []Stage, workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	e := &Engine{stages: stages, workers: workers}
	shards, members, maxShards := 0, 0, 0
	for si := range stages {
		shards += len(stages[si].Shards)
		maxShards = max(maxShards, len(stages[si].Shards))
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
	e.act = make([]int, 0, maxShards)
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
			ctl := &e.ctls[si][j]
			if ctl.parked.Load() {
				ctl.woken.Store(true)
				e.groups[si].woken.Store(true)
			}
		}
	}
}

// NextWake answers the one question the run loop asks between ticks: when is
// the first cycle any shard can act again? While some shard is unparked, or
// a Waker has latched since its stage last ticked, that is now — the next
// cycle to execute. Once every shard of every stage is parked it is the
// earliest self-scheduled wake (Never when all wait on outside events), and
// ticking any cycle before it would run the stages' serial hooks and
// nothing else.
func (e *Engine) NextWake(now int64) int64 {
	wake := int64(Never)
	for si := range e.groups {
		grp := &e.groups[si]
		if grp.nParked != len(e.ctls[si]) || grp.woken.Load() {
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
// counter publish, final collection) may Sync at any serial point without
// changing what the engine ticks or skips. A caller that goes on to mutate
// component state out of band (a fault landing) must follow with WakeAll:
// a parked shard's Park verdict is only as good as the state it was given on.
func (e *Engine) Sync(now int64) {
	for si := range e.ctls {
		for j := range e.ctls[si] {
			if ctl := &e.ctls[si][j]; ctl.parkedHint {
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
func (e *Engine) unpark(ctl *shardCtl, now int64) {
	ctl.settle(now)
	ctl.parked.Store(false)
	ctl.parkedHint = false
	ctl.woken.Store(false)
}

// tryPark asks a shard that just committed at now whether all its
// components are inert; if every wake lies beyond the next cycle, the
// shard drops out of the tick loop.
func (e *Engine) tryPark(ctl *shardCtl, now int64) {
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
	ctl.woken.Store(false)
	ctl.parked.Store(true)
	ctl.parkedHint = true
}

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return e.workers }

// SetProfile attaches a self-profile. The stage meter list is (re)used when
// its names already match — a harness can hand the same Prof to successive
// fault-run attempts and get cumulative numbers. nil detaches.
func (e *Engine) SetProfile(p *Prof) {
	e.prof = p
	if p == nil {
		return
	}
	if len(p.Stages) != len(e.stages) {
		p.Stages = make([]StageMeter, len(e.stages))
		for i := range e.stages {
			p.Stages[i].Name = e.stages[i].Name
		}
	}
}

// Start spins up the worker pool. A no-op for the serial engine. Callers
// must Stop when done (typically deferred around the run loop) so the
// goroutines do not outlive the machine.
func (e *Engine) Start() {
	if e.workers <= 1 || e.started {
		return
	}
	tasks := make(chan func())
	e.tasks = tasks
	for i := 0; i < e.workers; i++ {
		go func() {
			for f := range tasks {
				f()
			}
		}()
	}
	// The one closure every parallel phase reuses (see the cur* fields).
	e.taskFn = func() {
		defer e.wg.Done()
		for {
			k := int(e.next.Add(1)) - 1
			if k >= len(e.curAct) {
				return
			}
			e.proposeShard(e.curNow, e.curShards[e.curAct[k]])
		}
	}
	e.started = true
}

// Stop tears the worker pool down.
func (e *Engine) Stop() {
	if !e.started {
		return
	}
	close(e.tasks)
	e.tasks = nil
	e.started = false
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
// report a no-op future park afterwards. The serial prologue/epilogue
// always run — they carry machine-level events (fault schedules, barrier
// releases) whose cycle alignment parking must never disturb.
func (e *Engine) tickStage(now int64, st *Stage, ctls []shardCtl, grp *stageCtl) {
	if st.Pre != nil {
		st.Pre(now)
	}
	if grp.nParked == len(ctls) && now < grp.minWake && !grp.woken.Load() {
		// Every shard is parked past this cycle and no Waker fired: only
		// the serial hooks run. The shard scan (and its per-shard atomic
		// loads) is skipped entirely — the common state for a stage whose
		// components all wait on another stage's events.
		if st.Post != nil {
			st.Post(now)
		}
		return
	}
	grp.woken.Store(false)
	minWake := int64(Never)
	parked := 0
	act := e.act[:0]
	for i := range st.Shards {
		ctl := &ctls[i]
		if ctl.parkedHint {
			if now < ctl.wakeAt && !ctl.woken.Load() {
				parked++
				if ctl.wakeAt < minWake {
					minWake = ctl.wakeAt
				}
				continue
			}
			e.unpark(ctl, now)
		}
		act = append(act, i)
	}
	e.act = act[:0]
	e.propose(now, st.Shards, act)
	for _, i := range act {
		for _, c := range st.Shards[i] {
			c.Commit(now)
		}
	}
	for _, i := range act {
		if ctls[i].sleepers != nil {
			e.tryPark(&ctls[i], now)
			if ctls[i].parkedHint {
				parked++
				if ctls[i].wakeAt < minWake {
					minWake = ctls[i].wakeAt
				}
			}
		}
	}
	grp.nParked = parked
	grp.minWake = minWake
	if st.Post != nil {
		st.Post(now)
	}
}

// propose runs the Propose phase of one stage over the active shards,
// parallel when the pool is up. Shard-to-worker assignment is dynamic;
// determinism comes from shard independence, not scheduling.
func (e *Engine) propose(now int64, shards []Shard, act []int) {
	if !e.started || len(act) <= 1 {
		for _, i := range act {
			for _, c := range shards[i] {
				c.Propose(now)
			}
		}
		return
	}
	n := e.workers
	if n > len(act) {
		n = len(act)
	}
	e.curShards, e.curAct, e.curNow = shards, act, now
	e.next.Store(0)
	e.wg.Add(n)
	for i := 0; i < n; i++ {
		e.tasks <- e.taskFn
	}
	e.wg.Wait()
	if e.panicked {
		e.panicked = false
		v := e.panicVal
		e.panicVal = nil
		// Re-raise on the driving goroutine so the machine's recover-to-
		// structured-error path sees worker panics too. The value is a
		// *PanicError carrying the worker's stack; without it the re-panic
		// would report this line instead of the component that died.
		panic(v)
	}
}

func (e *Engine) proposeShard(now int64, sh Shard) {
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Val: r, Stack: debug.Stack()}
			e.panicMu.Lock()
			if !e.panicked {
				e.panicked = true
				e.panicVal = pe
			}
			e.panicMu.Unlock()
		}
	}()
	for _, c := range sh {
		c.Propose(now)
	}
}

// Meter is a set of cache-line-padded counters for cheap incremental
// accounting across shards: each shard owns a slot (written only by the
// worker ticking that shard), and Total sums them between cycles. The
// machine's progress watchdog uses one for the issued-instruction count
// instead of rescanning every core's stall histogram.
type Meter struct {
	slots []meterSlot
}

type meterSlot struct {
	v int64
	_ [56]byte // pad to a cache line so shards do not false-share
}

// NewMeter builds a meter with n slots.
func NewMeter(n int) *Meter { return &Meter{slots: make([]meterSlot, n)} }

// Slot returns the address of slot i for its owning shard to increment.
func (m *Meter) Slot(i int) *int64 { return &m.slots[i].v }

// Total sums every slot. Callers must be ordered after the writers (the
// engine's stage barrier provides this between cycles).
func (m *Meter) Total() int64 {
	var t int64
	for i := range m.slots {
		t += m.slots[i].v
	}
	return t
}
