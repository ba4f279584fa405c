// Package cpu models one Rockcress tile's processor: a single-issue,
// in-order-issue / out-of-order-writeback core (scoreboarded register file,
// small load queue, non-blocking stores) with the three vector-group roles
// of §3.2 layered on top. A core can be an independent manycore CPU, the
// scalar core of a vector group, the expander (fetches microthread
// instructions and forwards them on the inet), or a plain vector lane whose
// frontend and I-cache are disabled.
package cpu

import (
	"fmt"
	"math"

	"rockcress/internal/causal"
	"rockcress/internal/config"
	"rockcress/internal/inet"
	"rockcress/internal/isa"
	"rockcress/internal/mem"
	"rockcress/internal/msg"
	"rockcress/internal/pool"
	"rockcress/internal/stats"
)

// pendingLoad marks a register whose value is still in flight from memory.
const pendingLoad = math.MaxInt64 / 2

// Mode is a core's current execution mode.
type Mode uint8

const (
	// ModeIndependent is plain manycore (MIMD) execution.
	ModeIndependent Mode = iota
	// ModeScalar leads a vector group: independent frontend, vissue/vload.
	ModeScalar
	// ModeVector executes the group's SIMD stream (expander or plain lane).
	ModeVector
)

func (m Mode) String() string {
	switch m {
	case ModeIndependent:
		return "independent"
	case ModeScalar:
		return "scalar"
	case ModeVector:
		return "vector"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

type coreState uint8

const (
	stRun coreState = iota
	stFormGroup
	stBarrier
)

// Env is the machine-side interface a core drives: NoC injection, LLC bank
// lookup, group formation rendezvous, the global barrier, and error
// reporting. Package machine implements it.
type Env interface {
	// TrySend injects a message at this core's tile, copying it; false =
	// inject full.
	TrySend(m *msg.Message) bool
	// LLCNodeFor returns the NoC node of the bank owning addr's line.
	LLCNodeFor(addr uint32) int
	// GroupArrive registers the tile at its group's formation rendezvous
	// and returns a ticket; GroupFormed reports completion of that ticket.
	GroupArrive(tile int) int64
	GroupFormed(tile int, ticket int64) bool
	// BarrierArrive registers at the global barrier; BarrierDone polls.
	BarrierArrive(tile int) int64
	BarrierDone(ticket int64) bool
	// NotifyHalt tells the machine this core executed halt.
	NotifyHalt(tile int)
	// NumGroups returns the number of configured vector groups (CSR read).
	NumGroups() int
	// ArmCheckpoint asks the machine to snapshot global memory at the next
	// barrier release (the csrw ckpt instruction; a no-op on machines not
	// running with checkpoints enabled).
	ArmCheckpoint()
	// Error reports a fatal simulation error (program bug).
	Error(err error)
}

// Core is one tile's processor.
type Core struct {
	ID   int
	cfg  config.Manycore
	prog *isa.Program
	low  *Lowered // shared pre-lowered program (see lower.go)
	env  Env
	st   *stats.Core
	spad *mem.Scratchpad

	// Static group assignment (nil when the tile is not in any group).
	group   *config.Group
	laneIdx int // row-major lane index; -1 when not a lane
	inQ     *inet.Queue
	outQs   []*inet.Queue // children in the forwarding tree

	mode   Mode
	state  coreState
	ticket int64
	halted bool
	dead   bool // killed by fault injection (halted is also set)
	blowUp bool // armed injected panic; fires on the next Tick
	predOn bool

	// Architectural state.
	pc      int
	intRegs [isa.NumIntRegs]uint32
	fpRegs  [isa.NumFpRegs]float32
	vecRegs [isa.NumVecRegs][]float32

	// Scoreboard: cycle when each register's value becomes usable.
	intReady [isa.NumIntRegs]int64
	fpReady  [isa.NumFpRegs]int64
	vecReady [isa.NumVecRegs]int64
	// Bit i set when register i awaits a memory response (stall classing).
	intPending uint32
	fpPending  uint32

	// Frontend.
	icache       *ICache
	fetchReadyAt int64
	fetchCharged bool

	// out is the message a memory op forms and TrySend copies into the
	// mesh: one copy per flit, and none on the heap per send.
	out msg.Message

	// Load queue and long-latency units.
	lq           []lqEntry
	divBusyUntil int64

	// Expander microthread state.
	mtActive bool
	vpc      int

	// Causal recording (nil when off): crec receives one resource class
	// per accounted cycle, booked with its stall kind (book); cclass is the
	// class issued work counts toward (scalar or vector, fixed by the
	// tile's static role).
	crec   *causal.TileRec
	cclass causal.Class

	// parkedKind is the stall kind the engine's shard parking will back-fill
	// with (recorded by Park, consumed by CatchUp).
	parkedKind stats.StallKind

	// Issue-stall stash: when the tick at cycle stallAt ended in an issue
	// stall the park probe can reason about, the tick records it here so
	// Park needs no re-derivation (the tick already classified the stall).
	// stallWake is the first cycle the blocker can clear (MaxInt64 when
	// only a mesh delivery resolves it); stallCheck selects a same-shard
	// condition Park must re-verify live, because a shard member ticking
	// after this core may already have cleared it.
	stallAt    int64 // cycle the stash was recorded; valid for that tick only
	stallKind  stats.StallKind
	stallWake  int64
	stallCheck uint8

	slabs *coreSlabs // what RecycleCores parks
}

// stallCheck values: the same-shard condition Park re-verifies before
// trusting a stashed backpressure stall (see Core.Park).
const (
	checkNone    uint8 = iota // stallWake alone decides
	checkSend                 // re-verify the expander queue is still full
	checkForward              // re-verify a child queue is still full
)

type lqEntry struct {
	busy bool
	isFp bool
	reg  uint8
}

// NewCores builds one core per scratchpad around a pre-lowered program
// (LowerProgram; shared by every core): tile t's core counts into st[t] and
// owns spads[t]. groups is the machine's static group layout and net its
// inet wiring; a tile in no group runs independent. The cores, their
// I-caches, load queues and vector registers each come from one slab. The
// only failure is a bad icache geometry, which is configuration input.
func NewCores(cfg config.Manycore, low *Lowered, env Env, st []stats.Core, spads []*mem.Scratchpad,
	groups []*config.Group, net inet.Net) ([]*Core, error) {
	n := len(spads)
	ics, err := NewICaches(n, cfg.ICacheBytes, cfg.ICacheWays, cfg.CacheLineBytes)
	if err != nil {
		return nil, err
	}
	s := takeCoreSlabs(coreShape{tiles: n, lq: cfg.LoadQueueEntries, simd: cfg.SIMDWidth})
	s.icaches = ics
	for t := range s.ptrs {
		c := &s.cores[t]
		*c = Core{
			ID: t, cfg: cfg, prog: low.Prog, low: low, env: env, st: &st[t], spad: spads[t],
			laneIdx: -1,
			predOn:  true,
			icache:  &ics[t],
			lq:      part(s.lq, t, cfg.LoadQueueEntries),
			stallAt: -1,
			slabs:   s,
		}
		for r := range c.vecRegs {
			c.vecRegs[r] = part(s.vec, t*isa.NumVecRegs+r, cfg.SIMDWidth)
		}
		st[t].Hop = -1
		s.ptrs[t] = c
	}
	cores := s.ptrs
	// Each group member's static place: lane k-1 for the group's k-th tile
	// (the scalar core, tile 0, is no lane) and its inet links.
	for _, g := range groups {
		for k := 0; k < g.Size(); k++ {
			t := g.Tile(k)
			c := cores[t]
			c.group, c.laneIdx = g, k-1
			c.inQ, c.outQs = net.In[t], net.Out[t]
			st[t].Hop = g.Hop[k]
		}
	}
	return cores, nil
}

// coreShape is what sizes NewCores' slabs.
type coreShape struct{ tiles, lq, simd int }

// coreSlabs is one NewCores call's construction memory: the cores, their
// load queues and vector registers are pieces of these slabs.
type coreSlabs struct {
	shape   coreShape
	cores   []Core
	ptrs    []*Core
	lq      []lqEntry
	vec     []float32
	icaches []ICache // NewICaches' caches, recycled with the cores
}

var corePool pool.Pool[coreShape, *coreSlabs]

// takeCoreSlabs takes a recycled slab set of shape k, or allocates one.
// Either way every slab is all zero.
func takeCoreSlabs(k coreShape) *coreSlabs {
	if s, ok := corePool.Get(k); ok {
		return s
	}
	return &coreSlabs{
		shape: k,
		cores: make([]Core, k.tiles),
		ptrs:  make([]*Core, k.tiles),
		lq:    make([]lqEntry, k.tiles*k.lq),
		vec:   make([]float32, k.tiles*isa.NumVecRegs*k.simd),
	}
}

// RecycleCores clears the slabs NewCores carved cores and their I-caches
// from and parks them for the next build of the same shape. Nothing may use
// cores afterwards, and only their owner may call it, once.
func RecycleCores(cores []*Core) {
	if len(cores) == 0 {
		return
	}
	s := cores[0].slabs
	RecycleICaches(s.icaches)
	clear(s.cores)
	clear(s.ptrs)
	clear(s.lq)
	clear(s.vec)
	s.icaches = nil
	corePool.Put(s.shape, s)
}

// Halted reports whether the core has executed halt.
func (c *Core) Halted() bool { return c.halted }

// Dead reports whether the core was killed by fault injection.
func (c *Core) Dead() bool { return c.dead }

// InBarrier reports whether the core is parked at the global barrier (the
// machine adjusts the barrier's arrival count when such a core dies or is
// forcibly disbanded).
func (c *Core) InBarrier() bool { return !c.halted && c.state == stBarrier }

// Kill powers the core off (fault injection). In-flight loads are discarded
// — responses to a dead tile are dropped, not errors.
func (c *Core) Kill() {
	c.dead = true
	c.halted = true
	for i := range c.lq {
		c.lq[i].busy = false
	}
}

// ForceHalt stops the core without marking it dead (a survivor of a broken
// group with no recovery point).
func (c *Core) ForceHalt() { c.halted = true }

// ForceDisband yanks the core out of its vector group after a member died:
// whatever it was doing (lane execution, barrier wait, group formation) is
// abandoned and it resumes in independent MIMD mode at pc (the program's
// recovery point). The inet queue is cleared — the group's instruction
// stream is dead.
func (c *Core) ForceDisband(now int64, pc int) {
	if c.halted {
		return
	}
	if c.inQ != nil {
		c.inQ.Reset()
	}
	c.state = stRun
	c.mode = ModeIndependent
	c.mtActive = false
	c.predOn = true
	c.setPC(pc)
	c.fetchReadyAt = now + 1
}

// StickInet freezes the core's inet input queue until the given cycle
// (fault injection). Reports whether the tile has an inet queue to stick.
func (c *Core) StickInet(until int64) bool {
	if c.inQ == nil {
		return false
	}
	c.inQ.StickUntil(until)
	return true
}

// PC returns the current program counter (meaningful outside vector mode).
func (c *Core) PC() int { return c.pc }

func (c *Core) fail(format string, args ...any) {
	c.env.Error(fmt.Errorf("core %d (pc %d, mode %s): %s", c.ID, c.pc, c.mode,
		fmt.Sprintf(format, args...)))
	c.halted = true
}

func (c *Core) setPC(pc int) {
	c.pc = pc
	c.fetchCharged = false
}

func (c *Core) setVPC(pc int) {
	c.vpc = pc
	c.fetchCharged = false
}

// InetHighWater returns the deepest occupancy the core's inet input queue
// ever reached (0 when the tile has no queue).
func (c *Core) InetHighWater() int {
	if c.inQ == nil {
		return 0
	}
	return c.inQ.HighWater()
}

// ArmPanic makes the core's next Tick panic — a simulated software defect
// (fault.PanicTile). It fires inside the engine's core stage, the same
// place a real bug would, so the chaos harness exercises the full
// crash-containment path: the run loop's recover, stack capture, RunError
// attribution.
func (c *Core) ArmPanic() { c.blowUp = true }

// Tick advances the core one cycle (sim.Component).
func (c *Core) Tick(now int64) {
	if c.blowUp {
		c.blowUp = false
		panic(fmt.Sprintf("cpu: injected panic on tile %d at cycle %d", c.ID, now))
	}
	if c.halted {
		return
	}
	c.st.Cycles++
	if c.state != stRun {
		c.tickRendezvous(now)
		return
	}
	switch c.mode {
	case ModeIndependent, ModeScalar:
		c.tickFrontend(now)
	case ModeVector:
		if c.isExpander() {
			c.tickExpander(now)
		} else {
			c.tickLane(now)
		}
	}
}

// SetCausal attaches the causal profiler's per-tile recorder. compute is
// the class issued cycles count toward. Set before the first Tick; with no
// recorder attached the hot path pays one nil check.
func (c *Core) SetCausal(rec *causal.TileRec, compute causal.Class) {
	c.crec = rec
	c.cclass = compute
}

// book classifies the cycle being ticked: one count in the stall
// histogram and, with a recorder attached, kind's causal class. Every
// cycle a core ticks passes through here once, except the cycle a
// rendezvous resolves (tickRendezvous) and one that fails the core.
func (c *Core) book(kind stats.StallKind) {
	c.st.AddStall(kind)
	if c.crec != nil {
		c.crec.Tick(c.causalClass(kind))
	}
}

// causalClass maps one accounted stall kind to its resource class.
func (c *Core) causalClass(kind stats.StallKind) causal.Class {
	switch kind {
	case stats.StallFrame:
		if c.spad != nil && (c.spad.Poisoned() || c.spad.Replaying()) {
			return causal.ClassRecovery
		}
		return causal.ClassFrame
	case stats.StallInet:
		return causal.ClassInet
	case stats.StallBackpressure:
		return causal.ClassBackpressure
	case stats.StallOther:
		if c.state != stRun {
			return causal.ClassBarrier
		}
		// RAW hazards, fetch, branch bubbles: core-local compute.
		return c.cclass
	}
	return c.cclass // StallNone: an instruction issued
}

// rendezvousDone reports whether the formation or barrier rendezvous the
// core waits at has resolved.
func (c *Core) rendezvousDone() bool {
	if c.state == stFormGroup {
		return c.env.GroupFormed(c.ID, c.ticket)
	}
	return c.env.BarrierDone(c.ticket)
}

// tickRendezvous waits at a group-formation or barrier rendezvous. The
// cycle it resolves books no stall kind; the causal profile counts it
// toward the wait that just ended.
func (c *Core) tickRendezvous(now int64) {
	if !c.rendezvousDone() {
		c.book(stats.StallOther)
		return
	}
	if c.crec != nil {
		c.crec.Tick(causal.ClassBarrier)
	}
	formed := c.state == stFormGroup
	c.state = stRun
	if formed {
		c.enterGroupRole(now)
	} else {
		c.setPC(c.pc + 1)
	}
}

func (c *Core) isExpander() bool {
	return c.group != nil && c.group.Expander == c.ID
}

func (c *Core) numGroups() int { return c.env.NumGroups() }

// enterGroupRole switches the core into its static role once the group's
// formation rendezvous completes (the vconfig write, §2.1).
func (c *Core) enterGroupRole(now int64) {
	switch {
	case c.group == nil:
		c.fail("vconfig write on a tile outside any group")
	case c.group.Scalar == c.ID:
		c.mode = ModeScalar
		c.setPC(c.pc + 1)
	default:
		// Vector lane (possibly the expander): frontend and I-cache off.
		c.mode = ModeVector
		c.mtActive = false
		c.predOn = true
	}
}

// leaveVectorMode returns a lane to independent execution at pc (devec).
func (c *Core) leaveVectorMode(now int64, pc int) {
	c.mode = ModeIndependent
	c.mtActive = false
	c.predOn = true
	c.setPC(pc)
	c.fetchReadyAt = now + 1
}

// tickFrontend fetches and issues for independent and scalar cores.
func (c *Core) tickFrontend(now int64) {
	if !c.fetch(now, false) {
		return
	}
	ok, stall := c.issueAt(now, c.pc)
	if !ok {
		c.book(stall)
		return
	}
	c.book(stats.StallNone)
}

// fetch readies the instruction at the core's PC (the microthread PC when
// micro) for issue this cycle, charging the I-cache once per PC. When it
// cannot, it has booked the cycle (a fetch bubble or a miss) or failed the
// core, and reports false.
func (c *Core) fetch(now int64, micro bool) bool {
	if now < c.fetchReadyAt {
		c.book(stats.StallOther)
		return false
	}
	pc := c.curPC(micro)
	if pc < 0 || pc >= len(c.prog.Code) {
		if micro {
			c.fail("microthread pc %d out of range", pc)
		} else {
			c.fail("pc out of range")
		}
		return false
	}
	if !c.fetchCharged {
		c.fetchCharged = true
		c.st.ICacheAccesses++
		if !c.icache.Access(uint32(pc) * 4) {
			c.fetchReadyAt = now + int64(c.cfg.ICacheMissLat)
			c.book(stats.StallOther)
			return false
		}
	}
	return true
}

// tickExpander runs the expander: it consumes microthread-start messages
// from the scalar core, fetches microthread instructions from its own
// I-cache, executes them as lane zero, and forwards them down the tree.
func (c *Core) tickExpander(now int64) {
	if !c.mtActive {
		if !c.inQ.Ready(now) {
			c.book(stats.StallInet)
			return
		}
		it := c.inQ.Peek()
		switch it.Kind {
		case inet.ItemMTStart:
			c.inQ.Pop()
			c.mtActive = true
			c.setVPC(int(it.PC))
			c.st.Microthreads++
			c.book(stats.StallOther) // pipeline redirect bubble
		case inet.ItemDevec:
			c.devec(now, it)
		default:
			c.fail("expander received %s outside a microthread", it.Kind)
		}
		return
	}
	if !c.fetch(now, true) {
		return
	}
	e := &c.low.ents[c.vpc]
	switch {
	case e.vend:
		c.mtActive = false
		c.st.CountClass(uint8(isa.ClassVecCtl))
		c.book(stats.StallNone)
	case e.ctl != nil:
		// Executed locally, never forwarded; the expander pauses fetch
		// until the branch resolves (§3.2), hence the penalty either way.
		ok, stall := c.issueAt(now, c.vpc)
		if !ok {
			c.book(stall)
			return
		}
		c.fetchReadyAt = now + int64(c.cfg.BranchPenalty)
		c.book(stats.StallNone)
	case !e.allowMT:
		c.fail("op %s not allowed in a microthread", c.prog.Code[c.vpc].Op)
	default:
		if c.forwardBlocked(now) {
			return
		}
		vpc := c.vpc
		ok, stall := c.issueAt(now, vpc)
		if !ok {
			c.book(stall)
			return
		}
		// Lanes re-dispatch the forwarded instruction through the shared
		// pre-lowered table by PC; the instruction body never travels.
		c.mustForwardAll(now, inet.Item{Kind: inet.ItemInstr, PC: int32(vpc)})
		c.setVPC(vpc + 1)
		c.book(stats.StallNone)
	}
}

// tickLane runs a plain vector lane: execute whatever arrives on the inet
// and forward it to the children. Lanes never fetch and never diverge.
func (c *Core) tickLane(now int64) {
	if !c.inQ.Ready(now) {
		c.book(stats.StallInet)
		return
	}
	it := c.inQ.Peek()
	switch it.Kind {
	case inet.ItemDevec:
		c.devec(now, it)
	case inet.ItemInstr:
		if c.forwardBlocked(now) {
			return
		}
		ok, stall := c.issueAt(now, int(it.PC))
		if !ok {
			c.book(stall)
			return
		}
		c.mustForwardAll(now, it)
		c.inQ.Pop()
		c.st.InetReceives++
		c.book(stats.StallNone)
	default:
		c.fail("vector lane received %s", it.Kind)
	}
}

// devec passes a devectorize item down the tree and returns the core to
// independent execution at the item's PC, unless a child queue is full.
func (c *Core) devec(now int64, it inet.Item) {
	if c.forwardBlocked(now) {
		return
	}
	c.mustForwardAll(now, it)
	c.inQ.Pop()
	c.leaveVectorMode(now, int(it.PC))
	c.book(stats.StallOther)
}

// forwardBlocked books a backpressure cycle, stashed for the park probe,
// when some child queue is full, and reports whether it did.
func (c *Core) forwardBlocked(now int64) bool {
	if c.canForwardAll() {
		return false
	}
	c.noteStall(now, stats.StallBackpressure, math.MaxInt64, checkForward)
	c.book(stats.StallBackpressure)
	return true
}

// canForwardAll reports whether every child queue has room.
func (c *Core) canForwardAll() bool {
	for _, q := range c.outQs {
		if !q.CanSend() {
			return false
		}
	}
	return true
}

func (c *Core) mustForwardAll(now int64, it inet.Item) {
	for _, q := range c.outQs {
		q.Send(now, it)
		c.st.InetForwards++
	}
}

// OnLoadResp delivers a memory word to the load queue (machine callback).
func (c *Core) OnLoadResp(now int64, m *msg.Message) {
	if c.dead {
		return // response raced the tile's death; drop it
	}
	if int(m.LQSlot) >= len(c.lq) || !c.lq[m.LQSlot].busy {
		c.fail("load response for idle LQ slot %d", m.LQSlot)
		return
	}
	e := &c.lq[m.LQSlot]
	if e.isFp {
		c.fpRegs[e.reg] = math.Float32frombits(m.Vals[0])
		c.fpReady[e.reg] = now + 1
		c.fpPending &^= 1 << e.reg
	} else if isa.Reg(e.reg) != isa.X0 {
		c.intRegs[e.reg] = m.Vals[0]
		c.intReady[e.reg] = now + 1
		c.intPending &^= 1 << e.reg
	}
	e.busy = false
}

// DebugState renders a one-line diagnostic of the core's current state.
func (c *Core) DebugState() string {
	lq := 0
	for i := range c.lq {
		if c.lq[i].busy {
			lq++
		}
	}
	inq := -1
	if c.inQ != nil {
		inq = c.inQ.Len()
	}
	return fmt.Sprintf("core %d mode=%s state=%d pc=%d vpc=%d mt=%v pred=%v lq=%d inq=%d frames(head=%d ready=%v)",
		c.ID, c.mode, c.state, c.pc, c.vpc, c.mtActive, c.predOn, lq, inq,
		c.spad.HeadSeq(), c.spad.NumFrames() > 0 && c.spad.FrameReady())
}

// Park implements sim.Sleeper: after ticking at now, the core may drop out
// of the tick loop when every following cycle is a pure stall of one kind,
// recorded so CatchUp can back-fill the histogram exactly as the skipped
// ticks would have. The wake is math.MaxInt64 when it depends on another
// component (a group peer arriving, a barrier release, an inet send, a mesh
// delivery): whoever acts wakes the shard.
func (c *Core) Park(now int64) (bool, int64) {
	quiet, until, kind := c.frontendStall(now + 1)
	if !quiet {
		quiet, until, kind = c.issueStall(now)
	}
	if quiet {
		c.parkedKind = kind
	}
	return quiet, until
}

// frontendStall probes the waits in which the core does not even try to
// issue from cycle next on: halted, a formation or barrier rendezvous, a
// fetch bubble, an inet queue with nothing ready.
func (c *Core) frontendStall(next int64) (quiet bool, until int64, kind stats.StallKind) {
	if c.halted {
		return true, math.MaxInt64, stats.StallNone
	}
	if c.state != stRun {
		return !c.rendezvousDone(), math.MaxInt64, stats.StallOther
	}
	if c.mode == ModeVector && !(c.isExpander() && c.mtActive) {
		// A lane, or an expander between microthreads: fed by the inet.
		if c.inQ.Ready(next) {
			return false, 0, 0
		}
		at, ok := c.inQ.ReadyAt()
		if !ok {
			at = math.MaxInt64
		}
		return true, at, stats.StallInet
	}
	return next < c.fetchReadyAt, c.fetchReadyAt, stats.StallOther
}

// issueStall probes the issue stall the tick at now may have stashed (see
// noteStall): a core blocked on the scoreboard, a DAE frame, or inet
// backpressure is frozen — nothing in its own tick can unblock it — so it
// sleeps until the blocker's known ready cycle, or until a mesh delivery or
// a same-shard neighbor's queue drain wakes the shard. The neighbor ticks
// after this core within the shard, so backpressure stashes re-verify their
// queue live; everything else in the stash is untouchable between the tick
// and this probe.
func (c *Core) issueStall(now int64) (quiet bool, until int64, kind stats.StallKind) {
	if c.stallAt != now {
		return false, 0, 0
	}
	switch c.stallCheck {
	case checkSend:
		if c.outQs[0].CanSend() {
			return false, 0, 0
		}
	case checkForward:
		if c.canForwardAll() {
			return false, 0, 0
		}
	}
	return c.stallWake > now+1, c.stallWake, c.stallKind
}

// CatchUp implements sim.Sleeper: account for n skipped cycles of the pure
// stall Park recorded, leaving every counter exactly as n individual Ticks
// would have.
func (c *Core) CatchUp(n int64) {
	if c.halted || n <= 0 {
		return
	}
	c.st.Cycles += n
	c.st.AddStallN(c.parkedKind, n)
	if c.crec != nil {
		c.crec.AddN(c.causalClass(c.parkedKind), n)
	}
}
