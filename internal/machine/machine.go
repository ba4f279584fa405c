// Package machine composes the Rockcress fabric: the tiled cores, their
// scratchpads and inet wiring, the data mesh, the banked LLCs, and DRAM. It
// implements the cpu.Env contract (group formation rendezvous, the global
// barrier, NoC injection) and owns the cycle loop.
//
// This file is the fabric alone. Everything optional is one of two
// attachments called from the stage hooks and run-loop sites below — the
// fault stack (faults.go, topology.go, replay.go) and the observers
// (observers.go); see DESIGN.md "The machine: a fabric and two
// attachments".
package machine

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"rockcress/internal/config"
	"rockcress/internal/cpu"
	"rockcress/internal/inet"
	"rockcress/internal/isa"
	"rockcress/internal/mem"
	"rockcress/internal/msg"
	"rockcress/internal/noc"
	"rockcress/internal/sim"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

type genBarrier struct {
	gen     int64
	arrived int
}

// Machine is one simulated Rockcress fabric.
type Machine struct {
	Cfg    config.Manycore
	Prog   *isa.Program
	Groups []*config.Group
	Global *mem.Global
	Stats  *stats.Machine

	cores []*cpu.Core
	spads []*mem.Scratchpad
	// Two physical mesh planes stand in for the request/response virtual
	// networks a Garnet-style NoC uses: without the split, a full LLC
	// request queue can block the responses that would drain it (protocol
	// deadlock).
	meshReq  *noc.Mesh
	meshResp *noc.Mesh
	llcs     []*mem.LLCBank
	dram     *mem.DRAM
	space    msg.NodeSpace

	tileGroup []int // tile -> group id, -1 if none

	// engine drives the cycle as staged ticks.
	engine *sim.Engine
	// Shard wakers for the engine's event parking: injections wake the mesh
	// shard, deliveries and fills wake the owning bank's shard.
	meshWaker  *sim.Waker
	bankWakers []*sim.Waker
	coreWakers []*sim.Waker // tile -> waker, fired on any mesh delivery to it

	now        int64
	active     int // cores not yet halted; they take part in the barrier
	barrier    genBarrier
	barPending bool         // all cores arrived; release waits for memory drain
	formation  []genBarrier // per group

	err error // first fatal simulation error (Error)

	// LLC slice indirection, part of the address map: a bank's slice lives
	// on bankMap[b] — b itself until a fault decommissions it (topology.go),
	// so bankMap[b] != b marks b dead. bankFailovers counts redirected flits.
	bankMap       []int
	bankFailovers int64

	// Read only at watchdog checkpoints (watchdog.go).
	wd           watchdog
	checkEvery   int64
	stallLimit   int64
	ctx          context.Context
	wallDeadline time.Time

	// The two attachments. A new optional subsystem is a method of one of
	// them, called from one of those sites — never a new field here.
	faults *faultStack // nil on a fault-free machine
	observers
}

// New builds and wires a machine. Each kind of per-tile and per-bank state
// comes from one slab the machine owns, so construction costs a fixed
// number of allocations whatever the fabric's size (DESIGN.md
// "Construction").
func New(p Params) (_ *Machine, err error) {
	if err := p.Cfg.Validate(); err != nil {
		return nil, err
	}
	if p.Prog == nil {
		return nil, fmt.Errorf("machine: nil program")
	}
	if err := p.Prog.Validate(); err != nil {
		return nil, err
	}
	if err := config.ValidateGroups(p.Cfg, p.Groups); err != nil {
		return nil, err
	}
	if err := checkFaults(p); err != nil {
		return nil, err
	}
	memBytes := p.MemBytes
	if memBytes == 0 {
		memBytes = DefaultMemBytes
	}
	if memBytes < 0 || memBytes%4 != 0 {
		return nil, fmt.Errorf("machine: memory size %d must be a positive word multiple", memBytes)
	}
	cfg := p.Cfg
	dram, err := mem.NewDRAM(cfg.DRAMLatency, cfg.DRAMBandwidth, cfg.LLCBanks)
	if err != nil {
		return nil, err
	}
	global, err := mem.NewGlobal(memBytes)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Cfg: cfg, Prog: p.Prog, Groups: p.Groups,
		Global:       global,
		Stats:        stats.New(cfg.Cores, cfg.LLCBanks),
		dram:         dram,
		space:        msg.NodeSpace{Cores: cfg.Cores, Banks: cfg.LLCBanks},
		formation:    make([]genBarrier, len(p.Groups)),
		tileGroup:    make([]int, cfg.Cores),
		active:       cfg.Cores,
		bankMap:      make([]int, cfg.LLCBanks),
		wd:           watchdog{lastIssued: -1},
		ctx:          p.Ctx,
		wallDeadline: p.WallDeadline,
	}
	// The slabs below may be pooled ones: a failure hands back those taken.
	defer func() {
		if err != nil {
			m.Recycle()
		}
	}()
	for b := range m.bankMap {
		m.bankMap[b] = b
	}
	for i := range m.tileGroup {
		m.tileGroup[i] = -1
	}
	for _, g := range p.Groups {
		for k := 0; k < g.Size(); k++ {
			m.tileGroup[g.Tile(k)] = g.ID
		}
	}
	m.checkEvery, m.stallLimit = p.CheckEvery, p.StallLimit
	if m.checkEvery <= 0 {
		m.checkEvery = DefaultCheckEvery
	}
	if m.stallLimit <= 0 {
		m.stallLimit = DefaultStallLimit
	}
	m.meshReq, err = noc.New(cfg.MeshWidth, cfg.MeshHeight, cfg.LLCBanks, cfg.LinkQueue, m.deliver)
	if err != nil {
		return nil, err
	}
	m.meshResp, err = noc.New(cfg.MeshWidth, cfg.MeshHeight, cfg.LLCBanks, cfg.LinkQueue, m.deliver)
	if err != nil {
		return nil, err
	}
	if cfg.RouterHopLat > 1 {
		m.meshReq.SetHopLat(cfg.RouterHopLat)
		m.meshResp.SetHopLat(cfg.RouterHopLat)
	}
	m.llcs, err = mem.NewLLCBanks(cfg, m.space, m.meshResp, m.dram, m.Global, m, m.Stats.LLCs)
	if err != nil {
		return nil, err
	}
	if err = failAfterBanks; err != nil {
		return nil, err
	}
	m.spads, err = mem.NewScratchpads(cfg.SpadBytes, cfg.FrameCounters, m.Stats.Cores)
	if err != nil {
		return nil, err
	}
	clock := func() int64 { return m.now }
	for _, s := range m.spads {
		s.SetClock(clock)
	}
	net, err := inet.NewNet(cfg.Cores, p.Groups, cfg.InetQueueEntries)
	if err != nil {
		return nil, err
	}
	// Lower the program once; the dispatch table is immutable and shared by
	// every core (per-core decode-cache state lives in each core's I-cache).
	m.cores, err = cpu.NewCores(cfg, cpu.LowerProgram(p.Prog, cfg), m, m.Stats.Cores, m.spads, p.Groups, net)
	if err != nil {
		return nil, err
	}
	stages := m.buildStages()
	m.engine = sim.NewEngine(stages)
	// Event-parking wake wiring: a parked (empty) mesh shard must wake when
	// anything injects; a parked (idle) bank must wake on a delivered
	// request or a DRAM fill. Core shards wake through broadcast events
	// (barrier release) or their own self-scheduled wake cycles.
	m.meshWaker = m.engine.WakerFor(stageMesh, 0)
	m.meshReq.SetWaker(m.meshWaker.Wake)
	m.meshResp.SetWaker(m.meshWaker.Wake)
	m.bankWakers = make([]*sim.Waker, len(m.llcs))
	for j, sh := range stages[stageMem].Shards {
		for _, c := range sh {
			m.bankWakers[c.(*mem.LLCBank).ID] = m.engine.WakerFor(stageMem, j)
		}
	}
	// Cores park on issue stalls too (scoreboard pending, frame waits);
	// the resolving event is always a mesh delivery to the tile.
	m.coreWakers = make([]*sim.Waker, len(m.cores))
	for j, sh := range stages[stageCores].Shards {
		for _, c := range sh {
			m.coreWakers[c.(*cpu.Core).ID] = m.engine.WakerFor(stageCores, j)
		}
	}
	if p.Faults != nil {
		m.attachFaults(p)
	}
	m.attachObservers(p)
	return m, nil
}

// failAfterBanks, when set, fails New once its meshes and banks are built.
// Nothing after them fails on a validated configuration, so this is the
// one way for tests to reach the hand-back of a part-built machine.
var failAfterBanks error

// Recycle hands the machine's construction slabs back to their pools,
// cleared, for the next New of the same shape: the global store, both mesh
// planes, the DRAM queues, the LLC banks, the scratchpads, the cores with
// their I-caches, and the fault stack's queues. Each set parks what its
// run grew, so a warm machine's run allocates nothing. Call it once every reader of the machine is done — its results,
// reports and checkpoint read — because nothing may read the machine, its
// store or any component afterwards. It drops the machine's hold on each
// slab set, so a second call does nothing.
func (m *Machine) Recycle() {
	if m.Global != nil {
		m.Global.Recycle()
	}
	for _, mesh := range []*noc.Mesh{m.meshReq, m.meshResp} {
		if mesh != nil {
			mesh.Recycle()
		}
	}
	m.dram.Recycle()
	mem.RecycleLLCBanks(m.llcs)
	mem.RecycleScratchpads(m.spads)
	cpu.RecycleCores(m.cores)
	if m.faults != nil {
		m.faults.recycle()
	}
	m.Global, m.meshReq, m.meshResp, m.llcs, m.spads, m.cores = nil, nil, nil, nil, nil, nil
}

// The engine's stages, in cycle order (buildStages).
const (
	stageMem = iota
	stageMesh
	stageCores
)

// buildStages lays the machine out on the engine. One cycle is:
//
//  1. "mem": the prologue fires due fault events and drains DRAM
//     completions into bank installs; then the LLC banks tick, in bank
//     order, which is the order their fills reach the shared DRAM channel.
//  2. "mesh": both mesh planes, request plane first — the fault injector's
//     link judge draws from one shared RNG stream, so plane ticking must
//     never reorder.
//  3. "cores": the prologue releases the global barrier once memory
//     drains; then the cores tick. The epilogue arms the barrier release
//     once every active core has arrived; barPending is only read at the
//     next cycle's release check.
//
// Components tick in ascending bank and tile order. A shard is the unit
// the engine parks, so the layout puts together what sleeps and wakes
// together:
//   - each bank is its own shard (its deliveries and fills wake it alone),
//     except on 1-row meshes, where bank pairs share a router and its one
//     LLC injection queue, and all banks form one shard;
//   - both mesh planes are one shard (one waker serves every injection);
//   - a vector group with its inet wiring is one shard: a lane's inet stall
//     resolves when its scalar core or expander sends, and an inet send
//     wakes no one, so the group parks only as a whole;
//   - an ungrouped tile is a singleton shard.
//
// Every shard is a piece of one component list, and every stage's shard
// list a piece of one shard list.
func (m *Machine) buildStages() []sim.Stage {
	nb, nc := len(m.llcs), len(m.cores)
	comps := make(sim.Shard, nb+2+nc)
	shards := make([]sim.Shard, 0, nb+1+nc)
	// LLC shards keyed by attach router. On meshes where two banks share a
	// router (1-row meshes), all banks collapse into one shard.
	seen := make([]bool, m.Cfg.Cores)
	shared := false
	for b, bank := range m.llcs {
		comps[b] = bank
		r := m.meshResp.AttachRouter(m.space.LLCNode(b))
		shared = shared || seen[r]
		seen[r] = true
	}
	if shared {
		shards = append(shards, comps[:nb:nb])
	} else {
		for b := range m.llcs {
			shards = append(shards, comps[b:b+1:b+1])
		}
	}
	mesh := len(shards)
	comps[nb], comps[nb+1] = m.meshReq, m.meshResp
	shards = append(shards, comps[nb:nb+2:nb+2])
	// Core shards: one per group (tiles ascending) and one per ungrouped
	// tile, in ascending order of their lowest tile. Tiles arrive in
	// ascending order, so a group's shard is reserved at its lowest tile
	// and filled in order by the rest; next[g] is its next free slot.
	cores, cc := len(shards), comps[nb+2:]
	next := make([]int, len(m.Groups))
	for g := range next {
		next[g] = -1
	}
	used := 0
	for t, c := range m.cores {
		gid := m.tileGroup[t]
		if gid < 0 {
			cc[used] = c
			shards = append(shards, cc[used:used+1:used+1])
			used++
			continue
		}
		if next[gid] < 0 {
			n := m.Groups[gid].Size()
			shards = append(shards, cc[used:used+n:used+n])
			next[gid] = used
			used += n
		}
		cc[next[gid]] = c
		next[gid]++
	}
	return []sim.Stage{
		stageMem:   {Name: "mem", Pre: m.preMem, Shards: shards[:mesh:mesh]},
		stageMesh:  {Name: "mesh", Shards: shards[mesh:cores:cores]},
		stageCores: {Name: "cores", Pre: m.preCores, Shards: shards[cores:], Post: func(int64) { m.checkBarrier() }},
	}
}

// preMem gives the fault stack its slot, then drains DRAM
// completions into bank installs.
func (m *Machine) preMem(now int64) {
	if m.faults != nil {
		m.faults.preMem(now)
	}
	for _, f := range m.dram.Completed(now, m.Global) {
		if m.bankMap[f.Bank] != f.Bank {
			continue // fill for a decommissioned bank: the owner re-fetches
		}
		m.llcs[f.Bank].Install(now, f.LineAddr)
		m.bankWakers[f.Bank].Wake()
	}
}

// preCores releases the global barrier once every active core has arrived
// and the memory system has drained (the barrier doubles as a store fence).
func (m *Machine) preCores(now int64) {
	if m.barPending && m.memQuiescent() {
		m.barPending = false
		m.barrier.gen++
		m.barrier.arrived = 0
		// Cores waiting at the barrier are parked with no self-scheduled
		// wake; the release is the broadcast event that makes them runnable.
		m.engine.WakeAll()
		m.observeBarrier(now)
		if m.faults != nil {
			m.faults.barrierReleased(now)
		}
	}
}

// Core returns tile t's processor (test and harness hook).
func (m *Machine) Core(t int) *cpu.Core { return m.cores[t] }

// Spad returns tile t's scratchpad (test hook).
func (m *Machine) Spad(t int) *mem.Scratchpad { return m.spads[t] }

// Now returns the current cycle.
func (m *Machine) Now() int64 { return m.now }

// plane maps a message kind to the mesh that carries it: responses and
// core-to-core scratchpad stores ride the response plane (they sink
// unconditionally at scratchpads), requests the request plane. TrySend and
// the re-injection of harvested flits both pick their mesh here; the LLC
// banks, which only respond, are wired to the response plane.
func (m *Machine) plane(k msg.Kind) *noc.Mesh {
	switch k {
	case msg.KindLoadResp, msg.KindSpadWord, msg.KindRemoteStore:
		return m.meshResp
	}
	return m.meshReq
}

// --- cpu.Env implementation ---

// TrySend injects a message at its source node, on its kind's plane.
func (m *Machine) TrySend(f *msg.Message) bool {
	mesh := m.plane(f.Kind)
	if m.journeys != nil && mesh == m.meshReq {
		// A request opens its causal journey with its issue cycle.
		// Responses never pass through here (LLC banks inject into meshResp
		// directly).
		f.Journey = m.journeys.New()
		m.journeys.At(f.Journey).Issue = m.now
	}
	if !mesh.TrySend(f) {
		m.journeys.Free(f.Journey)
		return false
	}
	if m.rec != nil && f.Kind == msg.KindVloadReq {
		m.rec.Instant(trace.EvVloadIssue, m.now, int64(f.Src), int64(f.Addr), int64(f.Words))
	}
	return true
}

// LLCNodeFor returns the node id of the bank owning addr's line: the
// modulo stripe through the slice indirection (the identity until a bank is
// decommissioned: reduced capacity, same address space).
func (m *Machine) LLCNodeFor(addr uint32) int {
	lineNum := int(addr) / m.Cfg.CacheLineBytes
	return m.space.LLCNode(m.bankMap[lineNum%m.Cfg.LLCBanks])
}

// GroupArrive registers a tile at its group's formation rendezvous. The
// formation latency is that of a software barrier over the group (§2.1).
func (m *Machine) GroupArrive(tile int) int64 {
	gid := m.tileGroup[tile]
	if gid < 0 {
		m.Error(fmt.Errorf("machine: tile %d entered vector mode outside any group", tile))
		return 0
	}
	g := &m.formation[gid]
	ticket := g.gen
	g.arrived++
	if g.arrived == m.Groups[gid].Size() {
		g.gen++
		g.arrived = 0
	}
	return ticket
}

// GroupFormed reports whether the rendezvous with the given ticket is done.
func (m *Machine) GroupFormed(tile int, ticket int64) bool {
	gid := m.tileGroup[tile]
	if gid < 0 {
		return true
	}
	return m.formation[gid].gen > ticket
}

// BarrierArrive registers a tile at the global barrier. The all-arrived
// check runs in the core stage's epilogue (checkBarrier); barPending is only
// read at the next cycle's release.
func (m *Machine) BarrierArrive(tile int) int64 {
	ticket := m.barrier.gen
	m.barrier.arrived++
	if m.causal != nil {
		m.causal.Arrival(m.now, tile)
	}
	return ticket
}

// BarrierDone reports whether the barrier generation has passed.
func (m *Machine) BarrierDone(ticket int64) bool { return m.barrier.gen > ticket }

// checkBarrier arms the release once every active core has arrived. The
// actual release happens in preCores once the memory system drains:
// without cache coherence the global barrier doubles as a store fence, so
// writes from before the barrier are visible to every core after it.
func (m *Machine) checkBarrier() {
	if m.active > 0 && m.barrier.arrived == m.active {
		m.barPending = true
	}
}

func (m *Machine) memQuiescent() bool {
	return m.faults.drained() && !m.meshReq.Busy() && !m.meshResp.Busy() &&
		m.dram.Pending() == 0 && !m.llcsBusy()
}

// NotifyHalt records that a core has finished; cores that halted no longer
// participate in the global barrier. The all-arrived check this can
// trigger runs in the core phase epilogue.
func (m *Machine) NotifyHalt(tile int) {
	m.active--
	if m.causal != nil {
		m.causal.Halt(m.now, tile)
	}
}

// NumGroups returns the configured group count.
func (m *Machine) NumGroups() int { return len(m.Groups) }

// Error records the first fatal simulation error.
func (m *Machine) Error(err error) {
	if m.err == nil {
		m.err = err
	}
}

// LaneTile implements mem.GroupLanes for the LLC response fan-out.
func (m *Machine) LaneTile(group, lane int) (int, bool) {
	if group < 0 || group >= len(m.Groups) {
		return 0, false
	}
	g := m.Groups[group]
	if lane < 0 || lane >= len(g.Lanes) {
		return 0, false
	}
	return g.Lanes[lane], true
}

// deliver hands a flit that reached its destination to the endpoint.
func (m *Machine) deliver(node int, f *msg.Message) bool {
	if bank, ok := m.space.IsLLC(node); ok {
		if owner := m.bankMap[bank]; owner != bank {
			// In-flight flit addressed before the bank decommissioned: the
			// failover owner absorbs it (its lines now own the slice).
			bank = owner
			m.bankFailovers++
		}
		if !m.llcs[bank].CanAccept() {
			return false
		}
		if s := m.journeys.At(f.Journey); s != nil && s.Issue != 0 {
			s.NocReq = int32(m.now - s.Issue)
		}
		m.llcs[bank].Accept(f)
		m.bankWakers[bank].Wake()
		if m.rec != nil && f.Kind == msg.KindVloadReq {
			m.rec.Instant(trace.EvLLCFanout, m.now, m.tidLLC(bank), int64(f.Addr), int64(f.Src), int64(f.Words))
		}
		return true
	}
	// Deliveries are the external resolvers for MaxInt64 core parks, but
	// only two events can actually unblock one: a load response clearing a
	// pending scoreboard register, and a spad word completing a DAE frame
	// (flipping FrameReady). Remote stores and mid-frame words change
	// nothing a park probe reads, so they skip the wake — a frame fill
	// wakes the shard once, not once per word.
	switch f.Kind {
	case msg.KindLoadResp:
		m.cores[node].OnLoadResp(m.now, f)
		m.coreWakers[node].Wake()
		if m.causal != nil {
			m.causalArrive(node, f, true)
		}
	case msg.KindSpadWord:
		filled := false
		for i := 0; i < int(f.Words); i++ {
			if m.spads[node].ArriveWord(f.SpadOff+uint32(4*i), f.Addr+uint32(4*i), f.Vals[i]) {
				filled = true
			}
		}
		if filled {
			m.coreWakers[node].Wake()
		}
		if m.causal != nil {
			m.causalArrive(node, f, filled)
		}
	case msg.KindRemoteStore:
		m.spads[node].WriteWord(f.SpadOff, f.Vals[0])
		m.Stats.RemoteStores++
	default:
		m.Error(fmt.Errorf("machine: tile %d received %s", node, f.Kind))
	}
	return true
}

// Step advances the whole machine exactly one cycle through the engine,
// with no idle jump, watchdog, or budget checks — the run loop's step, and
// the single-step hook for debuggers and for tests that assert per-cycle
// properties (e.g. steady-state allocation). Run and a Step loop produce
// identical architectural state cycle for cycle; only Run's bookkeeping
// (checkpoints, deadlock watchdog, final stats collection) is skipped.
func (m *Machine) Step() {
	m.engine.Tick(m.now)
	m.now++
}

// fastForward is parking's whole-machine case: once the engine says every
// shard is parked, the cycles before the first wake would run the stages'
// hooks and nothing else, so the run loop jumps over them. The jump
// stops at whatever those hooks act on — a DRAM completion, a scheduled
// fault — and at the next watchdog checkpoint and limit, so the watchdog
// and budget aborts fire at the cycle a Step loop reaches them at; and it is
// not taken while a hook has work the engine cannot see: a barrier release
// due at the next core phase, or a fault stack mid-recovery. Nothing is
// back-filled here: each parked shard's CatchUp at unpark already covers the
// distance to the cycle it next ticks at. Returns false when the machine
// must step normally.
func (m *Machine) fastForward(limit int64) bool {
	wake := m.engine.NextWake(m.now)
	if wake <= m.now || m.barPending && m.memQuiescent() || m.faults.recovering() {
		return false
	}
	horizon := min(wake, m.dram.NextDoneAt(), m.faults.nextEvent(),
		(m.now/m.checkEvery+1)*m.checkEvery, limit)
	if horizon <= m.now {
		return false
	}
	n := horizon - m.now
	m.Stats.FastForwards++
	m.Stats.SkippedCycles += n
	m.observeSkip(n)
	m.now = horizon
	return true
}

// advance is the run loop: step or skip, let the observers look, and at
// every CheckEvery-th cycle hold the watchdog checkpoint — until every core
// has halted (false) or an iteration ends at or past cycle stop (true). The
// skip never crosses a checkpoint or stop, so checkpoints and the stop land
// on the cycles the stepping engine would reach them at.
func (m *Machine) advance(stop int64) (atStop bool, err error) {
	for m.active > 0 {
		m.stepOrSkip(stop)
		m.observe(false)
		if m.now%m.checkEvery == 0 {
			if err := m.checkpoint(&m.wd); err != nil {
				return false, err
			}
		}
		if m.now >= stop {
			return true, nil
		}
	}
	return false, nil
}

// recoverRun, deferred around the run loop, turns a panic anywhere in it (a
// simulator bug) into a *FaultError rather than taking down the caller. The
// recover runs on the goroutine that panicked, so the stack still names the
// component that died.
func (m *Machine) recoverRun(err *error) {
	r := recover()
	if r == nil {
		return
	}
	*err = &FaultError{Cycle: m.now, Tile: -1, State: m.debugState(),
		Err: fmt.Errorf("machine: internal panic: %v", r), Stack: string(debug.Stack())}
}

// RunUntil advances the machine to cycle stop and leaves it there, resumable:
// Run's loop with the same watchdog checkpoints, but no cycle budget, drain,
// flush or end-of-run collection. It returns early, still without error, once
// every core has halted (Now() < stop tells), and with Run's *FaultError when
// a checkpoint fails. A caller that reads state between calls sees exactly
// what a fault scheduled at cycle Now() would find.
func (m *Machine) RunUntil(stop int64) (err error) {
	if m.now >= stop {
		return nil
	}
	defer m.recoverRun(&err)
	_, err = m.advance(stop)
	return err
}

// Run simulates until every core halts (plus memory drain), or maxCycles
// elapse, or a simulation error surfaces. It returns the collected stats.
// A progress watchdog aborts early (with a per-core state dump) when no
// core issues an instruction for a long stretch: a deadlocked program.
// Every failure path returns a *FaultError, recovered panics included.
func (m *Machine) Run(maxCycles int64) (st *stats.Machine, err error) {
	st = m.Stats
	// The simulated-throughput meter times the run loop alone; the deferred
	// add runs on every exit path, including panics turned into errors.
	runStart := time.Now()
	defer func() { m.Stats.WallNs += int64(time.Since(runStart)) }()
	// Every exit path — completion, error, recovered panic — leaves fresh
	// totals in m.Stats. Declared before the recover handler so it runs
	// after it (LIFO) and a panicked run is truncation-marked too.
	defer func() { m.observeEnd(err != nil) }()
	defer m.recoverRun(&err)
	overBudget, err := m.advance(maxCycles)
	if err != nil {
		return m.Stats, err
	}
	if overBudget {
		return m.Stats, m.faultErr(-1, fmt.Errorf("machine: no completion after %d cycles (%d cores active): likely deadlock or undersized budget",
			maxCycles, m.active))
	}
	if err := m.checkComponents(); err != nil {
		return m.Stats, err
	}
	// Drain in-flight stores and responses so the flush below is complete.
	drainDeadline := m.now + maxCycles
	for !m.memQuiescent() {
		m.stepOrSkip(drainDeadline)
		m.observe(false)
		if m.now >= drainDeadline {
			return m.Stats, m.faultErr(-1, fmt.Errorf("machine: memory system failed to drain"))
		}
		if m.now%m.checkEvery == 0 {
			if err := m.checkLifecycle(); err != nil {
				return m.Stats, err
			}
		}
		if err := m.checkComponents(); err != nil {
			return m.Stats, err
		}
	}
	for _, b := range m.llcs {
		b.FlushTo(m.Global)
	}
	return m.Stats, nil
}

func (m *Machine) llcsBusy() bool {
	for _, b := range m.llcs {
		if b.Busy() {
			return true
		}
	}
	return false
}

// collect brings m.Stats — the single live home of every counter — up to
// date: it settles the stall accounting parked shards defer (in place: a
// reader never changes what the engine ticks or skips), then copies
// the counters components own (mesh planes, DRAM, topology-fault tallies)
// into it. It is the only reader of those component fields; the sampler,
// the flight recorder's heatmap and report.json all read m.Stats (through
// trace.Fold) after it. Idempotent, between ticks only, allocation-free.
func (m *Machine) collect() {
	m.engine.Sync(m.now)
	st := m.Stats
	st.Cycles = m.now
	st.NocReqFlits = m.meshReq.Flits
	st.NocReqHops = m.meshReq.Hops
	st.NocRespFlits = m.meshResp.Flits
	st.NocRespHops = m.meshResp.Hops
	st.NocFlits = st.NocReqFlits + st.NocRespFlits
	st.NocHops = st.NocReqHops + st.NocRespHops
	st.DramReads = m.dram.Reads
	st.DramWrites = m.dram.Writes
	st.DramBusy = m.dram.BusyCycles
	st.NocRetrans = m.meshReq.Retransmits + m.meshResp.Retransmits
	st.NocDropped = m.meshReq.Dropped + m.meshResp.Dropped
	st.NocCorrupt = m.meshReq.Corrupt + m.meshResp.Corrupt
	st.NocReqHotHops = maxOf(m.meshReq.LinkHops())
	st.NocRespHotHops = maxOf(m.meshResp.LinkHops())
	st.NocRouteRebuilds = m.meshReq.RouteRebuilds + m.meshResp.RouteRebuilds
	st.NocDetourHops = m.meshReq.DetourHops + m.meshResp.DetourHops
	st.NocDroppedDead = m.meshReq.DroppedDead + m.meshResp.DroppedDead
	st.LLCBankFailovers = m.bankFailovers
	st.DramDegradedOps = m.dram.DegradedOps
	if m.faults != nil {
		m.faults.tally(st)
	}
}

func maxOf(vs []int64) int64 {
	var m int64
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
