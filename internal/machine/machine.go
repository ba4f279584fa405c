// Package machine composes the Rockcress fabric: the tiled cores, their
// scratchpads and inet wiring, the data mesh, the banked LLCs, and DRAM. It
// implements the cpu.Env contract (group formation rendezvous, the global
// barrier, NoC injection) and owns the cycle loop.
package machine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rockcress/internal/causal"
	"rockcress/internal/config"
	"rockcress/internal/cpu"
	"rockcress/internal/fault"
	"rockcress/internal/inet"
	"rockcress/internal/isa"
	"rockcress/internal/lifecycle"
	"rockcress/internal/mem"
	"rockcress/internal/metrics"
	"rockcress/internal/msg"
	"rockcress/internal/noc"
	"rockcress/internal/sim"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// DefaultMemBytes sizes the global backing store.
const DefaultMemBytes = 32 * 1024 * 1024

// Watchdog defaults: check progress every CheckEvery cycles; abort after
// StallLimit consecutive checks with no instruction issued anywhere.
const (
	DefaultCheckEvery = 1024
	DefaultStallLimit = 64
)

// Params configures a machine instance.
type Params struct {
	Cfg      config.Manycore
	Prog     *isa.Program
	Groups   []*config.Group // nil for pure-MIMD configurations
	MemBytes int             // backing store size; DefaultMemBytes if 0

	// Faults is the fault-injection schedule; nil costs nothing.
	Faults *fault.Plan

	// NoReplay disables the scratchpad integrity layer (per-frame parity +
	// poisoned-frame replay) that fault-injection runs otherwise get. Used
	// to measure the whole-run-restart baseline.
	NoReplay bool

	// Checkpoint enables checkpoint publication: csrw ckpt arms a
	// global-memory snapshot at the next barrier release, retrievable via
	// Machine.Checkpoint after the run.
	Checkpoint bool

	// Watchdog tuning; zero means the default. Long-latency fault/retry
	// experiments raise these to avoid false deadlock aborts.
	CheckEvery int64
	StallLimit int64

	// Workers sizes the two-phase engine's tick pool. 0 or 1 runs the
	// serial engine; any value produces bit-identical results.
	Workers int

	// TraceBarriers logs global barrier releases (debug aid). Per-instance
	// so tracing is safe under parallel sweeps; cmd/rocksim wires it to the
	// ROCKTRACE environment variable.
	TraceBarriers bool

	// WatchAddr logs accesses to one global word address at the LLC banks
	// and store issue at the cores (debug aid; 0 means off). Per-instance —
	// the old ROCKTRACE=<addr> env hook, relocated so parallel sweeps and
	// tests can watch independently.
	WatchAddr uint32

	// Trace attaches an observability sink (windowed telemetry sampler and
	// structured event recorder). nil costs nothing; with a sink attached,
	// cycle counts are still bit-identical for any engine worker count.
	Trace *trace.Sink

	// Prof attaches an engine self-profile (per-stage wall time plus the
	// fast-forward meter). nil costs nothing. Reusable across attempts for
	// cumulative numbers.
	Prof *sim.Prof

	// Obs attaches the live observability plane. The machine registers its
	// per-tile/per-bank/per-link series once here and publishes absolute
	// counter values into the pre-registered atomic cells at
	// watchdog-checkpoint granularity — nil costs nothing, and cycle counts
	// are bit-identical with the plane on or off. When several machines run
	// concurrently (harness sweeps), the first to bind publishes the
	// per-machine series; the rest still feed the shared flight recorder's
	// run status through the kernels layer.
	Obs *metrics.Plane

	// Causal attaches the causal profiler (internal/causal): per-tile
	// resource-class accounting, barrier-interval critical-path
	// extraction, and journey stamping through the memory system. Gated
	// like Trace/Obs — off, the hot paths pay one nil check each and cycle
	// counts plus goldens are bit-identical with it on or off.
	Causal bool

	// Ctx, when non-nil, makes the run cancellable: cancellation is checked
	// at watchdog-checkpoint granularity (never mid-cycle), so cycle counts
	// of runs that complete are bit-identical with or without a context.
	Ctx context.Context

	// WallDeadline, when non-zero, is the wall-clock watchdog: a run still
	// going past it aborts with a diagnostic state dump. Distinct from the
	// simulated-cycle watchdog (CheckEvery/StallLimit) — this one catches
	// host-time hangs (livelock, pathological slowdown), not simulated
	// deadlock. Checked at the same checkpoint granularity as Ctx.
	WallDeadline time.Time
}

// FaultError is a structured simulation failure: the cycle it surfaced, the
// offending tile (-1 when not tile-specific), the underlying cause, and a
// per-core state dump for diagnostics. All Machine.Run failure paths return
// one (wrapped component errors, watchdog aborts, recovered panics).
type FaultError struct {
	Cycle int64
	Tile  int
	Err   error
	State string
	// Stack is the goroutine stack of a recovered panic (empty otherwise).
	// For engine-worker panics it is the worker's stack at the point the
	// component died, carried across the re-raise by sim.PanicError.
	Stack string
}

func (e *FaultError) Error() string {
	at := fmt.Sprintf("cycle %d", e.Cycle)
	if e.Tile >= 0 {
		at += fmt.Sprintf(", tile %d", e.Tile)
	}
	s := fmt.Sprintf("%v (%s)", e.Err, at)
	if e.State != "" {
		s += "\n" + e.State
	}
	return s
}

func (e *FaultError) Unwrap() error { return e.Err }

// ErrDeadlock marks the cycle watchdog's verdict: no core issued an
// instruction for StallLimit consecutive checkpoints. Callers classify with
// errors.Is (the flight recorder dumps a forensic bundle on it).
var ErrDeadlock = errors.New("machine: deadlock")

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

	// engine drives the cycle as staged two-phase ticks; meter is the
	// watchdog's incrementally-maintained issued-instruction counter.
	engine *sim.Engine
	meter  *sim.Meter
	// Shard wakers for the engine's event parking: injections wake the mesh
	// shard, deliveries and fills wake the owning bank's shard.
	meshWaker  *sim.Waker
	bankWakers []*sim.Waker
	coreWakers []*sim.Waker // tile -> waker, fired on any mesh delivery to it

	now int64
	// active and barrier.arrived are atomics: cores in different engine
	// shards halt and arrive concurrently during the parallel core phase.
	// barrier.gen is only written in serial phases (release, fault stage).
	active  atomic.Int64
	barrier struct {
		gen     int64
		arrived atomic.Int64
	}
	barPending bool         // all cores arrived; release waits for memory drain
	formation  []genBarrier // per group

	errMu sync.Mutex
	err   error

	traceBarriers bool
	ffKinds       []stats.StallKind // fast-forward backfill scratch

	// Observability (all nil on an untraced machine; see trace.go and
	// metrics.go). flight is nil unless this machine won the plane's
	// machine slot, so rare-event notes have a single source.
	rec     *trace.Recorder
	sampler *trace.Sampler
	prof    *sim.Prof
	roleOf  []trace.Role // tile -> CPI-stack role
	obs     *obsPub
	flight  *metrics.Flight
	causal  *causal.Recorder

	// Fault injection (all nil/zero on a fault-free machine).
	inj          *fault.Injector
	report       *fault.Report
	brokenGroups []bool
	checkEvery   int64
	stallLimit   int64

	// Permanent-topology fault state (nil/zero until the first cutlink,
	// killrouter, or killbank event; see topology.go). bankMap is the LLC
	// address-slice indirection (bank -> live owner); reinjectQ holds flits
	// harvested across a topology transition until the network re-accepts
	// them. bankFailovers is atomic: the dead-destination policy counts
	// from concurrent core shards.
	deadBanks     []bool
	bankMap       []int
	liveBanks     int
	reinjectQ     []reinjectFlit
	reroutedFlits int64
	bankFailovers atomic.Int64

	// Integrity layer (fault-injection runs with replay enabled).
	integrity bool
	replays   []*replayState // per tile; nil = no replay in flight

	// Checkpointing: armed from the parallel core phase by csrw ckpt,
	// consumed at the serial barrier release.
	ckptOn    bool
	ckptArmed atomic.Bool
	ckpt      *Checkpoint

	// Lifecycle: cancellation context and wall-clock deadline, both checked
	// only at watchdog checkpoints (nil/zero = off).
	ctx          context.Context
	wallDeadline time.Time
}

// New builds and wires a machine.
func New(p Params) (*Machine, error) {
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
	memBytes := p.MemBytes
	if memBytes == 0 {
		memBytes = DefaultMemBytes
	}
	if memBytes < 0 || memBytes%4 != 0 {
		return nil, fmt.Errorf("machine: memory size %d must be a positive word multiple", memBytes)
	}
	if p.Faults != nil {
		if err := p.Faults.ValidateGeometry(fault.Geometry{
			Cores: p.Cfg.Cores, MeshW: p.Cfg.MeshWidth, MeshH: p.Cfg.MeshHeight,
			Banks: p.Cfg.LLCBanks,
		}); err != nil {
			return nil, err
		}
	}
	cfg := p.Cfg
	global, err := mem.NewGlobal(memBytes)
	if err != nil {
		return nil, err
	}
	dram, err := mem.NewDRAM(cfg.DRAMLatency, cfg.DRAMBandwidth)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Cfg: cfg, Prog: p.Prog, Groups: p.Groups,
		Global:        global,
		Stats:         stats.New(cfg.Cores, cfg.LLCBanks),
		dram:          dram,
		space:         msg.NodeSpace{Cores: cfg.Cores, Banks: cfg.LLCBanks},
		formation:     make([]genBarrier, len(p.Groups)),
		tileGroup:     make([]int, cfg.Cores),
		meter:         sim.NewMeter(cfg.Cores),
		traceBarriers: p.TraceBarriers,
		ctx:           p.Ctx,
		wallDeadline:  p.WallDeadline,
	}
	m.active.Store(int64(cfg.Cores))
	for i := range m.tileGroup {
		m.tileGroup[i] = -1
	}
	for _, g := range p.Groups {
		for _, t := range g.Tiles() {
			m.tileGroup[t] = g.ID
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
	if p.Faults != nil {
		m.inj = fault.NewInjector(p.Faults)
		m.report = &fault.Report{}
		m.brokenGroups = make([]bool, len(p.Groups))
		if m.inj.HasLinkFaults() {
			m.meshReq.SetLinkJudge(m.linkJudge(fault.PlaneReq))
			m.meshResp.SetLinkJudge(m.linkJudge(fault.PlaneResp))
		}
		// Unreachable-destination policy for degraded topologies: only
		// consulted once a mesh runs its fault-aware table, so the
		// fault-free hot path never sees it.
		m.meshReq.SetDeadDstHandler(m.deadDstPolicy)
		m.meshResp.SetDeadDstHandler(m.deadDstPolicy)
	}
	m.llcs = make([]*mem.LLCBank, cfg.LLCBanks)
	for b := range m.llcs {
		m.llcs[b], err = mem.NewLLCBank(b, cfg, m.space.LLCNode(b), m.meshResp, m.dram,
			m.Global, m, &m.Stats.LLCs[b])
		if err != nil {
			return nil, err
		}
	}
	m.integrity = p.Faults != nil && !p.NoReplay
	m.ckptOn = p.Checkpoint
	m.spads = make([]*mem.Scratchpad, cfg.Cores)
	for t := range m.spads {
		m.spads[t], err = mem.NewScratchpad(t, cfg.SpadBytes, cfg.FrameCounters, &m.Stats.Cores[t])
		if err != nil {
			return nil, err
		}
		m.spads[t].SetClock(func() int64 { return m.now })
		if m.integrity {
			m.spads[t].SetIntegrity(true)
		}
	}
	if m.integrity {
		m.replays = make([]*replayState, cfg.Cores)
	}
	// inet wiring: one input queue per grouped tile, children per tree.
	inQs := make([]*inet.Queue, cfg.Cores)
	for _, g := range p.Groups {
		for _, t := range g.Tiles() {
			inQs[t], err = inet.NewQueue(cfg.InetQueueEntries)
			if err != nil {
				return nil, err
			}
		}
	}
	m.cores = make([]*cpu.Core, cfg.Cores)
	// Lower the program once; the dispatch table is immutable and shared by
	// every core (per-core decode-cache state lives in each core).
	lowered := cpu.LowerProgram(p.Prog, cfg)
	for t := range m.cores {
		var (
			group *config.Group
			lane  = -1
			inQ   *inet.Queue
			outQs []*inet.Queue
		)
		if gid := m.tileGroup[t]; gid >= 0 {
			group = p.Groups[gid]
			lane = group.LaneIndex(t)
			inQ = inQs[t]
			for _, child := range group.Children[t] {
				outQs = append(outQs, inQs[child])
			}
		}
		m.cores[t], err = cpu.New(t, cfg, lowered, m, &m.Stats.Cores[t],
			m.spads[t], group, lane, inQ, outQs)
		if err != nil {
			return nil, err
		}
		m.cores[t].SetIssueSlot(m.meter.Slot(t))
	}
	m.engine = sim.NewEngine(m.buildStages(), p.Workers)
	// Event-parking wake wiring: a parked (empty) mesh shard must wake when
	// anything injects; a parked (idle) bank must wake on a delivered
	// request or a DRAM fill. Core shards wake through broadcast events
	// (barrier release) or their own self-scheduled wake cycles.
	m.meshWaker = m.engine.WakerFor(m.meshReq)
	m.meshReq.SetWaker(m.meshWaker.Wake)
	m.meshResp.SetWaker(m.meshWaker.Wake)
	m.bankWakers = make([]*sim.Waker, len(m.llcs))
	for b := range m.llcs {
		m.bankWakers[b] = m.engine.WakerFor(m.llcs[b])
	}
	// Cores park on issue stalls too (scoreboard pending, frame waits);
	// the resolving event is always a mesh delivery to the tile.
	m.coreWakers = make([]*sim.Waker, len(m.cores))
	for t := range m.cores {
		m.coreWakers[t] = m.engine.WakerFor(m.cores[t])
	}
	m.roleOf = trace.Roles(cfg.Cores, p.Groups)
	if p.Causal {
		// Causal profiler wiring: each core classifies its own cycles into
		// the per-tile recorder, and the LLC banks stamp response journeys.
		// Everything else (NoC stamps, arrivals, interval closes) hangs off
		// m.causal nil checks on the machine's own hooks.
		m.causal = causal.NewRecorder(cfg.Cores)
		for t, c := range m.cores {
			class := causal.ClassScalar
			if r := m.roleOf[t]; r == trace.RoleLane || r == trace.RoleExpander {
				class = causal.ClassVector
			}
			c.SetCausal(m.causal.Tile(t), class)
		}
		for _, b := range m.llcs {
			b.SetCausal(true)
		}
		// Feeder chain: a lane's instruction stream comes from the group
		// expander, the expander's from the scalar core. Inet waits on the
		// critical tile are redistributed up this chain at interval close.
		for _, g := range p.Groups {
			for _, t := range g.Lanes {
				if t != g.Expander {
					m.causal.SetFeeder(t, g.Expander)
				}
			}
			m.causal.SetFeeder(g.Expander, g.Scalar)
		}
	}
	if p.WatchAddr != 0 {
		for _, b := range m.llcs {
			b.SetWatchAddr(p.WatchAddr)
		}
		for _, c := range m.cores {
			c.SetWatchAddr(p.WatchAddr)
		}
	}
	if p.Trace != nil {
		m.rec = p.Trace.Recorder()
		m.sampler = p.Trace.Sampler()
	}
	if m.rec != nil {
		for _, s := range m.spads {
			s.SetRecorder(m.rec)
		}
		m.emitTraceMeta()
	}
	// Per-link hop accounting is always on: the per-hop branch exists
	// either way, and the hottest link's duty cycle feeds the end-of-run
	// bottleneck report (rockdoctor), not just windowed telemetry.
	m.meshReq.EnableLinkHops()
	m.meshResp.EnableLinkHops()
	if m.sampler != nil {
		m.sampler.SetLinkLabels(m.meshReq.LinkLabels())
		// Multi-attempt fault runs reuse one sink across machines; the window
		// series restarts from cycle 0 with each new machine.
		m.sampler.Reset()
	}
	if p.Prof != nil {
		m.prof = p.Prof
		m.engine.SetProfile(p.Prof)
	}
	// Observability-plane binding: the roles and link labels the series
	// need exist only after trace.Roles and EnableLinkHops above. Losing the
	// bind race (another machine of the same sweep is already publishing)
	// costs nothing — this machine simply has no cells to publish.
	if p.Obs != nil && p.Obs.TryBindMachine() {
		m.obs = newObsPub(p.Obs, m)
		p.Obs.SetMachineProvider(m.obs.snapshot)
		m.flight = p.Obs.Flight()
		m.publishObs()
	}
	return m, nil
}

// buildStages lays the machine out on the two-phase engine. One cycle is:
//
//  1. "mem": serial prologue fires due fault events and drains DRAM
//     completions into bank installs; then the LLC banks tick. Banks on
//     distinct mesh routers form independent shards — their propose phase
//     touches only bank-owned state and router-disjoint response
//     injection, and the order-sensitive DRAM reads are committed in bank
//     order afterwards.
//  2. "mesh": both mesh planes in one shard, request plane first, exactly
//     the serial order — the fault injector's link judge draws from one
//     shared RNG stream, so plane ticking must never reorder.
//  3. "cores": serial prologue releases the global barrier once memory
//     drains; then the cores tick. A vector group and its inet wiring form
//     one shard (lanes read what the scalar/expander sent this cycle);
//     ungrouped tiles are singleton shards. The epilogue re-arms the
//     barrier release check, which in the serial engine a mid-phase
//     arrival would have run inline — deferred it is identical, because
//     barPending is only read at the next cycle's release check.
//
// Shards are declared in ascending tile/bank order, so the serial commit
// sweep — and the serial engine itself — visits components exactly like
// the pre-engine loop did.
func (m *Machine) buildStages() []sim.Stage {
	// LLC shards keyed by attach router. On meshes where two banks share a
	// router (1-row meshes), all banks collapse into one serial shard so
	// the commit order stays the global bank order.
	routerSeen := map[int]bool{}
	shared := false
	for b := range m.llcs {
		r := m.meshResp.AttachRouter(m.space.LLCNode(b))
		if routerSeen[r] {
			shared = true
		}
		routerSeen[r] = true
	}
	var llcShards []sim.Shard
	if shared {
		sh := make(sim.Shard, len(m.llcs))
		for b := range m.llcs {
			sh[b] = m.llcs[b]
		}
		llcShards = []sim.Shard{sh}
	} else {
		for b := range m.llcs {
			llcShards = append(llcShards, sim.Shard{m.llcs[b]})
		}
	}
	// Core shards: group closures (tiles ascending) and singletons, in
	// ascending order of their lowest tile.
	var coreShards []sim.Shard
	done := make([]bool, len(m.cores))
	for t := range m.cores {
		if done[t] {
			continue
		}
		if gid := m.tileGroup[t]; gid >= 0 {
			tiles := append([]int(nil), m.Groups[gid].Tiles()...)
			sort.Ints(tiles)
			sh := make(sim.Shard, len(tiles))
			for i, gt := range tiles {
				sh[i] = m.cores[gt]
				done[gt] = true
			}
			coreShards = append(coreShards, sh)
			continue
		}
		coreShards = append(coreShards, sim.Shard{m.cores[t]})
		done[t] = true
	}
	return []sim.Stage{
		{Name: "mem", Pre: m.preMem, Shards: llcShards},
		{Name: "mesh", Shards: []sim.Shard{{m.meshReq, m.meshResp}}},
		{Name: "cores", Pre: m.preCores, Shards: coreShards, Post: func(int64) { m.checkBarrier() }},
	}
}

// preMem fires due discrete fault events, drains DRAM completions, and
// drives frame replays. All of it is serial, so replay decisions are
// identical for every engine worker count.
func (m *Machine) preMem(now int64) {
	if m.inj != nil && now >= m.inj.NextDiscrete() {
		// Faults mutate cores and queues out of band (kill, armed panic,
		// stuck inet): unpark everything first so parked shards' stall
		// back-fill happens against pre-fault state and an armed panic
		// cannot sleep through its own cycle.
		m.engine.Sync(now)
		m.applyFaults(now)
	}
	for _, f := range m.dram.Completed(now, m.Global) {
		if m.deadBanks != nil && m.deadBanks[f.Bank] {
			continue // fill for a decommissioned bank: the owner re-fetches
		}
		m.llcs[f.Bank].Install(now, f.LineAddr)
		m.bankWakers[f.Bank].Wake()
	}
	if len(m.reinjectQ) > 0 {
		m.drainReinject()
	}
	if m.integrity {
		m.tickReplays(now)
	}
}

// preCores releases the global barrier once every active core has arrived
// and the memory system has drained (the barrier doubles as a store fence).
func (m *Machine) preCores(now int64) {
	if m.barPending && m.memQuiescent() {
		m.barPending = false
		// The causal profiler treats barrier releases as interval
		// boundaries: the last-arriving tile's class deltas since the
		// previous release are the interval's critical-path contribution.
		if m.causal != nil {
			m.causal.CloseInterval(now)
		}
		m.barrier.gen++
		m.barrier.arrived.Store(0)
		// Cores waiting at the barrier are parked with no self-scheduled
		// wake; the release is the broadcast event that makes them runnable.
		m.engine.WakeAll()
		if m.traceBarriers {
			fmt.Printf("[%d] barrier gen %d released\n", m.now, m.barrier.gen)
		}
		if m.rec != nil {
			m.rec.Instant(trace.EvBarrierRelease, now, m.tidMachine(), m.barrier.gen)
		}
		// An armed checkpoint fires exactly at the release: every store from
		// before the barrier has drained and no core is past it, so the
		// snapshot is a consistent cut. Skipped (but disarmed) when any
		// scratchpad may hold unrepaired corruption.
		if m.ckptArmed.Swap(false) && m.ckptOn && m.snapshotSafe() {
			m.takeCheckpoint(now)
		}
	}
}

// Core returns tile t's processor (test and harness hook).
func (m *Machine) Core(t int) *cpu.Core { return m.cores[t] }

// Spad returns tile t's scratchpad (test hook).
func (m *Machine) Spad(t int) *mem.Scratchpad { return m.spads[t] }

// Now returns the current cycle.
func (m *Machine) Now() int64 { return m.now }

// --- cpu.Env implementation ---

// TrySend injects a message at its source node: memory requests ride the
// request plane; core-to-core scratchpad stores ride the response plane
// (they sink unconditionally at scratchpads).
func (m *Machine) TrySend(f msg.Message) bool {
	if m.causal != nil && f.Kind != msg.KindRemoteStore {
		// Journey stamp: request issue cycle. m.now is stable during the
		// parallel core phase, and f is a value — no aliasing with the
		// sender's copy. Responses never pass through here (LLC banks
		// inject into meshResp directly), so this cannot clobber their
		// stamps.
		f.CIssue = m.now
	}
	var ok bool
	if f.Kind == msg.KindRemoteStore {
		ok = m.meshResp.TrySend(f)
	} else {
		ok = m.meshReq.TrySend(f)
	}
	if ok && m.rec != nil && f.Kind == msg.KindVloadReq {
		// m.now is stable during the parallel core phase (only the serial
		// step advances it); the recorder's mutex covers concurrent emits.
		m.rec.Instant(trace.EvVloadIssue, m.now, int64(f.Src), int64(f.Addr), int64(f.Words))
	}
	return ok
}

// LLCNodeFor returns the node id of the bank owning addr's line: the
// modulo stripe, redirected through the failover indirection once any bank
// has been decommissioned (reduced capacity, same address space).
func (m *Machine) LLCNodeFor(addr uint32) int {
	lineNum := int(addr) / m.Cfg.CacheLineBytes
	b := lineNum % m.Cfg.LLCBanks
	if m.bankMap != nil {
		b = m.bankMap[b]
	}
	return m.space.LLCNode(b)
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
	if g.arrived == len(m.Groups[gid].Tiles()) {
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

// BarrierArrive registers a tile at the global barrier. Callable from the
// parallel core phase: the arrival count is atomic, and the all-arrived
// check is deferred to the phase epilogue (checkBarrier), which the serial
// engine's inline check cannot be distinguished from — barPending is only
// read at the next cycle's release.
func (m *Machine) BarrierArrive(tile int) int64 {
	ticket := m.barrier.gen
	m.barrier.arrived.Add(1)
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
	a := m.active.Load()
	if a > 0 && m.barrier.arrived.Load() == a {
		m.barPending = true
	}
}

func (m *Machine) memQuiescent() bool {
	return len(m.reinjectQ) == 0 && !m.meshReq.Busy() && !m.meshResp.Busy() &&
		m.dram.Pending() == 0 && !m.llcsBusy()
}

// NotifyHalt records that a core has finished; cores that halted no longer
// participate in the global barrier. The all-arrived check this can
// trigger runs in the core phase epilogue.
func (m *Machine) NotifyHalt(tile int) {
	m.active.Add(-1)
	if m.causal != nil {
		m.causal.Halt(m.now, tile)
	}
}

// NumGroups returns the configured group count.
func (m *Machine) NumGroups() int { return len(m.Groups) }

// Error records the first fatal simulation error. Callable from any shard.
func (m *Machine) Error(err error) {
	m.errMu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.errMu.Unlock()
}

// firstErr returns the latched error, if any.
func (m *Machine) firstErr() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.err
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
		if m.deadBanks != nil && m.deadBanks[bank] {
			// In-flight flit addressed before the bank decommissioned: the
			// failover owner absorbs it (its lines now own the slice).
			bank = m.bankMap[bank]
			m.bankFailovers.Add(1)
		}
		if !m.llcs[bank].CanAccept() {
			return false
		}
		if m.causal != nil && f.CIssue != 0 {
			f.CNocReq = int32(m.now - f.CIssue)
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
			m.causalArrive(node, f)
		}
	case msg.KindSpadWord:
		filled := false
		for i := 0; i < f.Words; i++ {
			if m.spads[node].ArriveWord(f.SpadOff+uint32(4*i), f.Addr+uint32(4*i), f.Vals[i]) {
				filled = true
			}
		}
		if filled {
			m.coreWakers[node].Wake()
			if m.causal != nil {
				m.causalArrive(node, f)
			}
		}
	case msg.KindRemoteStore:
		m.spads[node].WriteWord(f.SpadOff, f.Vals[0])
		m.Stats.RemoteStores++
	default:
		m.Error(fmt.Errorf("machine: tile %d received %s", node, f.Kind))
	}
	return true
}

// --- fault injection ---

// linkJudge adapts the injector's verdicts to one mesh plane.
func (m *Machine) linkJudge(plane fault.Plane) noc.LinkJudge {
	return func(now int64, from, to int) noc.LinkVerdict {
		switch m.inj.Judge(plane, now, from, to) {
		case fault.VerdictDrop:
			return noc.LinkDrop
		case fault.VerdictCorrupt:
			return noc.LinkCorrupt
		}
		return noc.LinkOK
	}
}

// applyFaults fires every discrete event scheduled at or before now.
func (m *Machine) applyFaults(now int64) {
	for _, e := range m.inj.TakeDiscrete(now) {
		switch e.Kind {
		case fault.KillTile:
			m.killTile(now, e.Tile)
		case fault.PanicTile:
			// The panic itself fires in the parallel core phase (the next
			// Tick), not here: arming in the serial fault step keeps the
			// injection deterministic while the crash lands where a real
			// defect would.
			m.cores[e.Tile].ArmPanic()
		case fault.StickInetQueue:
			if m.cores[e.Tile].StickInet(now + e.Duration) {
				m.report.StuckQueues++
				if m.rec != nil {
					m.rec.Span(trace.EvFaultStick, now, e.Duration, int64(e.Tile))
				}
				m.flight.Note(now, "fault.stick",
					fmt.Sprintf("tile %d inet queue stuck for %d cycles", e.Tile, e.Duration))
			}
		case fault.CutLink:
			m.cutLink(now, e)
		case fault.KillRouter:
			m.killRouter(now, e.Tile)
		case fault.KillBank:
			m.killBank(now, e.Bank)
		case fault.DramDegrade:
			m.dramDegrade(now, e)
		case fault.FlipSpadWord:
			if landed, inFrame := m.spads[e.Tile].FlipBit(e.Offset, e.Bit); landed {
				if m.rec != nil {
					m.rec.Instant(trace.EvFaultFlip, now, int64(e.Tile), int64(e.Bit), int64(e.Offset))
				}
				m.flight.Note(now, "fault.flip",
					fmt.Sprintf("tile %d spad bit %d at offset %d", e.Tile, e.Bit, e.Offset))
				if inFrame {
					m.Stats.SpadFlipsFrame++
				} else {
					m.Stats.SpadFlipsData++
				}
			}
		}
	}
}

// killTile powers tile t off: the core stops, its scratchpad ignores all
// further traffic (including in-flight vload data), and any vector group it
// belonged to is broken. Barrier and active-count bookkeeping are adjusted
// so the rest of the fabric keeps running.
func (m *Machine) killTile(now int64, t int) {
	c := m.cores[t]
	if c.Dead() {
		return
	}
	if !c.Halted() {
		if c.InBarrier() {
			m.barrier.arrived.Add(-1)
		}
		m.active.Add(-1)
	}
	c.Kill()
	if m.rec != nil {
		m.rec.Instant(trace.EvFaultKill, now, int64(t))
	}
	m.flight.Note(now, "fault.kill", fmt.Sprintf("tile %d powered off", t))
	m.spads[t].Decommission()
	if m.replays != nil {
		m.replays[t] = nil // a dead tile's frames are beyond repair
	}
	m.report.DeadTiles = append(m.report.DeadTiles, t)
	if gid := m.tileGroup[t]; gid >= 0 {
		m.breakGroup(now, gid)
	}
	m.checkBarrier()
}

// breakGroup devectorizes a group that lost a member: every surviving tile
// is forced back to independent MIMD mode at the program's recovery point
// (or halted when the program declares none). The group's formation
// rendezvous is reset so the group id is dead for the rest of the run.
func (m *Machine) breakGroup(now int64, gid int) {
	if m.brokenGroups[gid] {
		return
	}
	// Members may be parked (a lane waiting on its inet queue, a core in
	// the barrier): back-fill their skipped stalls against the pre-disband
	// state before ForceDisband/ForceHalt rewrite it.
	m.engine.Sync(now)
	m.brokenGroups[gid] = true
	m.report.BrokenGroups = append(m.report.BrokenGroups, gid)
	if m.rec != nil {
		m.rec.Instant(trace.EvRecoverGroupBreak, now, int64(m.Groups[gid].Scalar), int64(gid))
	}
	m.flight.Note(now, "recover.groupbreak", fmt.Sprintf("group %d devectorized", gid))
	rpc := m.Prog.RecoverPC
	for _, t := range m.Groups[gid].Tiles() {
		c := m.cores[t]
		if c.Halted() {
			continue
		}
		if c.InBarrier() {
			m.barrier.arrived.Add(-1)
		}
		if rpc > 0 {
			c.ForceDisband(now, rpc)
		} else {
			c.ForceHalt()
			m.active.Add(-1)
		}
	}
	m.formation[gid] = genBarrier{}
}

// FaultReport summarizes the run's fault activity (nil without a plan).
// Valid on both success and failure paths. Its counters are read off the
// spine (collect + fold) like every other consumer's; only the topology
// lists, the stuck-queue and escalation counts, which stats does not hold,
// accumulate in the report itself as the events land.
func (m *Machine) FaultReport() *fault.Report {
	if m.inj == nil {
		return nil
	}
	m.collect()
	st, c, r := m.Stats, trace.Fold(m.Stats, m.roleOf), m.report
	r.Fired = m.inj.Fired()
	r.Retransmits = c.Noc.Retrans
	r.DroppedFlits = c.Noc.Dropped
	r.CorruptFlits = c.Noc.Corrupt
	r.FlipsFrame = int(st.SpadFlipsFrame)
	r.FlipsData = int(st.SpadFlipsData)
	r.FlippedWords = r.FlipsFrame + r.FlipsData
	r.FramePoisons = c.Frames.Poisons
	r.FrameReplays = c.Frames.Replays
	r.ReplayRetries = c.Frames.Retries
	r.Checkpoints = c.Engine.Checkpoints
	r.RouteRebuilds = st.NocRouteRebuilds
	r.ReroutedFlits = st.NocReroutedFlits
	r.DetourHops = st.NocDetourHops
	r.BankFailovers = st.LLCBankFailovers
	return r
}

// step advances the whole machine one cycle through the engine.
func (m *Machine) step() {
	m.engine.Tick(m.now)
	m.now++
}

// Step advances the machine exactly one cycle with no idle fast-forward,
// watchdog, or budget checks — the single-step hook for debuggers and for
// tests that assert per-cycle properties (e.g. steady-state allocation).
// Run and a Step loop produce identical architectural state cycle for
// cycle; only Run's bookkeeping (checkpoints, deadlock watchdog, final
// stats collection) is skipped.
func (m *Machine) Step() { m.step() }

// fastForward skips the machine straight to the next scheduled event when
// nothing can make progress before it: the mesh is empty, every LLC bank is
// a no-op, no barrier release is due, and every core reports a pure stall.
// The skip is architecturally invisible — every stall histogram is
// backfilled with exactly the cycles stepping would have recorded — and is
// capped at the next watchdog checkpoint and at limit, so the watchdog and
// budget aborts fire at the same cycle the stepping engine aborts at.
// Returns false when the machine must step normally.
func (m *Machine) fastForward(limit int64) bool {
	if m.meshReq.QueuedFlits() > 0 || m.meshResp.QueuedFlits() > 0 || len(m.reinjectQ) > 0 {
		return false
	}
	for _, b := range m.llcs {
		if !b.Idle() {
			return false
		}
	}
	if m.barPending && m.dram.Pending() == 0 {
		return false // release due at the next core phase
	}
	// Event horizon: DRAM completions and scheduled fault events ...
	horizon := m.dram.NextDoneAt()
	if m.inj != nil {
		if nd := m.inj.NextDiscrete(); nd < horizon {
			horizon = nd
		}
	}
	// ... plus every core's self-scheduled wake. Any active core vetoes.
	if len(m.ffKinds) < len(m.cores) {
		m.ffKinds = make([]stats.StallKind, len(m.cores))
	}
	for t, c := range m.cores {
		quiet, until, kind := c.IdleUntil(m.now)
		if !quiet {
			return false
		}
		m.ffKinds[t] = kind
		if until < horizon {
			horizon = until
		}
	}
	// Never skip a watchdog checkpoint or the cycle budget.
	if next := (m.now/m.checkEvery + 1) * m.checkEvery; next < horizon {
		horizon = next
	}
	if limit < horizon {
		horizon = limit
	}
	if horizon <= m.now {
		return false
	}
	// Parked shards carry un-back-filled cycles; settle them before the
	// global skip layers its own back-fill on top.
	m.engine.Sync(m.now)
	n := horizon - m.now
	for t, c := range m.cores {
		c.SkipIdle(n, m.ffKinds[t])
	}
	m.meshReq.FastForward(n)
	m.meshResp.FastForward(n)
	m.Stats.FastForwards++
	m.Stats.SkippedCycles += n
	if m.rec != nil {
		m.rec.Span(trace.EvFastForward, m.now, n, m.tidMachine())
	}
	m.now = horizon
	return true
}

// faultErr wraps a component error into a FaultError with the current cycle
// and state dump (idempotent: an already-structured error passes through).
func (m *Machine) faultErr(tile int, err error) error {
	var fe *FaultError
	if errors.As(err, &fe) {
		return err
	}
	return &FaultError{Cycle: m.now, Tile: tile, Err: err, State: m.debugState()}
}

// checkLifecycle enforces cancellation and the wall-clock budget. Called
// only at watchdog checkpoints, so a run that completes is cycle-identical
// whether or not a context/deadline was attached, and the per-checkpoint
// cost (one atomic load, one clock read) is amortized over CheckEvery
// cycles.
func (m *Machine) checkLifecycle() error {
	if m.ctx != nil {
		if cerr := m.ctx.Err(); cerr != nil {
			return &FaultError{Cycle: m.now, Tile: -1,
				Err: fmt.Errorf("machine: run canceled: %w", cerr)}
		}
	}
	if !m.wallDeadline.IsZero() && time.Now().After(m.wallDeadline) {
		m.flight.Note(m.now, "wall_budget", "wall-clock watchdog expired")
		return &FaultError{Cycle: m.now, Tile: -1,
			Err:   fmt.Errorf("machine: %w", lifecycle.ErrWallBudget),
			State: m.debugState()}
	}
	return nil
}

func (m *Machine) checkComponents() error {
	if err := m.firstErr(); err != nil {
		return m.faultErr(-1, err)
	}
	for _, b := range m.llcs {
		if err := b.Err(); err != nil {
			return m.faultErr(-1, err)
		}
	}
	for t, s := range m.spads {
		if err := s.Err(); err != nil {
			// Scratchpads stamp the cycle a violation latched at, so the
			// error carries the occurrence cycle rather than the (up to
			// CheckEvery later) cycle the sweep noticed it.
			fe := &FaultError{Cycle: m.now, Tile: t, Err: err, State: m.debugState()}
			if c := s.ErrCycle(); c >= 0 {
				fe.Cycle = c
			}
			return fe
		}
	}
	if err := m.meshReq.Err(); err != nil {
		return m.faultErr(-1, err)
	}
	if err := m.meshResp.Err(); err != nil {
		return m.faultErr(-1, err)
	}
	if err := m.Global.Err(); err != nil {
		return m.faultErr(-1, err)
	}
	return nil
}

// Run simulates until every core halts (plus memory drain), or maxCycles
// elapse, or a simulation error surfaces. It returns the collected stats.
// A progress watchdog aborts early (with a per-core state dump) when no
// core issues an instruction for a long stretch: a deadlocked program.
// Every failure path returns a *FaultError; a panic anywhere in the cycle
// loop (a simulator bug) is recovered into one rather than taking down the
// caller.
func (m *Machine) Run(maxCycles int64) (st *stats.Machine, err error) {
	// The simulated-throughput meter times the run loop alone; the deferred
	// add runs on every exit path, including panics turned into errors.
	runStart := time.Now()
	defer func() { m.Stats.WallNs += int64(time.Since(runStart)) }()
	// Every exit path — completion, error return, recovered panic — leaves
	// fresh totals in m.Stats, then flushes the final (partial) telemetry
	// window from them, so a failed run's window sums match its aggregates
	// too. Declared before the recover handler so it runs after it (LIFO)
	// and an interrupted or panicked run flushes truncation-marked outputs.
	defer func() {
		if err != nil {
			if m.sampler != nil {
				m.sampler.MarkTruncated()
			}
			if m.rec != nil {
				m.rec.MarkTruncated()
			}
		}
		m.collect()
		m.sample(true)
		// Final counter publish, then free the plane's machine slot for the
		// next attempt/run; the snapshot provider stays installed so
		// /debug/machine serves this machine's last state until then.
		m.publishObs()
		m.releaseObs()
	}()
	defer func() {
		if r := recover(); r != nil {
			st = m.Stats
			fe := &FaultError{Cycle: m.now, Tile: -1, State: m.debugState()}
			if pe, ok := r.(*sim.PanicError); ok {
				// Engine-worker panic: keep the worker's stack, which points
				// at the component that died rather than the re-raise site.
				fe.Err = fmt.Errorf("machine: internal panic: %v", pe.Val)
				fe.Stack = string(pe.Stack)
			} else {
				fe.Err = fmt.Errorf("machine: internal panic: %v", r)
				fe.Stack = string(debug.Stack())
			}
			err = fe
		}
	}()
	m.engine.Start()
	defer m.engine.Stop()
	var lastIssued int64 = -1
	var stalled int64
	for m.active.Load() > 0 {
		// Idle fast-forward: when stepping can only record stalls, jump to
		// the next event; the skip never crosses a checkpoint or the
		// budget, so the checks below fire at the serial engine's cycles.
		m.stepOrSkip(maxCycles)
		if m.sampler != nil && m.sampler.Due(m.now) {
			m.sample(false)
		}
		if m.now%m.checkEvery == 0 {
			m.publishObs()
			if err := m.checkLifecycle(); err != nil {
				return m.Stats, err
			}
			if err := m.checkComponents(); err != nil {
				return m.Stats, err
			}
			issued := m.meter.Total()
			if issued == lastIssued {
				stalled++
				if stalled >= m.stallLimit {
					derr := fmt.Errorf("%w: no instruction issued for %d cycles",
						ErrDeadlock, stalled*m.checkEvery)
					m.flight.Note(m.now, "watchdog", derr.Error())
					return m.Stats, m.faultErr(-1, derr)
				}
			} else {
				stalled = 0
				lastIssued = issued
			}
		}
		if m.now >= maxCycles {
			return m.Stats, m.faultErr(-1, fmt.Errorf("machine: no completion after %d cycles (%d cores active): likely deadlock or undersized budget",
				maxCycles, m.active.Load()))
		}
	}
	if err := m.checkComponents(); err != nil {
		return m.Stats, err
	}
	// Drain in-flight stores and responses so the flush below is complete.
	drainDeadline := m.now + maxCycles
	for len(m.reinjectQ) > 0 || m.meshReq.Busy() || m.meshResp.Busy() || m.dram.Pending() > 0 || m.llcsBusy() {
		m.stepOrSkip(drainDeadline)
		if m.sampler != nil && m.sampler.Due(m.now) {
			m.sample(false)
		}
		if m.now >= drainDeadline {
			return m.Stats, m.faultErr(-1, fmt.Errorf("machine: memory system failed to drain"))
		}
		if m.now%m.checkEvery == 0 {
			m.publishObs()
			if err := m.checkLifecycle(); err != nil {
				return m.Stats, err
			}
		}
		if err := m.checkComponents(); err != nil {
			return m.Stats, err
		}
	}
	if err := m.checkComponents(); err != nil {
		return m.Stats, err
	}
	for _, b := range m.llcs {
		b.FlushTo(m.Global)
	}
	m.engine.Sync(m.now)
	if m.causal != nil {
		// After Sync: parked cores' back-filled cycles are in the tile
		// recorders, so the final interval's totals are complete.
		m.causal.Finish(m.now)
	}
	return m.Stats, nil
}

// CausalProfile returns the finished causal profile, or nil when causal
// recording was not enabled for this run.
func (m *Machine) CausalProfile() *causal.Profile {
	if m.causal == nil {
		return nil
	}
	return m.causal.Profile()
}

// causalArrive books a response delivery into the destination tile's
// recorder. The journey stamps decompose the round trip into request NoC,
// DRAM queue, DRAM latency, bank residence, and response NoC cycles; the
// bank residence (the remainder, so clock skew never makes components
// exceed the total) is further split into mesh-gating, queue wait, and
// service via the bank's CGated/CLlcQ stamps, and the request leg into its
// minimum-hop floor (manhattan distance x hop latency) and the queueing
// excess above it. Floor and service book to traversal/service classes;
// the excesses book to ClassNocContend/ClassLLCQ — the shares bank count
// and link bandwidth actually drive. The response leg stays whole: its
// congestion is the destination-side ejection funnel, which neither knob
// relieves per-endpoint, only link bandwidth — so it rides ClassNocResp.
func (m *Machine) causalArrive(node int, f *msg.Message) {
	if f.CIssue == 0 || f.CInject == 0 {
		return
	}
	total := m.now - f.CIssue
	nocResp := m.now - f.CInject
	bank := total - int64(f.CNocReq) - int64(f.CDramQ) - int64(f.CDramLat) - nocResp
	gated := int64(f.CGated)
	if gated > bank {
		gated = bank
	}
	if gated < 0 {
		gated = 0
	}
	llcq := int64(f.CLlcQ)
	if llcq > bank-gated {
		llcq = bank - gated
	}
	if llcq < 0 {
		llcq = 0
	}
	svc := bank - gated - llcq
	w := m.Cfg.MeshWidth
	src := int(f.Src)
	dx, dy := src%w-node%w, src/w-node/w
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	hopLat := m.Cfg.RouterHopLat
	if hopLat < 1 {
		hopLat = 1
	}
	floor := int64((dx + dy) * hopLat)
	reqDist, reqCont := int64(f.CNocReq), int64(0)
	if reqDist > floor {
		reqDist, reqCont = floor, reqDist-floor
	}
	m.causal.Tile(node).Arrive(m.now, causal.Journey{
		ReqDist: reqDist, ReqCont: reqCont,
		DramQ: int64(f.CDramQ), DramLat: int64(f.CDramLat),
		LLCQ: llcq, LLC: svc, Gated: gated, Resp: nocResp,
	})
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
// date: it settles the stall accounting parked shards defer, then copies
// the counters components own (mesh planes, DRAM, topology-fault tallies)
// into it. It is the only reader of those component fields; the sampler,
// the plane publisher, FaultReport and report.json all read m.Stats (through
// trace.Fold) after it. Idempotent, serial-phase only, allocation-free.
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
	st.NocReroutedFlits = m.reroutedFlits
	st.NocDetourHops = m.meshReq.DetourHops + m.meshResp.DetourHops
	st.NocDroppedDead = m.meshReq.DroppedDead + m.meshResp.DroppedDead
	st.LLCBankFailovers = m.bankFailovers.Load()
	st.DramDegradedOps = m.dram.DegradedOps
	if m.report != nil {
		st.CutLinks = int64(len(m.report.CutLinks))
		st.DeadRouters = int64(len(m.report.DeadRouters))
		st.DeadBanks = int64(len(m.report.DeadBanks))
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

// debugState summarizes non-halted cores for deadlock diagnostics.
func (m *Machine) debugState() string {
	out := ""
	n := 0
	for _, c := range m.cores {
		if c.Halted() {
			continue
		}
		if n >= 12 {
			out += "  ...\n"
			break
		}
		out += "  " + c.DebugState() + "\n"
		n++
	}
	return out
}

// ExpanderTiles returns the expander core of each group (Figure 13 averages
// CPI events over expander cores only).
func (m *Machine) ExpanderTiles() []int {
	var out []int
	for _, g := range m.Groups {
		out = append(out, g.Expander)
	}
	return out
}

// LaneTiles returns every vector-lane tile across groups.
func (m *Machine) LaneTiles() []int {
	var out []int
	for _, g := range m.Groups {
		out = append(out, g.Lanes...)
	}
	return out
}

// AllTiles returns 0..Cores-1.
func (m *Machine) AllTiles() []int {
	out := make([]int, m.Cfg.Cores)
	for i := range out {
		out[i] = i
	}
	return out
}
