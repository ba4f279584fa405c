package machine

import (
	"math"

	"rockcress/internal/fault"
	"rockcress/internal/mem"
	"rockcress/internal/msg"
	"rockcress/internal/noc"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// faultStack is the fault-injection and recovery attachment (this file,
// topology.go, replay.go). Machine.faults is nil on a fault-free machine;
// the fabric enters the stack only through preMem, barrierReleased,
// nextEvent, recovering, drained and tally.
type faultStack struct {
	*Machine // the fabric the stack acts on

	inj          *fault.Injector
	report       *fault.Report
	brokenGroups []bool

	// Flits harvested across a topology transition, until the network
	// re-accepts them on their kind's plane.
	reinjectQ     []msg.Message
	reroutedFlits int64

	replays []*replayState // per tile; the slice is nil under Params.NoReplay

	// Checkpointing: armed by csrw ckpt in the core stage, consumed at the
	// barrier release.
	ckptArmed bool
	ckpt      *Checkpoint
}

// checkFaults rejects a fault plan that does not fit the fabric p.Cfg
// describes. New asks it before allocating anything.
func checkFaults(p Params) error {
	if p.Faults == nil {
		return nil
	}
	return p.Faults.ValidateGeometry(fault.Geometry{
		Cores: p.Cfg.Cores, MeshW: p.Cfg.MeshWidth, MeshH: p.Cfg.MeshHeight,
		Banks: p.Cfg.LLCBanks,
	})
}

// attachFaults builds the fault stack for p.Faults, which checkFaults
// passed, on a wired fabric.
func (m *Machine) attachFaults(p Params) {
	fs := &faultStack{
		Machine:      m,
		inj:          fault.NewInjector(p.Faults),
		report:       &fault.Report{},
		brokenGroups: make([]bool, len(m.Groups)),
	}
	if fs.inj.HasLinkFaults() {
		m.meshReq.SetLinkJudge(fs.linkJudge(fault.PlaneReq))
		m.meshResp.SetLinkJudge(fs.linkJudge(fault.PlaneResp))
	}
	// Only consulted once a mesh runs its fault-aware table.
	m.meshReq.SetDeadDstHandler(m.deadDstPolicy)
	m.meshResp.SetDeadDstHandler(m.deadDstPolicy)
	if !p.NoReplay {
		mem.EnableIntegrity(m.spads)
		fs.replays = make([]*replayState, len(m.spads))
	}
	m.faults = fs
}

// preMem is the stack's share of the mem prologue: faults land, flits
// re-inject and replays advance before any bank ticks.
func (fs *faultStack) preMem(now int64) {
	if now >= fs.inj.NextDiscrete() {
		// Faults mutate cores and queues out of band (kill, armed panic,
		// stuck inet): settle parked shards' stall back-fill against
		// pre-fault state, and wake them all so every Park verdict is taken
		// again and an armed panic cannot sleep through its own cycle.
		fs.engine.Sync(now)
		fs.engine.WakeAll()
		fs.applyFaults(now)
	}
	if len(fs.reinjectQ) > 0 {
		fs.drainReinject()
	}
	if fs.replays != nil {
		fs.tickReplays(now)
	}
}

// drained reports that no harvested flit waits to re-enter the network;
// nil-safe.
func (fs *faultStack) drained() bool { return fs == nil || len(fs.reinjectQ) == 0 }

// nextEvent is the cycle of the next discrete fault, which bounds the run
// loop's jump; nil-safe.
func (fs *faultStack) nextEvent() int64 {
	if fs == nil {
		return math.MaxInt64
	}
	return fs.inj.NextDiscrete()
}

// recovering reports that preMem has work at the coming cycle that no shard's
// wake announces — flits to reinject, a replay to drive against its
// deadlines, a poisoned frame to start one for — so the run loop must step;
// nil-safe.
func (fs *faultStack) recovering() bool {
	if fs == nil {
		return false
	}
	if !fs.drained() {
		return true
	}
	for t, rs := range fs.replays {
		if rs != nil || fs.spads[t].Poisoned() && !fs.spads[t].Dead() {
			return true
		}
	}
	return false
}

// tally copies the counters the stack owns into the spine (collect).
func (fs *faultStack) tally(st *stats.Machine) {
	st.NocReroutedFlits = fs.reroutedFlits
	st.CutLinks = int64(len(fs.report.CutLinks))
	st.DeadRouters = int64(len(fs.report.DeadRouters))
	st.DeadBanks = int64(len(fs.report.DeadBanks))
}

// FaultReport is the run's fault record (nil without a plan): what died,
// what broke and which plan events fired. Valid on both success and failure
// paths. Its counts live in m.Stats, which Run's exit path has collected.
func (m *Machine) FaultReport() *fault.Report {
	if m.faults == nil {
		return nil
	}
	m.faults.report.Fired = m.faults.inj.Fired()
	return m.faults.report
}

// linkJudge adapts the injector's verdicts to one mesh plane.
func (fs *faultStack) linkJudge(plane fault.Plane) noc.LinkJudge {
	return func(now int64, from, to int) noc.LinkVerdict {
		switch fs.inj.Judge(plane, now, from, to) {
		case fault.VerdictDrop:
			return noc.LinkDrop
		case fault.VerdictCorrupt:
			return noc.LinkCorrupt
		}
		return noc.LinkOK
	}
}

// applyFaults fires every discrete event scheduled at or before now.
func (fs *faultStack) applyFaults(now int64) {
	for _, e := range fs.inj.TakeDiscrete(now) {
		switch e.Kind {
		case fault.KillTile:
			fs.killTile(now, e.Tile)
		case fault.PanicTile:
			// The panic itself fires in the core stage (the next Tick), not
			// here: arming in the fault step keeps the injection
			// deterministic while the crash lands where a real defect would.
			fs.cores[e.Tile].ArmPanic()
		case fault.StickInetQueue:
			if fs.cores[e.Tile].StickInet(now + e.Duration) {
				fs.report.StuckQueues++
				fs.announce(trace.EvFaultStick, now, int64(e.Tile), e.Duration)
			}
		case fault.CutLink:
			fs.cutLink(now, e)
		case fault.KillRouter:
			fs.killRouter(now, e.Tile)
		case fault.KillBank:
			fs.killBank(now, e.Bank)
		case fault.DramDegrade:
			fs.dram.Degrade(e.Cycle, e.Until, e.Factor)
			fs.announce(trace.EvFaultDramDegrade, now, fs.tidMachine(), int64(e.Factor*100), e.Until)
		case fault.FlipSpadWord:
			if landed, inFrame := fs.spads[e.Tile].FlipBit(e.Offset, e.Bit); landed {
				fs.announce(trace.EvFaultFlip, now, int64(e.Tile), int64(e.Bit), int64(e.Offset))
				if inFrame {
					fs.Stats.SpadFlipsFrame++
				} else {
					fs.Stats.SpadFlipsData++
				}
			}
		}
	}
}

// killTile powers tile t off: the core stops, its scratchpad ignores all
// further traffic (including in-flight vload data), and any vector group it
// belonged to is broken. Barrier and active-count bookkeeping are adjusted
// so the rest of the fabric keeps running.
func (fs *faultStack) killTile(now int64, t int) {
	c := fs.cores[t]
	if c.Dead() {
		return
	}
	if !c.Halted() {
		if c.InBarrier() {
			fs.barrier.arrived--
		}
		fs.active--
	}
	c.Kill()
	fs.announce(trace.EvFaultKill, now, int64(t))
	fs.spads[t].Decommission()
	if fs.replays != nil {
		fs.replays[t] = nil // a dead tile's frames are beyond repair
	}
	fs.report.DeadTiles = append(fs.report.DeadTiles, t)
	if gid := fs.tileGroup[t]; gid >= 0 {
		fs.breakGroup(now, gid)
	}
	fs.checkBarrier()
}

// breakGroup devectorizes a group that lost a member: every surviving tile
// is forced back to independent MIMD mode at the program's recovery point
// (or halted when the program declares none). The group's formation
// rendezvous is reset so the group id is dead for the rest of the run.
func (fs *faultStack) breakGroup(now int64, gid int) {
	if fs.brokenGroups[gid] {
		return
	}
	// Members may be parked (a lane waiting on its inet queue, a core in
	// the barrier): back-fill their skipped stalls against the pre-disband
	// state before ForceDisband/ForceHalt rewrite it, and wake them to tick
	// from the rewritten one.
	fs.engine.Sync(now)
	fs.engine.WakeAll()
	fs.brokenGroups[gid] = true
	fs.report.BrokenGroups = append(fs.report.BrokenGroups, gid)
	fs.announce(trace.EvRecoverGroupBreak, now, int64(fs.Groups[gid].Scalar), int64(gid))
	rpc := fs.Prog.RecoverPC
	for _, t := range fs.Groups[gid].Tiles() {
		c := fs.cores[t]
		if c.Halted() {
			continue
		}
		if c.InBarrier() {
			fs.barrier.arrived--
		}
		if rpc > 0 {
			c.ForceDisband(now, rpc)
		} else {
			c.ForceHalt()
			fs.active--
		}
	}
	fs.formation[gid] = genBarrier{}
}
