package machine

import (
	"fmt"

	"rockcress/internal/isa"
	"rockcress/internal/mem"
	"rockcress/internal/msg"
	"rockcress/internal/trace"
)

// Frame replay: when an integrity-checked scratchpad poisons its head frame
// (parity mismatch at frame-open), the machine re-issues the frame's vload
// traffic as narrow self vloads reconstructed from the scratchpad's delivery
// record. The consumer core simply keeps frame-stalling until the refilled
// frame passes verification; no program cooperation is needed. Retries are
// bounded with exponential backoff: a replay whose data never arrives (stuck
// bank, lossy links) or never verifies re-issues a few times and then
// escalates to the existing degradation ladder — break the tile's vector
// group (devectorize), or latch a structured error on an ungrouped tile so
// the harness restarts the run.
//
// All replay state lives in the serial "mem" stage prologue, so cycle counts
// stay bit-identical across engine worker counts.
const (
	// replayMaxTries bounds re-issues of one frame before escalating.
	replayMaxTries = 4
	// replayTimeout is the cycle budget for one replay attempt to fully
	// re-deliver and verify, covering the whole request->LLC->DRAM->response
	// path. Doubles per retry.
	replayTimeout = 1024
	// replayBackoff is the base injection delay after a failed attempt.
	replayBackoff = 32
)

// replayState tracks one in-flight frame replay.
type replayState struct {
	tile     int
	chunks   []msg.Message // line-aligned self-vload requests to inject
	next     int           // next chunk to inject (backpressure resumes here)
	tries    int
	retryAt  int64 // backoff: hold injection until this cycle
	deadline int64 // re-issue if not verified by this cycle
}

// Checkpoint is a consistent global-memory image published at an armed
// barrier release (all stores drained, dirty LLC lines overlaid).
type Checkpoint struct {
	Cycle int64
	Image *mem.Image
}

// ArmCheckpoint implements cpu.Env: the csrw ckpt instruction asks for a
// snapshot at the next barrier release. Callable from the parallel core
// phase; consumed in the serial core prologue.
func (m *Machine) ArmCheckpoint() { m.ckptArmed.Store(true) }

// Checkpoint returns the latest published checkpoint, if any. It stays
// valid after Run returns, including on failed runs — that is the point.
func (m *Machine) Checkpoint() *Checkpoint { return m.ckpt }

// RestoreCheckpoint loads ck's image into global memory before Run: the
// ladder's attempt-th try resumes from it instead of from the initial
// image. The restore pairs with ck's publish on the machine track.
func (m *Machine) RestoreCheckpoint(ck *Checkpoint, attempt int) {
	m.Global.Restore(ck.Image)
	if m.rec != nil {
		m.rec.Instant(trace.EvCheckpointRestore, ck.Cycle, m.tidMachine(), int64(attempt))
	}
}

// snapshotSafe reports whether a checkpoint may be published: no scratchpad
// may hold corruption the integrity layer hasn't repaired (or can't see).
// Without the integrity layer there is no evidence either way; snapshots
// are then gated only on the barrier's own consistency.
func (m *Machine) snapshotSafe() bool {
	for _, s := range m.spads {
		if s.Suspect() {
			return false
		}
	}
	return true
}

// takeCheckpoint publishes the current memory image. Called at a barrier
// release, so the mesh and DRAM are drained and only dirty LLC lines differ
// from the backing store.
func (m *Machine) takeCheckpoint(now int64) {
	im := m.Global.Snapshot()
	for _, b := range m.llcs {
		b.OverlayDirty(im)
	}
	m.ckpt = &Checkpoint{Cycle: now, Image: im}
	if m.rec != nil {
		m.rec.Instant(trace.EvCheckpoint, now, m.tidMachine(), int64(im.Pages()), int64(im.Size()/4))
	}
	m.flight.Note(now, "checkpoint", fmt.Sprintf("%d words published, %d dirty pages (%d KiB) copied",
		im.Size()/4, im.Pages(), im.Bytes()/1024))
	m.Stats.Checkpoints++
}

// tickReplays is the replay manager's once-per-cycle scan (serial "mem"
// prologue): start replays for newly poisoned frames and drive in-flight
// ones.
func (m *Machine) tickReplays(now int64) {
	for t, s := range m.spads {
		if rs := m.replays[t]; rs != nil {
			m.driveReplay(now, rs)
			continue
		}
		if s.Poisoned() && !s.Dead() {
			m.startReplay(now, t)
		}
	}
}

// startReplay reconstructs the poisoned head frame's vload traffic from the
// scratchpad's delivery record and begins injecting it.
func (m *Machine) startReplay(now int64, t int) {
	s := m.spads[t]
	segs, complete := s.HeadSegments()
	if !complete {
		// The frame wasn't filled purely by vloads (or the record is torn):
		// nothing to replay from. Escalate straight away.
		m.escalateReplay(now, t)
		return
	}
	lineBytes := uint32(m.Cfg.CacheLineBytes)
	var chunks []msg.Message
	for _, g := range segs {
		addr, off, left := g.Addr, g.Off, g.Words
		for left > 0 {
			lineEnd := (addr &^ (lineBytes - 1)) + lineBytes
			n := int(lineEnd-addr) / 4
			if n > left {
				n = left
			}
			chunks = append(chunks, msg.Message{
				Kind: msg.KindVloadReq, Src: t, Dst: m.LLCNodeFor(addr),
				Addr: addr, Words: n, SpadOff: off,
				Vload: isa.VloadArgs{Dist: isa.VloadSelf, Width: n},
				Group: -1, ReqCore: t,
			})
			addr += uint32(4 * n)
			off += uint32(4 * n)
			left -= n
		}
	}
	s.BeginReplay()
	if m.rec != nil {
		m.rec.Instant(trace.EvReplayStart, now, int64(t), int64(len(chunks)), s.HeadSeq())
	}
	m.flight.Note(now, "replay.start",
		fmt.Sprintf("tile %d head frame re-issued in %d chunks", t, len(chunks)))
	rs := &replayState{tile: t, chunks: chunks, tries: 1, deadline: now + replayTimeout}
	m.replays[t] = rs
	m.driveReplay(now, rs)
}

// driveReplay advances one replay: inject pending chunks (resuming across
// cycles under backpressure), then watch for verification, re-poisoning, or
// timeout.
func (m *Machine) driveReplay(now int64, rs *replayState) {
	s := m.spads[rs.tile]
	if s.Dead() || s.Err() != nil {
		m.replays[rs.tile] = nil
		return
	}
	if now < rs.retryAt {
		return
	}
	if rs.next < len(rs.chunks) {
		for rs.next < len(rs.chunks) {
			if !m.meshReq.TrySend(rs.chunks[rs.next]) {
				return
			}
			rs.next++
		}
		// Whole re-issue injected; the verify clock starts now, doubling
		// with each attempt.
		rs.deadline = now + replayTimeout<<(rs.tries-1)
		return
	}
	if s.Poisoned() {
		// Refilled but the parity check failed again.
		m.retryReplay(now, rs)
		return
	}
	if !s.Replaying() {
		// Verification passed: the frame is clean and the consumer unblocks.
		if m.rec != nil {
			m.rec.Instant(trace.EvReplayOK, now, int64(rs.tile), int64(rs.tries))
		}
		m.flight.Note(now, "replay.ok",
			fmt.Sprintf("tile %d frame verified after %d tries", rs.tile, rs.tries))
		m.Stats.Cores[rs.tile].FrameReplays++
		m.replays[rs.tile] = nil
		return
	}
	if now >= rs.deadline {
		// Data never (fully) arrived: request or response lost or stuck.
		m.retryReplay(now, rs)
	}
}

// retryReplay re-issues the whole replay after backoff, or escalates once
// the retry budget is spent.
func (m *Machine) retryReplay(now int64, rs *replayState) {
	if rs.tries >= replayMaxTries {
		m.replays[rs.tile] = nil
		m.escalateReplay(now, rs.tile)
		return
	}
	rs.tries++
	rs.next = 0
	rs.retryAt = now + replayBackoff<<(rs.tries-2)
	rs.deadline = rs.retryAt + replayTimeout<<(rs.tries-1)
	if m.rec != nil {
		m.rec.Instant(trace.EvReplayRetry, now, int64(rs.tile), int64(rs.tries))
	}
	m.flight.Note(now, "replay.retry",
		fmt.Sprintf("tile %d replay try %d", rs.tile, rs.tries))
	m.spads[rs.tile].BeginReplay()
	m.Stats.Cores[rs.tile].ReplayRetries++
}

// escalateReplay hands an unrepairable frame to the degradation ladder: a
// grouped tile breaks its vector group (survivors devectorize through the
// program's recovery point); an ungrouped tile latches a structured error so
// the run restarts.
func (m *Machine) escalateReplay(now int64, t int) {
	if m.report != nil {
		m.report.ReplayEscalations++
	}
	if m.rec != nil {
		m.rec.Instant(trace.EvReplayEscalate, now, int64(t))
	}
	m.flight.Note(now, "replay.escalate",
		fmt.Sprintf("tile %d frame unrepairable, escalating", t))
	s := m.spads[t]
	if gid := m.tileGroup[t]; gid >= 0 && !m.brokenGroups[gid] {
		s.AbandonReplay()
		m.breakGroup(now, gid)
		m.checkBarrier()
		return
	}
	s.FailReplay()
	if s.Err() == nil {
		// FailReplay latches unless an earlier error won; make sure the run
		// stops either way.
		m.Error(fmt.Errorf("machine: tile %d: frame replay escalation with no group to break", t))
	}
}
