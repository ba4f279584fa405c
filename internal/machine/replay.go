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
// All replay state lives in the "mem" stage prologue, which runs before any
// bank ticks.
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
// snapshot at the next barrier release, which the core prologue consumes.
func (m *Machine) ArmCheckpoint() {
	if m.faults != nil {
		m.faults.ckptArmed = true
	}
}

// Checkpoint returns the latest published checkpoint, if any. It stays
// valid after Run returns, including on failed runs — that is the point —
// and after Recycle; the caller owns its image from then on. A run that
// publishes a newer checkpoint recycles the older one's image, so read it
// only once the machine has stopped.
func (m *Machine) Checkpoint() *Checkpoint {
	if m.faults == nil {
		return nil
	}
	return m.faults.ckpt
}

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
func (fs *faultStack) snapshotSafe() bool {
	for _, s := range fs.spads {
		if s.Suspect() {
			return false
		}
	}
	return true
}

// barrierReleased publishes the memory image if a checkpoint is armed: at
// the release every earlier store has drained and no core is past the
// barrier, so the image is a consistent cut, and only dirty LLC lines differ
// from the backing store. Skipped (but disarmed) when a scratchpad may hold
// unrepaired corruption.
func (fs *faultStack) barrierReleased(now int64) {
	armed := fs.ckptArmed
	fs.ckptArmed = false
	if !armed || !fs.snapshotSafe() {
		return
	}
	im := fs.Global.Snapshot()
	for _, b := range fs.llcs {
		b.OverlayDirty(im)
	}
	if fs.ckpt != nil {
		fs.ckpt.Image.Recycle() // replaced: nothing outside the run has read it
	}
	fs.ckptBuf = Checkpoint{Cycle: now, Image: im}
	fs.ckpt = &fs.ckptBuf
	fs.announce(trace.EvCheckpoint, now, fs.tidMachine(), int64(im.Pages()), int64(im.Size()/4))
	fs.Stats.Checkpoints++
}

// tickReplays is the replay manager's once-per-cycle scan ("mem" prologue):
// start replays for newly poisoned frames and drive in-flight
// ones.
func (fs *faultStack) tickReplays(now int64) {
	for t, s := range fs.spads {
		if rs := fs.replays[t]; rs != nil {
			fs.driveReplay(now, rs)
			continue
		}
		if s.Poisoned() && !s.Dead() {
			fs.startReplay(now, t)
		}
	}
}

// startReplay reconstructs the poisoned head frame's vload traffic from the
// scratchpad's delivery record and begins injecting it.
func (fs *faultStack) startReplay(now int64, t int) {
	s := fs.spads[t]
	segs, complete := s.HeadSegments()
	if !complete {
		// The frame wasn't filled purely by vloads (or the record is torn):
		// nothing to replay from. Escalate straight away.
		fs.escalateReplay(now, t)
		return
	}
	lineBytes := uint32(fs.Cfg.CacheLineBytes)
	rs := &fs.replaySlots[t]
	chunks := rs.chunks[:0]
	for _, g := range segs {
		addr, off, left := g.Addr, g.Off, g.Words
		for left > 0 {
			lineEnd := (addr &^ (lineBytes - 1)) + lineBytes
			n := int(lineEnd-addr) / 4
			if n > left {
				n = left
			}
			chunks = append(chunks, msg.Message{
				Kind: msg.KindVloadReq, Src: msg.Node(t), Dst: msg.Node(fs.LLCNodeFor(addr)),
				Addr: addr, Words: uint16(n), SpadOff: off,
				Vload: msg.Vload{Dist: isa.VloadSelf, Width: uint16(n)},
				Group: -1, ReqCore: msg.Node(t),
			})
			addr += uint32(4 * n)
			off += uint32(4 * n)
			left -= n
		}
	}
	s.BeginReplay()
	fs.announce(trace.EvReplayStart, now, int64(t), int64(len(chunks)), s.HeadSeq())
	*rs = replayState{tile: t, chunks: chunks, tries: 1, deadline: now + replayTimeout}
	fs.replays[t] = rs
	fs.driveReplay(now, rs)
}

// driveReplay advances one replay: inject pending chunks (resuming across
// cycles under backpressure), then watch for verification, re-poisoning, or
// timeout.
func (fs *faultStack) driveReplay(now int64, rs *replayState) {
	s := fs.spads[rs.tile]
	if s.Dead() || s.Err() != nil {
		fs.replays[rs.tile] = nil
		return
	}
	if now < rs.retryAt {
		return
	}
	if rs.next < len(rs.chunks) {
		for rs.next < len(rs.chunks) {
			if !fs.meshReq.TrySend(&rs.chunks[rs.next]) {
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
		fs.retryReplay(now, rs)
		return
	}
	if !s.Replaying() {
		// Verification passed: the frame is clean and the consumer unblocks.
		fs.announce(trace.EvReplayOK, now, int64(rs.tile), int64(rs.tries))
		fs.Stats.Cores[rs.tile].FrameReplays++
		fs.replays[rs.tile] = nil
		return
	}
	if now >= rs.deadline {
		// Data never (fully) arrived: request or response lost or stuck.
		fs.retryReplay(now, rs)
	}
}

// retryReplay re-issues the whole replay after backoff, or escalates once
// the retry budget is spent.
func (fs *faultStack) retryReplay(now int64, rs *replayState) {
	if rs.tries >= replayMaxTries {
		fs.replays[rs.tile] = nil
		fs.escalateReplay(now, rs.tile)
		return
	}
	rs.tries++
	rs.next = 0
	rs.retryAt = now + replayBackoff<<(rs.tries-2)
	rs.deadline = rs.retryAt + replayTimeout<<(rs.tries-1)
	fs.announce(trace.EvReplayRetry, now, int64(rs.tile), int64(rs.tries))
	fs.spads[rs.tile].BeginReplay()
	fs.Stats.Cores[rs.tile].ReplayRetries++
}

// escalateReplay hands an unrepairable frame to the degradation ladder: a
// grouped tile breaks its vector group (survivors devectorize through the
// program's recovery point); an ungrouped tile latches a structured error so
// the run restarts.
func (fs *faultStack) escalateReplay(now int64, t int) {
	fs.report.ReplayEscalations++
	fs.announce(trace.EvReplayEscalate, now, int64(t))
	s := fs.spads[t]
	if gid := fs.tileGroup[t]; gid >= 0 && !fs.brokenGroups[gid] {
		s.AbandonReplay()
		fs.breakGroup(now, gid)
		fs.checkBarrier()
		return
	}
	s.FailReplay()
	if s.Err() == nil {
		// FailReplay latches unless an earlier error won; make sure the run
		// stops either way.
		fs.Error(fmt.Errorf("machine: tile %d: frame replay escalation with no group to break", t))
	}
}
