package prog

import (
	"math"

	"rockcress/internal/config"
	"rockcress/internal/isa"
)

func f32bits(v float32) uint32 { return math.Float32bits(v) }

// ForI emits a counted loop: for i = start; i < stop; i += step { body }.
// Bounds are compile-time constants, so an empty range emits nothing and a
// non-empty one needs no guard: the body always runs at least once.
func (b *Builder) ForI(i isa.Reg, start, stop, step int32, body func()) {
	if start >= stop {
		return // statically empty
	}
	bound := b.Int()
	b.Li(i, start)
	b.Li(bound, stop)
	top := b.NewLabel("for")
	b.Label(top)
	body()
	b.Addi(i, i, step)
	b.Blt(i, bound, top)
	b.FreeInt(bound)
}

// ConfigFrames emits the CsrFrameCfg write (§2.3.1): frame size in words
// and the number of frames (bounded by the hardware counters).
func (b *Builder) ConfigFrames(words, frames int) {
	tmp := b.Int()
	b.LiU(tmp, uint32(words)|uint32(frames)<<16)
	b.Csrw(isa.CsrFrameCfg, tmp)
	b.FreeInt(tmp)
}

// Vectorize emits the vconfig write that enters vector mode (the VECTORIZE
// macro). All tiles of a group must reach it; formation has barrier-like
// latency (§2.1).
func (b *Builder) Vectorize() {
	tmp := b.Int()
	b.Li(tmp, 1)
	b.Csrw(isa.CsrVconfig, tmp)
	b.FreeInt(tmp)
}

// Devectorize emits the scalar core's devec, sending vector cores back to
// independent execution at resume (the DEVECTORIZE macro).
func (b *Builder) Devectorize(resume string) {
	b.emitRef(isa.Instr{Op: isa.OpDevec}, resume)
}

// Microthread emits body into the deferred microthread section, terminated
// by vend, and returns its label and static instruction count. The body
// runs on every vector core with per-lane register state that persists
// across invocations (§4.1). Issue it with VIssueAt — repeatedly, if the
// scalar loop re-launches the same microthread.
func (b *Builder) Microthread(body func()) (label string, length int) {
	if b.inMT {
		b.fail("nested microthread")
		return "", 0
	}
	label = b.NewLabel("mt")
	b.inMT = true
	b.Label(label)
	start := len(b.mts)
	body()
	b.Emit(isa.Instr{Op: isa.OpVend})
	length = len(b.mts) - start
	b.inMT = false
	return label, length
}

// VIssueAt emits a vissue launching the microthread at label.
func (b *Builder) VIssueAt(label string) {
	b.emitRef(isa.Instr{Op: isa.OpVissue}, label)
}

// VLoad emits one wide load (the VECTOR_LOAD macro). addr and spadOff are
// registers holding the global byte address and destination scratchpad byte
// offset; width is words per receiving core.
func (b *Builder) VLoad(dist isa.VloadDist, addr, spadOff isa.Reg, baseLane, width int, float bool) {
	b.Emit(isa.Instr{
		Op: isa.OpVload, Rs1: addr, Rs2: spadOff,
		Vl: isa.VloadArgs{BaseLane: baseLane, Width: width, Dist: dist, Part: isa.VloadWhole, Float: float},
	})
}

// VLoadUnaligned emits the suffix/prefix instruction pair that together
// fetch a block which may straddle a cache-line boundary (§2.3.2).
func (b *Builder) VLoadUnaligned(dist isa.VloadDist, addr, spadOff isa.Reg, baseLane, width int, float bool) {
	for _, part := range []isa.VloadPart{isa.VloadSuffix, isa.VloadPrefix} {
		b.Emit(isa.Instr{
			Op: isa.OpVload, Rs1: addr, Rs2: spadOff,
			Vl: isa.VloadArgs{BaseLane: baseLane, Width: width, Dist: dist, Part: part, Float: float},
		})
	}
}

// FrameStart emits frame_start: rd receives the head frame's byte offset
// once all of its data has arrived.
func (b *Builder) FrameStart(rd isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpFrameStart, Rd: rd})
}

// Remem frees the current frame.
func (b *Builder) Remem() { b.Emit(isa.Instr{Op: isa.OpRemem}) }

// PredEq sets the predication flag to (rs1 == rs2); PRED_EQ(0,0) re-enables.
func (b *Builder) PredEq(rs1, rs2 isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpPredEq, Rs1: rs1, Rs2: rs2})
}

// PredNeq sets the predication flag to (rs1 != rs2).
func (b *Builder) PredNeq(rs1, rs2 isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpPredNeq, Rs1: rs1, Rs2: rs2})
}

// PredOn re-enables execution unconditionally.
func (b *Builder) PredOn() { b.PredEq(isa.X0, isa.X0) }

// AheadOffset implements the implicit-synchronization math of §4.2: how
// many frames the scalar core may run ahead without overrunning the frame
// counters. side is the group's lane-square side m (the longest forwarding
// path is 2m-2); mtLen is the microthread's dynamic instruction count.
func AheadOffset(cfg config.Manycore, side, mtLen int) int {
	if mtLen < 1 {
		mtLen = 1
	}
	// n bounds how far apart (in dynamic instructions) any two cores in the
	// group can be: inet queueing along the longest path plus pipeline slack.
	const pipelineSlack = 6 // decode/issue/writeback buffering in our model
	n := (2*side-2)*cfg.InetQueueEntries + pipelineSlack
	numActive := (n + mtLen - 1) / mtLen
	ahead := cfg.FrameCounters - (numActive + cfg.InetQueueEntries)
	if ahead < 0 {
		ahead = 0
	}
	return ahead
}
