package kernels

import (
	"sort"

	"rockcress/internal/config"
	"rockcress/internal/isa"
	"rockcress/internal/prog"
)

// Ctx carries everything a benchmark's Build needs: the program builder,
// the input image, the Table 3 software row, the hardware parameters, and
// the group layout, plus the role registers the common prologue fills in.
type Ctx struct {
	B      *prog.Builder
	P      Params
	Img    *Image
	SW     config.Software
	HW     config.Manycore
	Groups []*config.Group

	// Avoid lists dead tiles on a degraded fabric (fault recovery): MIMD
	// builds branch them to an idle halt and renumber the surviving workers
	// densely. Vector builds need no exclusion list — reformed groups simply
	// never include dead tiles, and ungrouped tiles already idle.
	Avoid []int

	// Ckpt instruments every kernel phase as a checkpointed recovery point:
	// a progress word in global memory dispatches past completed phases, and
	// the phase's closing barrier publishes progress and arms a machine
	// snapshot. Only fault-injection runs set it — fault-free builds carry
	// zero extra instructions, keeping golden cycle counts intact.
	Ckpt bool

	// Filled by Begin.
	Tid  isa.Reg // core id (all styles)
	Wid  isa.Reg // dense worker rank among surviving cores (MIMD styles)
	Gid  isa.Reg // group id (vector style; 0xffffffff outside any group)
	Lane isa.Reg // lane id (vector style)

	// DAE frame-slot cursor: the scratchpad's frame queue rotates globally
	// across the whole kernel, so the scalar-side scratchpad offset must be
	// carried across pipeline invocations (resetting it per loop nest was
	// the classic way to deadlock the frame counters).
	daeOff    isa.Reg
	daeRegion isa.Reg
	daeFrameB int32

	idle string

	// Checkpoint protocol state (Ckpt builds only). Kernels may emit phases
	// inside runtime loops (fdtd-2d's timestep loop), so a static phase
	// index cannot dispatch a restart; instead every core counts dynamic
	// phase executions in ckptExec and skips the ones the restored progress
	// word already covers. The static count still fingerprints the build's
	// phase structure for snapshot compatibility.
	phases   int     // static recovery points emitted
	ckptAddr uint32  // global address of the progress word
	ckptExec isa.Reg // per-core dynamic phase-execution counter
}

// NewCtx assembles a build context.
func NewCtx(p Params, img *Image, sw config.Software, hw config.Manycore, groups []*config.Group) *Ctx {
	return &Ctx{
		B: prog.New(sw.Name), P: p, Img: img, SW: sw, HW: hw, Groups: groups,
	}
}

// Vector reports whether this build maps onto vector groups.
func (c *Ctx) Vector() bool { return c.SW.Style == config.StyleVector }

// VLen returns the group vector length (1 for MIMD styles).
func (c *Ctx) VLen() int {
	if !c.Vector() {
		return 1
	}
	return c.SW.VLen
}

// Workers returns how many parallel workers partition the outer loops: the
// surviving cores for the MIMD styles, one per vector group otherwise.
func (c *Ctx) Workers() int {
	if c.Vector() {
		return len(c.Groups)
	}
	return c.HW.Cores - len(c.Avoid)
}

// WorkerID returns the register holding this worker's index.
func (c *Ctx) WorkerID() isa.Reg {
	if c.Vector() {
		return c.Gid
	}
	return c.Wid
}

// LineWords returns the cache line size in words for this build.
func (c *Ctx) LineWords() int { return c.HW.LineWords() }

// Side returns the lane-square side of the vector groups.
func (c *Ctx) Side() int {
	if len(c.Groups) == 0 {
		return 1
	}
	return c.Groups[0].Side
}

// Begin emits the role prologue. Vector builds branch tiles outside any
// group to an idle halt (the evaluation leaves leftover tiles idle, §6.2).
func (c *Ctx) Begin() {
	b := c.B
	if c.Ckpt {
		c.ckptAddr = c.Img.AllocW("__ckpt_progress", []uint32{0}).Addr
		c.ckptExec = b.Int() // held for the whole program
		b.Li(c.ckptExec, 0)
	}
	c.Tid = b.Int()
	b.Csrr(c.Tid, isa.CsrCoreID)
	if !c.Vector() {
		c.Wid = c.Tid
		if len(c.Avoid) > 0 {
			// Degraded fabric: dead tiles idle out; survivors compute a
			// dense rank (tid minus the dead tiles below it) so the work
			// partition stays gapless.
			c.idle = b.NewLabel("idle")
			c.Wid = b.Int()
			b.Addi(c.Wid, c.Tid, 0)
			dead := append([]int(nil), c.Avoid...)
			sort.Ints(dead)
			d := b.Int()
			for _, t := range dead {
				b.Li(d, int32(t))
				b.Beq(c.Tid, d, c.idle)
				skip := b.NewLabel("rank")
				b.Blt(c.Tid, d, skip)
				b.Addi(c.Wid, c.Wid, -1)
				b.Label(skip)
			}
			b.FreeInt(d)
		}
		return
	}
	c.Gid = b.Int()
	c.Lane = b.Int()
	b.Csrr(c.Gid, isa.CsrGroupID)
	b.Csrr(c.Lane, isa.CsrLaneID)
	c.idle = b.NewLabel("idle")
	none := b.Int()
	b.Li(none, -1)
	b.Beq(c.Gid, none, c.idle)
	b.FreeInt(none)
}

// Finish emits the program epilogue and, when Begin created one, the idle
// path. For vector builds the idle label doubles as the fault-recovery
// point: survivors of a broken group jump there and halt cleanly, letting
// the healthy groups finish before the harness re-forms the fabric.
func (c *Ctx) Finish() {
	b := c.B
	b.Halt()
	if c.idle != "" {
		b.Label(c.idle)
		b.Halt()
		if c.Vector() {
			b.Recover(c.idle)
		}
	}
}

// SetupFrames configures the frame queue (CsrFrameCfg) and resets the
// persistent DAE cursor that SelfDAE/VecDAE advance. Call it once per
// kernel phase, before any DAE pipeline.
func (c *Ctx) SetupFrames(frameWords, frames int) {
	b := c.B
	b.ConfigFrames(frameWords, frames)
	if c.daeOff == 0 {
		c.daeOff = b.Int()
		c.daeRegion = b.Int()
	}
	c.daeFrameB = int32(4 * frameWords)
	b.Li(c.daeOff, 0)
	b.Li(c.daeRegion, int32(4*frameWords*frames))
}

// bumpDAE advances the cursor one frame, wrapping at the region boundary.
func (c *Ctx) bumpDAE() {
	b := c.B
	b.Addi(c.daeOff, c.daeOff, c.daeFrameB)
	skip := b.NewLabel("wrap")
	b.Blt(c.daeOff, c.daeRegion, skip)
	b.Li(c.daeOff, 0)
	b.Label(skip)
}

// CheckpointSites returns how many recovery points a Ckpt build emitted
// (zero otherwise). A restored snapshot is only valid against a build with
// the same site count.
func (c *Ctx) CheckpointSites() int { return c.phases }

// beginPhase emits the checkpoint dispatch: phase executions the restored
// progress word already covers are skipped wholesale — body, barriers, and
// all — so a checkpoint-restarted run re-executes only unfinished work.
// Every core advances the same dynamic counter and reads the same progress
// word, so all of them skip (or run) each execution together, including
// repeat executions of a phase emitted inside a runtime loop.
func (c *Ctx) beginPhase() (skip string) {
	if !c.Ckpt {
		return ""
	}
	b := c.B
	skip = b.NewLabel("ckpt_skip")
	b.Addi(c.ckptExec, c.ckptExec, 1)
	// One temp: the address register is dead after the load, so the progress
	// word overwrites it (kernels like gramschm run at the edge of the
	// register file and cannot afford a second).
	pr := b.Int()
	b.LiU(pr, c.ckptAddr)
	b.Lw(pr, pr, 0)
	b.Bge(pr, c.ckptExec, skip) // execution completed before the snapshot
	b.FreeInt(pr)
	return skip
}

// endPhase publishes the recovery point after the phase's closing barrier:
// one designated publisher core stores the advanced progress value and arms
// the machine's snapshot, and a second barrier makes the cut consistent —
// at its release every phase store (and the progress store) has drained,
// and no core has started the next phase.
func (c *Ctx) endPhase(skip string) {
	if !c.Ckpt {
		return
	}
	b := c.B
	done := b.NewLabel("ckpt_pub")
	if c.Vector() {
		// Publisher: group 0's scalar core (lane id -1). Tile 0 may be
		// ungrouped and idle, so tile identity is the wrong anchor.
		m1 := b.Int()
		b.Li(m1, -1)
		b.Bne(c.Lane, m1, done)
		b.FreeInt(m1)
		b.Bne(c.Gid, isa.X0, done)
	} else {
		// Publisher: dense worker 0, which exists on any runnable layout.
		b.Bne(c.WorkerID(), isa.X0, done)
	}
	addr := b.Int()
	b.LiU(addr, c.ckptAddr)
	b.Sw(c.ckptExec, addr, 0)
	b.Csrw(isa.CsrCkpt, isa.X0)
	b.FreeInt(addr)
	b.Label(done)
	b.Barrier()
	b.Label(skip)
	c.phases++
}

// MIMDKernel wraps one kernel phase for the MIMD styles: body then a
// global barrier.
func (c *Ctx) MIMDKernel(body func()) {
	skip := c.beginPhase()
	body()
	c.B.Barrier()
	c.endPhase(skip)
}

// VectorKernel wraps one kernel phase for the vector style: per-lane setup
// (runs on every group tile before entering vector mode, so lanes can
// precompute their addresses), frame configuration, group formation, the
// scalar-core body, then disband and a global barrier (§6.1: groups form at
// kernel start, disband at the end, with a global barrier between kernels).
func (c *Ctx) VectorKernel(frameWords, frames int, laneSetup, scalarBody func()) {
	b := c.B
	skip := c.beginPhase()
	if laneSetup != nil {
		laneSetup()
	}
	c.SetupFrames(frameWords, frames)
	b.Vectorize()
	scalarBody()
	resume := b.NewLabel("resume")
	b.Devectorize(resume)
	b.Label(resume)
	b.Barrier()
	c.endPhase(skip)
}

// framesReady reports whether SetupFrames has run; a pipeline emitted before
// it has no frame cursor, which fails the build.
func (c *Ctx) framesReady(who string) bool {
	if c.daeOff == 0 {
		c.B.Fail("kernels: %s before SetupFrames", who)
		return false
	}
	return true
}

// daeFill emits the opening both pipelines share: the load-iteration counter
// iL and a prologue issuing the loads of the first `ahead` frames.
func (c *Ctx) daeFill(ahead int, label string, load func(iter, spadOff isa.Reg)) (iL isa.Reg) {
	b := c.B
	iL = b.Int()
	b.Li(iL, 0)
	if ahead > 0 {
		bound := b.Int()
		b.Li(bound, int32(ahead))
		top := b.NewLabel(label)
		b.Label(top)
		c.daeNext(iL, load)
		b.Blt(iL, bound, top)
		b.FreeInt(bound)
	}
	return iL
}

// daeNext emits one more iteration's loads and advances iL and the frame
// cursor.
func (c *Ctx) daeNext(iL isa.Reg, load func(iter, spadOff isa.Reg)) {
	load(iL, c.daeOff)
	c.bumpDAE()
	c.B.Addi(iL, iL, 1)
}

// repeat emits body n times as a counted loop (nothing when n <= 0).
func (c *Ctx) repeat(n int, label string, body func()) {
	if n <= 0 {
		return
	}
	b := c.B
	i, bound := b.Int(), b.Int()
	b.Li(i, 0)
	b.Li(bound, int32(n))
	top := b.NewLabel(label)
	b.Label(top)
	body()
	b.Addi(i, i, 1)
	b.Blt(i, bound, top)
	b.FreeInt(i, bound)
}

// SelfDAE emits the NV_PF per-core decoupled-prefetch pipeline: each
// independent core vloads whole lines into its own scratchpad frames and
// consumes them in order. load(iter, spadOff) must fill exactly frameWords
// words of the frame at spadOff; consume(frameBase) reads them.
// The caller must have configured frames (frameWords x frames) already.
func (c *Ctx) SelfDAE(trip, frameWords, frames int, load func(iter, spadOff isa.Reg), consume func(frameBase isa.Reg)) {
	b := c.B
	if trip <= 0 || !c.framesReady("SelfDAE") {
		return
	}
	ahead := min(frames-1, trip)
	iL := c.daeFill(ahead, "pf_pro", load)
	fb := b.Int()
	c.repeat(trip-ahead, "pf_steady", func() {
		c.daeNext(iL, load)
		c.drainFrame(fb, consume)
	})
	c.repeat(ahead, "pf_epi", func() { c.drainFrame(fb, consume) })
	b.FreeInt(fb, iL)
}

// drainFrame emits one frame's consumption: frame_start into fb, consume,
// remem.
func (c *Ctx) drainFrame(fb isa.Reg, consume func(frameBase isa.Reg)) {
	c.B.FrameStart(fb)
	consume(fb)
	c.B.Remem()
}

// FrameMicrothread emits the vector microthread that drains one frame into
// fb with consume: a vector lane runs the same body SelfDAE drains an NV_PF
// core's frame with.
func (c *Ctx) FrameMicrothread(fb isa.Reg, consume func(frameBase isa.Reg)) (label string, length int) {
	return c.B.Microthread(func() { c.drainFrame(fb, consume) })
}

// VecDAE emits the vector-group scalar-side pipeline of §4.2: prologue
// loads for `ahead` frames (bounded by prog.AheadOffset so the scalar core
// cannot overrun the hardware frame counters), a steady state interleaving
// one microthread issue with the loads for a future frame, and a drain
// epilogue. load(iter, spadOff) must fill exactly frameWords words per lane
// for iteration iter; mtLabel's microthread must frame_start/remem once.
func (c *Ctx) VecDAE(trip, frameWords, frames, mtLen int, mtLabel string, load func(iter, spadOff isa.Reg)) {
	b := c.B
	if trip <= 0 || !c.framesReady("VecDAE") {
		return
	}
	ahead := min(prog.AheadOffset(c.HW, c.Side(), mtLen), frames-1, trip)
	iL := c.daeFill(ahead, "dae_pro", load)
	c.repeat(trip-ahead, "dae_steady", func() {
		b.VIssueAt(mtLabel)
		c.daeNext(iL, load)
	})
	c.repeat(ahead, "dae_epi", func() { b.VIssueAt(mtLabel) })
	b.FreeInt(iL)
}
