package kernels

import (
	"fmt"
	"slices"

	"rockcress/internal/gpu"
	"rockcress/internal/isa"
	"rockcress/internal/prog"
)

// stencil is one kernel of the stencil family (2dconv, 3dconv): each of rows
// flat output rows holds cols outputs, and output j sums three adjacent taps
// (columns j..j+2) of every input slice, each tap times its own coefficient.
// A kernel states only its data; the family owns the coefficient registers,
// the tap chain, frame consumption, the unaligned slice-window fetch, the
// size check, the whole NV_PF lowering and the GPU trace. Kernels keep their
// NV pointer layout and their vector output-pointer schedule.
type stencil struct {
	in, out    *Array
	rows, cols int
	chunk      int      // outputs per frame
	sliceOff   [9]int32 // word offset of each input slice from its row's base
	outOff     int32    // byte offset of a row's first output from its base
	coef       []float32
	// The row-address map: row r's base is &a[r*rowWords] for a 2-D kernel
	// (side 0), and conv3dRowBase's interior map of a side x side x rowWords
	// volume otherwise.
	rowWords, side int
}

// sliceCount is the number of input slices an output row reads, three taps each.
func (s stencil) sliceCount() int { return len(s.coef) / 3 }

// window is the words one slice window holds: a chunk plus its two halo
// columns.
func (s stencil) window() int { return s.chunk + 2 }

// frameWords is one frame: every slice's window, back to back.
func (s stencil) frameWords() int { return s.sliceCount() * s.window() }

// check refuses a size whose rows the V16 blocks or whose columns the chunk
// do not tile.
func (s stencil) check(name string) error {
	if s.rows%16 != 0 {
		return fmt.Errorf("%s: interior rows %d must be a multiple of 16 (V16 blocks)", name, s.rows)
	}
	if s.cols%s.chunk != 0 {
		return fmt.Errorf("%s: interior columns %d must divide by chunk %d", name, s.cols, s.chunk)
	}
	return nil
}

// rowBase is the word index of flat row r's base: the row-address map that
// rowAddr emits.
func (s stencil) rowBase(r int) int {
	if s.side == 0 {
		return r * s.rowWords
	}
	return (r/(s.side-2)*s.side + r%(s.side-2)) * s.rowWords
}

// rowAddr emits dst = the base of flat row r in the array at base, plus
// byteOff.
func (s stencil) rowAddr(ctx *Ctx, dst, r isa.Reg, base uint32, byteOff int32) {
	if s.side == 0 {
		ctx.AddrInto(dst, r, base, s.rowWords, byteOff)
		return
	}
	conv3dRowBase(ctx, dst, r, s.side, s.rowWords, base)
	if byteOff != 0 {
		ctx.B.Addi(dst, dst, byteOff)
	}
}

// stencilRegs are the registers the family's emitters share: one
// coefficient register per tap (taps of equal value share one), the four
// rotating tap temporaries and the accumulator.
type stencilRegs struct {
	taps int
	cf   [27]isa.FReg
	tmps [4]isa.FReg
	acc  isa.FReg
}

// regs allocates and loads one coefficient register per distinct value, in
// first-use order, then the temporaries and the accumulator.
func (s stencil) regs(ctx *Ctx) stencilRegs {
	b := ctx.B
	r := stencilRegs{taps: len(s.coef)}
	for k, v := range s.coef {
		if first := slices.Index(s.coef, v); first < k {
			r.cf[k] = r.cf[first]
			continue
		}
		r.cf[k] = b.Fp()
		b.FliF(r.cf[k], v)
	}
	r.tmps = ctx.Fp4()
	r.acc = b.Fp()
	return r
}

// chain emits acc = the sum over every tap of coefficient times tap: load
// puts tap dk of slice sl into f, the temporaries rotating through tmps.
func (r stencilRegs) chain(b *prog.Builder, tmps [4]isa.FReg, load func(f isa.FReg, sl, dk int)) {
	for k := 0; k < r.taps; k++ {
		f := tmps[k%4]
		load(f, k/3, k%3)
		if k == 0 {
			b.Fmul(r.acc, f, r.cf[0])
		} else {
			b.Fmadd(r.acc, f, r.cf[k], r.acc)
		}
	}
}

// consume emits one frame's chunk outputs from the frame at fb, stored
// through pOut, which then advances a chunk. NV_PF's SelfDAE and the vector
// microthread both run it.
func (s stencil) consume(ctx *Ctx, r stencilRegs, fb, pOut isa.Reg) {
	b := ctx.B
	w := s.window()
	for o := 0; o < s.chunk; o++ {
		r.chain(b, r.tmps, func(f isa.FReg, sl, dk int) {
			b.FlwSp(f, fb, int32(4*(sl*w+o+dk)))
		})
		b.Fsw(r.acc, pOut, int32(4*o))
	}
	b.Addi(pOut, pOut, int32(4*s.chunk))
}

// fetch emits one frame's unaligned slice-window loads (§2.3.2): slice k
// starts rowWords+sliceOff[k] words past src and lands k windows past the
// frame offset off, in the core's own scratchpad (VloadSelf, lane 0) or in
// lane's (VloadSingle). t and toff are the address and offset temporaries.
func (s stencil) fetch(ctx *Ctx, dist isa.VloadDist, lane int, t, src isa.Reg, rowWords int, toff, off isa.Reg) {
	b := ctx.B
	w := s.window()
	for k := 0; k < s.sliceCount(); k++ {
		b.Addi(t, src, 4*(int32(rowWords)+s.sliceOff[k]))
		b.Addi(toff, off, int32(4*k*w))
		b.VLoadUnaligned(dist, t, toff, lane, w, true)
	}
}

// build checks the size and emits the kernel in ctx's style: the kernel's
// own NV and vector lowerings, or the family's NV_PF one.
func (s stencil) build(ctx *Ctx, name string, nv, vec func(*Ctx, stencil)) error {
	if err := s.check(name); err != nil {
		return err
	}
	ctx.Begin()
	switch {
	case ctx.Vector():
		vec(ctx, s)
	case ctx.SW.WideAccess:
		s.buildPF(ctx)
	default:
		nv(ctx, s)
	}
	ctx.Finish()
	return nil
}

// buildPF is the family's NV_PF lowering: cores take flat rows round-robin
// and stream each row through self-fetched frames, one chunk per frame.
func (s stencil) buildPF(ctx *Ctx) {
	b := ctx.B
	frameWords, frames := s.frameWords(), ctx.HW.FrameCounters
	ctx.SetupFrames(frameWords, frames)
	ctx.MIMDKernel(func() {
		r := s.regs(ctx)
		row := b.Int()
		pIn, pOut, t, toff := b.Int(), b.Int(), b.Int(), b.Int()
		ctx.StridedLoop(row, ctx.WorkerID(), int32(s.rows), int32(ctx.Workers()), func() {
			s.rowAddr(ctx, pIn, row, s.in.Addr, 0)
			s.rowAddr(ctx, pOut, row, s.out.Addr, s.outOff)
			ctx.SelfDAE(s.cols/s.chunk, frameWords, frames,
				func(_, off isa.Reg) {
					s.fetch(ctx, isa.VloadSelf, 0, t, pIn, 0, toff, off)
					b.Addi(pIn, pIn, int32(4*s.chunk))
				},
				func(fb isa.Reg) { s.consume(ctx, r, fb, pOut) })
		})
	})
}

// gpu is the family's GPU trace: one thread per output, loading every tap in
// chain order, then storing its output.
func (s stencil) gpu(name string) []gpu.Kernel {
	// at is the address in a of thread t's row base, plus words.
	at := func(a *Array, t, words int) uint32 { return a.At(s.rowBase(t/s.cols) + t%s.cols + words) }
	return []gpu.Kernel{gpu.PerThread(name, s.rows*s.cols, func(w *gpu.Wave) {
		for k := range len(s.coef) {
			w.Load(func(t int) uint32 { return at(s.in, t, int(s.sliceOff[k/3])+k%3) })
			w.Compute(1)
		}
		w.Store(func(t int) uint32 { return at(s.out, t, int(s.outOff/4)) })
	})}
}
