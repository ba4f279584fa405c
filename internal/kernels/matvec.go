package kernels

import (
	"fmt"

	"rockcress/internal/isa"
)

// mvSpec describes a matrix-vector kernel: out[i] (+)= dot(A[i,:], x) in
// row form, or out[j] (+)= dot(A[:,j], x) in transposed (column) form, for
// a row-major Rows x Cols matrix. mvt and bicg are built from these; the
// column form is the paper's group-load showcase.
type mvSpec struct {
	Rows, Cols int
	A, X, Out  *Array
	Accumulate bool // out += result (reads the old out)
}

func (s *mvSpec) check(name string) error {
	if s.Cols%16 != 0 {
		return fmt.Errorf("%s: Cols=%d must be a multiple of 16", name, s.Cols)
	}
	if s.Rows%16 != 0 {
		return fmt.Errorf("%s: Rows=%d must be a multiple of 16", name, s.Rows)
	}
	return nil
}

// buildMVRowNV: rows interleaved across cores, blocking loads.
func buildMVRowNV(ctx *Ctx, s mvSpec) {
	b := ctx.B
	ctx.MIMDKernel(func() {
		fz := ctx.Fzero()
		i := b.Int()
		pA, pX, pOut := b.Int(), b.Int(), b.Int()
		acc, old := b.Fp(), b.Fp()
		ctx.StridedLoop(i, ctx.WorkerID(), int32(s.Rows), int32(ctx.Workers()), func() {
			ctx.AddrInto(pA, i, s.A.Addr, s.Cols, 0)
			ctx.AddrInto(pOut, i, s.Out.Addr, 1, 0)
			b.LiU(pX, s.X.Addr)
			b.Fmv(acc, fz)
			if s.Accumulate {
				b.Flw(old, pOut, 0)
			}
			ctx.GlobalDot(acc, pA, pX, s.Cols)
			if s.Accumulate {
				b.Fadd(acc, acc, old)
			}
			b.Fsw(acc, pOut, 0)
		})
		b.FreeInt(i, pA, pX, pOut)
		b.FreeFp(fz, acc, old)
	})
}

// buildMVColNV: the PolyBench/GPU loop order for the transposed kernel:
// each core owns a block of columns and sweeps all rows per column (word
// loads; one useful word per fetched line — the pattern NV_PF cannot
// improve with wide self-loads).
func buildMVColNV(ctx *Ctx, s mvSpec) {
	b := ctx.B
	blockW := s.Cols / ctx.Workers()
	if blockW == 0 {
		blockW = 1
	}
	ctx.MIMDKernel(func() {
		fz := ctx.Fzero()
		jb, jEnd, jc := b.Int(), b.Int(), b.Int()
		pA, pX, pOut, i := b.Int(), b.Int(), b.Int(), b.Int()
		acc, old, fa, fx := b.Fp(), b.Fp(), b.Fp(), b.Fp()
		bound := b.Int()
		ctx.MulConst(jb, ctx.WorkerID(), blockW)
		b.Addi(jEnd, jb, int32(blockW))
		if s.Cols%ctx.Workers() != 0 && s.Cols > ctx.Workers() {
			// Degraded worker counts rarely divide the column count: the
			// last worker sweeps through the tail block.
			last := b.Int()
			skip := b.NewLabel("mvcol_tail")
			b.Li(last, int32(ctx.Workers()-1))
			b.Bne(ctx.WorkerID(), last, skip)
			b.Li(jEnd, int32(s.Cols))
			b.Label(skip)
			b.FreeInt(last)
		}
		b.Li(bound, int32(s.Cols))
		b.Mv(jc, jb)
		done := b.NewLabel("mvcol_done")
		top := b.NewLabel("mvcol")
		b.Bge(jc, bound, done) // more cores than column blocks
		b.Label(top)
		{
			ctx.AddrInto(pA, jc, s.A.Addr, 1, 0) // &A[0][j]
			ctx.AddrInto(pOut, jc, s.Out.Addr, 1, 0)
			b.LiU(pX, s.X.Addr)
			b.Fmv(acc, fz)
			if s.Accumulate {
				b.Flw(old, pOut, 0)
			}
			b.ForI(i, 0, int32(s.Rows), 1, func() {
				b.Flw(fa, pA, 0)
				b.Flw(fx, pX, 0)
				b.Fmadd(acc, fa, fx, acc)
				b.Addi(pA, pA, int32(4*s.Cols))
				b.Addi(pX, pX, 4)
			})
			if s.Accumulate {
				b.Fadd(acc, acc, old)
			}
			b.Fsw(acc, pOut, 0)
		}
		b.Addi(jc, jc, 1)
		b.Blt(jc, jEnd, top)
		b.Label(done)
		b.FreeInt(jb, jEnd, jc, pA, pX, pOut, i, bound)
		b.FreeFp(fz, acc, old, fa, fx)
	})
}

// buildMVRowPF: self-prefetch frames (A chunk + x chunk), SIMD optional.
func buildMVRowPF(ctx *Ctx, s mvSpec) {
	b := ctx.B
	lw := 16
	frames := ctx.HW.FrameCounters
	frameWords := 2 * lw
	ctx.SetupFrames(frameWords, frames)
	ctx.MIMDKernel(func() {
		fz := ctx.Fzero()
		tmps := ctx.Fp4()
		var accV, va, vb uint8
		if ctx.SW.SIMD {
			accV, va, vb = b.Vec(), b.Vec(), b.Vec()
		}
		i := b.Int()
		pA, pX, pOut, t := b.Int(), b.Int(), b.Int(), b.Int()
		acc, old := b.Fp(), b.Fp()
		ctx.StridedLoop(i, ctx.WorkerID(), int32(s.Rows), int32(ctx.Workers()), func() {
			ctx.AddrInto(pA, i, s.A.Addr, s.Cols, 0)
			ctx.AddrInto(pOut, i, s.Out.Addr, 1, 0)
			b.LiU(pX, s.X.Addr)
			b.Fmv(acc, fz)
			if ctx.SW.SIMD {
				b.VbcastF(accV, fz)
			}
			if s.Accumulate {
				b.Flw(old, pOut, 0)
			}
			ctx.SelfDAE(s.Cols/lw, frameWords, frames,
				func(_, off isa.Reg) {
					b.VLoad(isa.VloadSelf, pA, off, 0, lw, true)
					b.Addi(t, off, int32(4*lw))
					b.VLoad(isa.VloadSelf, pX, t, 0, lw, true)
					b.Addi(pA, pA, int32(4*lw))
					b.Addi(pX, pX, int32(4*lw))
				},
				func(fb isa.Reg) {
					if ctx.SW.SIMD {
						ctx.FrameDotSIMD(accV, fb, va, vb, 0, int32(4*lw), lw)
					} else {
						ctx.FrameDot(acc, fb, tmps, 0, int32(4*lw), lw)
					}
				})
			if ctx.SW.SIMD {
				b.Vfredsum(acc, accV)
			}
			if s.Accumulate {
				b.Fadd(acc, acc, old)
			}
			b.Fsw(acc, pOut, 0)
		})
		b.FreeInt(i, pA, pX, pOut, t)
		b.FreeFp(fz, acc, old, tmps[0], tmps[1], tmps[2], tmps[3])
		if ctx.SW.SIMD {
			b.FreeVec(accV, va, vb)
		}
	})
}

// mvChunk is the A (and x) words one lane consumes per frame in the vector
// forms.
const mvChunk = 16

// buildMVVec is the vector mat-vec both forms share: each lane accumulates
// one output of a vlen-output block over trip frames, each holding mvChunk
// of the lane's A words then the mvChunk x words they multiply. Blocks
// stride across groups; successive blocks start blockWords apart in A. load
// fills one frame from the cursors pA and pX and advances them (t and toff
// are its temporaries, off the frame's scratchpad offset).
func buildMVVec(ctx *Ctx, s mvSpec, blocks, blockWords, trip int, load func(pA, pX, t, toff, off isa.Reg)) {
	b := ctx.B
	vlen := ctx.VLen()
	groups := ctx.Workers()
	frames := ctx.HW.FrameCounters
	frameWords := 2 * mvChunk

	fz, acc, old := b.Fp(), b.Fp(), b.Fp()
	tmps := ctx.Fp4()
	var accV, va, vb uint8
	if ctx.SW.SIMD {
		accV, va, vb = b.Vec(), b.Vec(), b.Vec()
	}
	outPtr, mtFb := b.Int(), b.Int()

	mtInit, _ := b.Microthread(func() { b.FliF(fz, 0) })
	mtBegin, _ := b.Microthread(func() {
		if s.Accumulate {
			b.Flw(old, outPtr, 0)
		}
		b.Fmv(acc, fz)
		if ctx.SW.SIMD {
			b.VbcastF(accV, fz)
		}
	})
	mtAcc, mtAccLen := b.Microthread(func() {
		b.FrameStart(mtFb)
		if ctx.SW.SIMD {
			ctx.FrameDotSIMD(accV, mtFb, va, vb, 0, 4*mvChunk, mvChunk)
		} else {
			ctx.FrameDot(acc, mtFb, tmps, 0, 4*mvChunk, mvChunk)
		}
		b.Remem()
	})
	advBytes := int32(groups * vlen * 4)
	mtStore, _ := b.Microthread(func() {
		if ctx.SW.SIMD {
			b.Vfredsum(acc, accV)
		}
		if s.Accumulate {
			b.Fadd(acc, acc, old)
		}
		b.Fsw(acc, outPtr, 0)
		b.Addi(outPtr, outPtr, advBytes)
	})

	ctx.VectorKernel(frameWords, frames,
		func() { ctx.LanePtr(outPtr, 0, s.Out.Addr, 1, 0) },
		func() {
			b.VIssueAt(mtInit)
			blk, pA, pAcur, pX, t, toff := b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
			ctx.StridedLoop(blk, ctx.Gid, int32(blocks), int32(groups), func() {
				ctx.AddrInto(pA, blk, s.A.Addr, blockWords, 0)
				b.VIssueAt(mtBegin)
				b.Mv(pAcur, pA)
				b.LiU(pX, s.X.Addr)
				ctx.VecDAE(trip, frameWords, frames, mtAccLen, mtAcc,
					func(_, off isa.Reg) { load(pAcur, pX, t, toff, off) })
				b.VIssueAt(mtStore)
			})
			b.FreeInt(blk, pA, pAcur, pX, t, toff)
		})
	b.FreeInt(outPtr, mtFb)
	b.FreeFp(fz, acc, old, tmps[0], tmps[1], tmps[2], tmps[3])
	if ctx.SW.SIMD {
		b.FreeVec(accV, va, vb)
	}
}

// buildMVRowVec: each lane owns one row of a vlen-row block; the scalar
// core single-loads each lane's A chunk and the shared x chunk.
func buildMVRowVec(ctx *Ctx, s mvSpec) {
	b := ctx.B
	vlen := ctx.VLen()
	buildMVVec(ctx, s, s.Rows/vlen, vlen*s.Cols, s.Cols/mvChunk,
		func(pA, pX, t, toff, off isa.Reg) {
			ctx.VLoadLanes(t, pA, 4*s.Cols, off, mvChunk)
			b.Addi(toff, off, 4*mvChunk)
			ctx.VLoadAll(pX, toff, mvChunk)
			b.Addi(pA, pA, 4*mvChunk)
			b.Addi(pX, pX, 4*mvChunk)
		})
}

// buildMVColVec: lanes own adjacent columns of a vlen-wide stripe; one
// GROUP load per row feeds the whole group from a single line (§6.6).
func buildMVColVec(ctx *Ctx, s mvSpec) {
	b := ctx.B
	vlen := ctx.VLen()
	buildMVVec(ctx, s, s.Cols/vlen, vlen, s.Rows/mvChunk,
		func(pA, pX, t, toff, off isa.Reg) {
			for r := 0; r < mvChunk; r++ { // one word per lane per row
				b.Addi(t, off, int32(4*r))
				b.VLoad(isa.VloadGroup, pA, t, 0, 1, true)
				b.Addi(pA, pA, int32(4*s.Cols))
			}
			b.Addi(toff, off, 4*mvChunk)
			ctx.VLoadAll(pX, toff, mvChunk)
			b.Addi(pX, pX, 4*mvChunk)
		})
}

// buildMVRow dispatches the row form on style; buildMVCol the column form
// (for which NV_PF has no wide-load option and falls back to word loads).
func buildMVRow(ctx *Ctx, s mvSpec) {
	switch {
	case ctx.Vector():
		buildMVRowVec(ctx, s)
	case ctx.SW.WideAccess:
		buildMVRowPF(ctx, s)
	default:
		buildMVRowNV(ctx, s)
	}
}

func buildMVCol(ctx *Ctx, s mvSpec) {
	if ctx.Vector() {
		buildMVColVec(ctx, s)
	} else {
		buildMVColNV(ctx, s)
	}
}
