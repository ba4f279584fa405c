package kernels

import (
	"rockcress/internal/gpu"
	"rockcress/internal/isa"
)

// rowDotSpec describes the family of kernels of the form
//
//	C[i][j] = Alpha*(dot(A1[i,:], B1[j,:]) + dot(A2[i,:], B2[j,:])) + Beta*C[i][j]
//
// over row-major operands with NK-word rows. It covers gemm (A*B with B
// pre-transposed), 2mm/3mm stages, syrk (A1=B1), syr2k (the two-dot form),
// and the correlation/covariance matrix products. Work splits by C rows:
// interleaved across cores in the MIMD styles; vlen-row blocks per group in
// vector mode, one row per lane.
type rowDotSpec struct {
	NI, NJ, NK int
	A1, B1     *Array
	A2, B2     *Array // nil for single-dot kernels
	C          *Array
	Alpha      float32
	Alpha2     float32 // nonzero: weight the second dot separately (gesummv)
	Beta       float32 // 0 skips the old-C read
	AlphaOne   bool    // Alpha == 1: skip the multiply
}

// separateAccs reports whether the two dots carry different weights and
// must accumulate separately.
func (s *rowDotSpec) separateAccs() bool { return s.Alpha2 != 0 }

func (s *rowDotSpec) twoDots() bool { return s.A2 != nil }

// rowDotChunks returns how many 16-word operand chunks one frame holds.
func (s *rowDotSpec) chunksPerFrame() int {
	if s.twoDots() {
		return 4 // A1,B1,A2,B2
	}
	return 2 // A,B
}

// buildRowDotNV emits the blocking-load MIMD version.
func buildRowDotNV(ctx *Ctx, s rowDotSpec) {
	b := ctx.B
	ctx.MIMDKernel(func() {
		fz := ctx.Fzero()
		alpha, alpha2, beta := b.Fp(), b.Fp(), b.Fp()
		b.FliF(alpha, s.Alpha)
		b.FliF(alpha2, s.Alpha2)
		b.FliF(beta, s.Beta)
		i, j := b.Int(), b.Int()
		pA, pArow, pB, pC := b.Int(), b.Int(), b.Int(), b.Int()
		pA2, pArow2, pB2 := b.Int(), b.Int(), b.Int()
		acc, acc2, oldc := b.Fp(), b.Fp(), b.Fp()
		ctx.StridedLoop(i, ctx.WorkerID(), int32(s.NI), int32(ctx.Workers()), func() {
			ctx.AddrInto(pArow, i, s.A1.Addr, s.NK, 0)
			if s.twoDots() {
				ctx.AddrInto(pArow2, i, s.A2.Addr, s.NK, 0)
				b.LiU(pB2, s.B2.Addr)
			}
			ctx.AddrInto(pC, i, s.C.Addr, s.NJ, 0)
			b.LiU(pB, s.B1.Addr)
			b.ForI(j, 0, int32(s.NJ), 1, func() {
				b.Fmv(acc, fz)
				b.Mv(pA, pArow)
				if s.Beta != 0 {
					b.Flw(oldc, pC, 0)
				}
				ctx.GlobalDot(acc, pA, pB, s.NK)
				if s.twoDots() {
					b.Fmv(acc2, fz)
					b.Mv(pA2, pArow2)
					ctx.GlobalDot(acc2, pA2, pB2, s.NK)
					if !s.separateAccs() {
						b.Fadd(acc, acc, acc2)
					}
				}
				rowDotCombine(ctx, acc, acc2, oldc, alpha, alpha2, beta, s)
				b.Fsw(acc, pC, 0)
				b.Addi(pC, pC, 4)
			})
		})
		b.FreeInt(i, j, pA, pArow, pB, pC, pA2, pArow2, pB2)
		b.FreeFp(fz, alpha, alpha2, beta, acc, acc2, oldc)
	})
}

// rowDotCombine applies the alpha/beta epilogue to acc (folding in the
// separately-weighted second accumulator when the spec uses one).
func rowDotCombine(ctx *Ctx, acc, acc2, oldc, alpha, alpha2, beta isa.FReg, s rowDotSpec) {
	b := ctx.B
	if !s.AlphaOne {
		b.Fmul(acc, acc, alpha)
	}
	if s.separateAccs() {
		b.Fmadd(acc, acc2, alpha2, acc)
	}
	if s.Beta != 0 {
		b.Fmadd(acc, oldc, beta, acc)
	}
}

// buildRowDotPF emits the NV_PF self-prefetch version (SIMD optional).
func buildRowDotPF(ctx *Ctx, s rowDotSpec) {
	b := ctx.B
	lw := 16
	frames := ctx.HW.FrameCounters
	frameWords := s.chunksPerFrame() * lw
	ctx.SetupFrames(frameWords, frames)
	ctx.MIMDKernel(func() {
		fz := ctx.Fzero()
		alpha, alpha2, beta := b.Fp(), b.Fp(), b.Fp()
		b.FliF(alpha, s.Alpha)
		b.FliF(alpha2, s.Alpha2)
		b.FliF(beta, s.Beta)
		tmps := ctx.Fp4()
		var accV, accV2, va, vb uint8
		if ctx.SW.SIMD {
			accV, accV2, va, vb = b.Vec(), b.Vec(), b.Vec(), b.Vec()
		}
		i, j := b.Int(), b.Int()
		pArow, pA, pB, pC, t := b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
		pArow2, pA2, pB2 := b.Int(), b.Int(), b.Int()
		acc, acc2, oldc := b.Fp(), b.Fp(), b.Fp()
		ctx.StridedLoop(i, ctx.WorkerID(), int32(s.NI), int32(ctx.Workers()), func() {
			ctx.AddrInto(pArow, i, s.A1.Addr, s.NK, 0)
			if s.twoDots() {
				ctx.AddrInto(pArow2, i, s.A2.Addr, s.NK, 0)
				b.LiU(pB2, s.B2.Addr)
			}
			ctx.AddrInto(pC, i, s.C.Addr, s.NJ, 0)
			b.LiU(pB, s.B1.Addr)
			b.ForI(j, 0, int32(s.NJ), 1, func() {
				b.Fmv(acc, fz)
				b.Fmv(acc2, fz)
				if ctx.SW.SIMD {
					b.VbcastF(accV, fz)
					if s.separateAccs() {
						b.VbcastF(accV2, fz)
					}
				}
				b.Mv(pA, pArow)
				if s.twoDots() {
					b.Mv(pA2, pArow2)
				}
				if s.Beta != 0 {
					b.Flw(oldc, pC, 0)
				}
				ctx.SelfDAE(s.NK/lw, frameWords, frames,
					func(_, off isa.Reg) {
						b.VLoad(isa.VloadSelf, pA, off, 0, lw, true)
						b.Addi(t, off, int32(4*lw))
						b.VLoad(isa.VloadSelf, pB, t, 0, lw, true)
						b.Addi(pA, pA, int32(4*lw))
						b.Addi(pB, pB, int32(4*lw))
						if s.twoDots() {
							b.Addi(t, off, int32(8*lw))
							b.VLoad(isa.VloadSelf, pA2, t, 0, lw, true)
							b.Addi(t, off, int32(12*lw))
							b.VLoad(isa.VloadSelf, pB2, t, 0, lw, true)
							b.Addi(pA2, pA2, int32(4*lw))
							b.Addi(pB2, pB2, int32(4*lw))
						}
					},
					func(fb isa.Reg) {
						rowDotConsume(ctx, s, fb, acc, acc2, tmps, accV, accV2, va, vb, lw)
					})
				if ctx.SW.SIMD {
					b.Vfredsum(acc, accV)
					if s.separateAccs() {
						b.Vfredsum(acc2, accV2)
					}
				}
				rowDotCombine(ctx, acc, acc2, oldc, alpha, alpha2, beta, s)
				b.Fsw(acc, pC, 0)
				b.Addi(pC, pC, 4)
			})
		})
		b.FreeInt(i, j, pArow, pA, pB, pC, t, pArow2, pA2, pB2)
		b.FreeFp(fz, alpha, alpha2, beta, acc, acc2, oldc, tmps[0], tmps[1], tmps[2], tmps[3])
		if ctx.SW.SIMD {
			b.FreeVec(accV, accV2, va, vb)
		}
	})
}

// rowDotConsume accumulates one frame's chunk pair(s) into the scalar or
// SIMD accumulators (the second pair separately when weights differ).
func rowDotConsume(ctx *Ctx, s rowDotSpec, fb isa.Reg, acc, acc2 isa.FReg, tmps [4]isa.FReg, accV, accV2, va, vb uint8, lw int) {
	if ctx.SW.SIMD {
		ctx.FrameDotSIMD(accV, fb, va, vb, 0, int32(4*lw), lw)
		if s.twoDots() {
			second := accV
			if s.separateAccs() {
				second = accV2
			}
			ctx.FrameDotSIMD(second, fb, va, vb, int32(8*lw), int32(12*lw), lw)
		}
		return
	}
	ctx.FrameDot(acc, fb, tmps, 0, int32(4*lw), lw)
	if s.twoDots() {
		second := acc
		if s.separateAccs() {
			second = acc2
		}
		ctx.FrameDot(second, fb, tmps, int32(8*lw), int32(12*lw), lw)
	}
}

// buildRowDotVec emits the vector-group version: lanes own rows of a
// vlen-row block, the scalar core single-loads each lane's A chunks and the
// shared B chunks.
func buildRowDotVec(ctx *Ctx, s rowDotSpec) {
	b := ctx.B
	lw := 16
	vlen := ctx.VLen()
	groups := ctx.Workers()
	rowBytes := 4 * s.NK
	frames := ctx.HW.FrameCounters
	frameWords := s.chunksPerFrame() * lw
	blocks := s.NI / vlen

	fz, alpha, alpha2, beta, acc, acc2, oldc := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
	tmps := ctx.Fp4()
	var accV, accV2, va, vb uint8
	if ctx.SW.SIMD {
		accV, accV2, va, vb = b.Vec(), b.Vec(), b.Vec(), b.Vec()
	}
	cPtr, mtFb := b.Int(), b.Int()

	mtInit, _ := b.Microthread(func() {
		b.FliF(fz, 0)
		b.FliF(alpha, s.Alpha)
		b.FliF(alpha2, s.Alpha2)
		b.FliF(beta, s.Beta)
	})
	mtBegin, _ := b.Microthread(func() {
		if s.Beta != 0 {
			b.Flw(oldc, cPtr, 0) // gather; hidden behind the K loop
		}
		b.Fmv(acc, fz)
		b.Fmv(acc2, fz)
		if ctx.SW.SIMD {
			b.VbcastF(accV, fz)
			if s.separateAccs() {
				b.VbcastF(accV2, fz)
			}
		}
	})
	mtAcc, mtAccLen := ctx.FrameMicrothread(mtFb, func(fb isa.Reg) {
		rowDotConsume(ctx, s, fb, acc, acc2, tmps, accV, accV2, va, vb, lw)
	})
	blockDelta := int32((groups*vlen - 1) * s.NJ * 4)
	mtStore, _ := b.Microthread(func() {
		if ctx.SW.SIMD {
			b.Vfredsum(acc, accV)
			if s.separateAccs() {
				b.Vfredsum(acc2, accV2)
			}
		}
		rowDotCombine(ctx, acc, acc2, oldc, alpha, alpha2, beta, s)
		b.Fsw(acc, cPtr, 0)
		b.Addi(cPtr, cPtr, 4)
	})
	mtAdv, _ := b.Microthread(func() {
		b.Addi(cPtr, cPtr, blockDelta)
	})

	ctx.VectorKernel(frameWords, frames,
		func() { ctx.LanePtr(cPtr, 0, s.C.Addr, s.NJ, 0) },
		func() {
			b.VIssueAt(mtInit)
			rb, pA, pAcur, pB, j := b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
			pA2, pAcur2, pB2 := b.Int(), b.Int(), b.Int()
			t, toff := b.Int(), b.Int()
			ctx.StridedLoop(rb, ctx.Gid, int32(blocks), int32(groups), func() {
				ctx.AddrInto(pA, rb, s.A1.Addr, vlen*s.NK, 0)
				if s.twoDots() {
					ctx.AddrInto(pA2, rb, s.A2.Addr, vlen*s.NK, 0)
				}
				b.LiU(pB, s.B1.Addr)
				if s.twoDots() {
					b.LiU(pB2, s.B2.Addr)
				}
				b.ForI(j, 0, int32(s.NJ), 1, func() {
					b.VIssueAt(mtBegin)
					b.Mv(pAcur, pA)
					if s.twoDots() {
						b.Mv(pAcur2, pA2)
					}
					ctx.VecDAE(s.NK/lw, frameWords, frames, mtAccLen, mtAcc,
						func(_, off isa.Reg) {
							ctx.VLoadLanes(t, pAcur, rowBytes, off, lw)
							b.Addi(toff, off, int32(4*lw))
							ctx.VLoadAll(pB, toff, lw)
							b.Addi(pAcur, pAcur, int32(4*lw))
							b.Addi(pB, pB, int32(4*lw))
							if s.twoDots() {
								b.Addi(toff, off, int32(8*lw))
								ctx.VLoadLanes(t, pAcur2, rowBytes, toff, lw)
								b.Addi(toff, off, int32(12*lw))
								ctx.VLoadAll(pB2, toff, lw)
								b.Addi(pAcur2, pAcur2, int32(4*lw))
								b.Addi(pB2, pB2, int32(4*lw))
							}
						})
					b.VIssueAt(mtStore)
				})
				b.VIssueAt(mtAdv)
			})
			b.FreeInt(rb, pA, pAcur, pB, j, pA2, pAcur2, pB2, t, toff)
		})
	// Safe to recycle microthread state after devec + barrier.
	b.FreeInt(cPtr, mtFb)
	b.FreeFp(fz, alpha, alpha2, beta, acc, acc2, oldc, tmps[0], tmps[1], tmps[2], tmps[3])
	if ctx.SW.SIMD {
		b.FreeVec(accV, accV2, va, vb)
	}
}

// buildRowDot dispatches on the context's style.
func buildRowDot(ctx *Ctx, s rowDotSpec) {
	switch {
	case ctx.Vector():
		buildRowDotVec(ctx, s)
	case ctx.SW.WideAccess:
		buildRowDotPF(ctx, s)
	default:
		buildRowDotNV(ctx, s)
	}
}

// rowDotGPU builds the GPU launch for a row-dot kernel: one thread per C
// element; A accesses are uniform per wavefront (all lanes share a row),
// B accesses coalesce when laid out untransposed (the GPU keeps its natural
// layout; callers pass the appropriate address functions).
func rowDotGPU(name string, ni, nj, nk, dots int,
	aAt func(dot, i, k int) uint32, bAt func(dot, k, j int) uint32,
	cAt func(i, j int) uint32, readC bool) gpu.Kernel {
	return gpu.PerThread(name, ni*nj, func(w *gpu.Wave) {
		for k := 0; k < nk; k++ {
			for d := 0; d < dots; d++ {
				w.Load(func(t int) uint32 { return aAt(d, t/nj, k) })
				w.Load(func(t int) uint32 { return bAt(d, k, t%nj) })
				w.Compute(1)
			}
		}
		cOf := func(t int) uint32 { return cAt(t/nj, t%nj) }
		if readC {
			w.Load(cOf)
			w.Compute(2)
		}
		w.Store(cOf)
	})
}
