package kernels

import (
	"fmt"

	"rockcress/internal/config"
	"rockcress/internal/gpu"
	"rockcress/internal/isa"
)

// fdtd-2d: the finite-difference time-domain kernel (PolyBench/GPU). Each
// timestep runs three dependent sweeps (ey, ex, hz) separated by global
// barriers; vector groups re-form for every sweep of every step, making
// fdtd the heaviest user of group formation/disband. All wide accesses stay
// line-aligned by carrying one extra boundary word per frame; the j=0 (ey
// row 0) boundary work runs on the scalar cores.
type fdtdBench struct{}

func init() { register(fdtdBench{}) }

func (fdtdBench) Info() Info {
	return Info{
		Name:        "fdtd-2d",
		InputDesc:   "NxM grids, TMax steps",
		Description: "Finite-difference Time-domain",
		Kernels:     3,
	}
}

func (fdtdBench) Defaults(s Scale) Params {
	// N = 16k+1 rows so each sweep's row range divides into lane blocks.
	switch s {
	case Tiny:
		return Params{N: 17, M: 32, TMax: 2, Seed: 41}
	case Small:
		return Params{N: 33, M: 64, TMax: 2, Seed: 41}
	default:
		return Params{N: 65, M: 128, TMax: 3, Seed: 41}
	}
}

func fdtdCheck(p Params) error {
	if (p.N-1)%16 != 0 {
		return fmt.Errorf("fdtd-2d: N-1=%d must be a multiple of 16", p.N-1)
	}
	if p.M%16 != 0 {
		return fmt.Errorf("fdtd-2d: M=%d must be a multiple of 16", p.M)
	}
	if p.TMax < 1 {
		return fmt.Errorf("fdtd-2d: TMax must be positive")
	}
	return nil
}

func (fdtdBench) Prepare(p Params) (*Image, error) {
	n, m, tmax := p.N, p.M, p.TMax
	r := rng(p.Seed)
	ex := randF(r, n*m, 0, 1)
	ey := randF(r, n*m, 0, 1)
	hz := randF(r, n*m, 0, 1)
	fict := randF(r, tmax, 0, 1)
	wex := append([]float32(nil), ex...)
	wey := append([]float32(nil), ey...)
	whz := append([]float32(nil), hz...)
	for t := 0; t < tmax; t++ {
		for j := 0; j < m; j++ {
			wey[j] = fict[t]
		}
		for i := 1; i < n; i++ {
			for j := 0; j < m; j++ {
				wey[i*m+j] -= 0.5 * (whz[i*m+j] - whz[(i-1)*m+j])
			}
		}
		for i := 0; i < n; i++ {
			for j := 1; j < m; j++ {
				wex[i*m+j] -= 0.5 * (whz[i*m+j] - whz[i*m+j-1])
			}
		}
		for i := 0; i < n-1; i++ {
			for j := 0; j < m-1; j++ {
				whz[i*m+j] -= 0.7 * (wex[i*m+j+1] - wex[i*m+j] + wey[(i+1)*m+j] - wey[i*m+j])
			}
		}
	}
	img := NewImage()
	img.AllocF("ex", ex)
	img.AllocF("ey", ey)
	img.AllocF("hz", hz)
	img.AllocF("fict", fict)
	img.ExpectF("ex", wex, 4e-3)
	img.ExpectF("ey", wey, 4e-3)
	img.ExpectF("hz", whz, 4e-3)
	return img, nil
}

func (f fdtdBench) Build(ctx *Ctx) error {
	if err := fdtdCheck(ctx.P); err != nil {
		return err
	}
	ctx.Begin()
	b := ctx.B
	t, pFict := b.Int(), b.Int()
	b.LiU(pFict, ctx.Img.Arr("fict").Addr)
	b.ForI(t, 0, int32(ctx.P.TMax), 1, func() {
		if ctx.SW.Style == config.StyleVector {
			f.buildEyVec(ctx, pFict)
			f.buildExVec(ctx)
			f.buildHzVec(ctx)
		} else {
			f.buildEyMIMD(ctx, pFict)
			f.buildExMIMD(ctx)
			f.buildHzMIMD(ctx)
		}
		b.Addi(pFict, pFict, 4)
	})
	b.FreeInt(t, pFict)
	ctx.Finish()
	return nil
}

// fictRow emits the ey[0][j] = fict[t] boundary fill, split across the
// given workers (cores in MIMD, scalar cores in vector mode).
func fdtdFictRow(ctx *Ctx, pFict isa.Reg, wid isa.Reg, workers int) {
	b := ctx.B
	m := ctx.P.M
	ey := ctx.Img.Arr("ey")
	fv := b.Fp()
	j, pE := b.Int(), b.Int()
	b.Flw(fv, pFict, 0)
	ctx.StridedLoop(j, wid, int32(m), int32(workers), func() {
		ctx.AddrInto(pE, j, ey.Addr, 1, 0)
		b.Fsw(fv, pE, 0)
	})
	b.FreeInt(j, pE)
	b.FreeFp(fv)
}

// --- MIMD sweeps (NV word loads; NV_PF streams rows through frames) ---

func (fdtdBench) buildEyMIMD(ctx *Ctx, pFict isa.Reg) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	ex := ctx.Img
	ey, hz := ex.Arr("ey"), ex.Arr("hz")
	pf := ctx.SW.WideAccess
	lw := 16
	frames := ctx.HW.FrameCounters
	if pf {
		ctx.SetupFrames(3*lw, frames)
	}
	ctx.MIMDKernel(func() {
		fdtdFictRow(ctx, pFict, ctx.WorkerID(), ctx.Workers())
		half := b.Fp()
		b.FliF(half, 0.5)
		fe, fa, fb2, res := b.Fp(), b.Fp(), b.Fp(), b.Fp()
		i, j := b.Int(), b.Int()
		pE, pH, pHm, pS, t := b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
		ctx.StridedLoop(i, ctx.WorkerID(), int32(n-1), int32(ctx.Workers()), func() {
			ctx.AddrInto(pE, i, ey.Addr, m, int32(4*m)) // row i+1
			b.Mv(pS, pE)
			ctx.AddrInto(pH, i, hz.Addr, m, int32(4*m))
			ctx.AddrInto(pHm, i, hz.Addr, m, 0) // row i
			if pf {
				ctx.SelfDAE(m/lw, 3*lw, frames,
					func(_, off isa.Reg) {
						b.VLoad(isa.VloadSelf, pE, off, 0, lw, true)
						b.Addi(t, off, int32(4*lw))
						b.VLoad(isa.VloadSelf, pH, t, 0, lw, true)
						b.Addi(t, off, int32(8*lw))
						b.VLoad(isa.VloadSelf, pHm, t, 0, lw, true)
						b.Addi(pH, pH, int32(4*lw))
						b.Addi(pHm, pHm, int32(4*lw))
						b.Addi(pE, pE, int32(4*lw))
					},
					func(fb isa.Reg) {
						for u := 0; u < lw; u++ {
							b.FlwSp(fe, fb, int32(4*u))
							b.FlwSp(fa, fb, int32(4*(lw+u)))
							b.FlwSp(fb2, fb, int32(4*(2*lw+u)))
							b.Fsub(fa, fa, fb2)
							b.Fmul(fa, fa, half)
							b.Fsub(res, fe, fa)
							b.Fsw(res, pS, int32(4*u))
						}
						b.Addi(pS, pS, int32(4*lw))
					})
			} else {
				b.ForI(j, 0, int32(m), 1, func() {
					b.Flw(fe, pE, 0)
					b.Flw(fa, pH, 0)
					b.Flw(fb2, pHm, 0)
					b.Fsub(fa, fa, fb2)
					b.Fmul(fa, fa, half)
					b.Fsub(res, fe, fa)
					b.Fsw(res, pE, 0)
					b.Addi(pE, pE, 4)
					b.Addi(pH, pH, 4)
					b.Addi(pHm, pHm, 4)
				})
			}
		})
		b.FreeInt(i, j, pE, pH, pHm, pS, t)
		b.FreeFp(half, fe, fa, fb2, res)
	})
}

func (fdtdBench) buildExMIMD(ctx *Ctx) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	ex, hz := ctx.Img.Arr("ex"), ctx.Img.Arr("hz")
	ctx.MIMDKernel(func() {
		half := b.Fp()
		b.FliF(half, 0.5)
		fe, fa, fb2, res := b.Fp(), b.Fp(), b.Fp(), b.Fp()
		i, j := b.Int(), b.Int()
		pE, pH := b.Int(), b.Int()
		ctx.StridedLoop(i, ctx.WorkerID(), int32(n), int32(ctx.Workers()), func() {
			ctx.AddrInto(pE, i, ex.Addr, m, 4)
			ctx.AddrInto(pH, i, hz.Addr, m, 4)
			b.ForI(j, 1, int32(m), 1, func() {
				b.Flw(fe, pE, 0)
				b.Flw(fa, pH, 0)
				b.Flw(fb2, pH, -4)
				b.Fsub(fa, fa, fb2)
				b.Fmul(fa, fa, half)
				b.Fsub(res, fe, fa)
				b.Fsw(res, pE, 0)
				b.Addi(pE, pE, 4)
				b.Addi(pH, pH, 4)
			})
		})
		b.FreeInt(i, j, pE, pH)
		b.FreeFp(half, fe, fa, fb2, res)
	})
}

func (fdtdBench) buildHzMIMD(ctx *Ctx) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	ex, ey, hz := ctx.Img.Arr("ex"), ctx.Img.Arr("ey"), ctx.Img.Arr("hz")
	ctx.MIMDKernel(func() {
		c7 := b.Fp()
		b.FliF(c7, 0.7)
		fh, fx1, fx0, fy1, fy0, res := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
		i, j := b.Int(), b.Int()
		pH, pX, pY, pY1 := b.Int(), b.Int(), b.Int(), b.Int()
		ctx.StridedLoop(i, ctx.WorkerID(), int32(n-1), int32(ctx.Workers()), func() {
			ctx.AddrInto(pH, i, hz.Addr, m, 0)
			ctx.AddrInto(pX, i, ex.Addr, m, 0)
			ctx.AddrInto(pY, i, ey.Addr, m, 0)
			ctx.AddrInto(pY1, i, ey.Addr, m, int32(4*m))
			b.ForI(j, 0, int32(m-1), 1, func() {
				b.Flw(fh, pH, 0)
				b.Flw(fx1, pX, 4)
				b.Flw(fx0, pX, 0)
				b.Flw(fy1, pY1, 0)
				b.Flw(fy0, pY, 0)
				b.Fsub(fx1, fx1, fx0)
				b.Fsub(fy1, fy1, fy0)
				b.Fadd(fx1, fx1, fy1)
				b.Fmul(fx1, fx1, c7)
				b.Fsub(res, fh, fx1)
				b.Fsw(res, pH, 0)
				b.Addi(pH, pH, 4)
				b.Addi(pX, pX, 4)
				b.Addi(pY, pY, 4)
				b.Addi(pY1, pY1, 4)
			})
		})
		b.FreeInt(i, j, pH, pX, pY, pY1)
		b.FreeFp(c7, fh, fx1, fx0, fy1, fy0, res)
	})
}

// --- Vector sweeps ---

// buildEyVec: lanes own rows 1..N-1 in vlen blocks. Frame: ey[i], hz[i],
// hz[i-1] chunks (aligned). The scalar cores fill the fict boundary row.
func (fdtdBench) buildEyVec(ctx *Ctx, pFict isa.Reg) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	lw := 16
	vlen := ctx.VLen()
	groups := ctx.Workers()
	frames := ctx.HW.FrameCounters
	frameWords := 3 * lw
	blocks := (n - 1) / vlen
	ey, hz := ctx.Img.Arr("ey"), ctx.Img.Arr("hz")

	half, fe, fa, fb2, res := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
	ePtr, mtFb := b.Int(), b.Int()

	mtInit, _ := b.Microthread(func() { b.FliF(half, 0.5) })
	mtChunk, mtChunkLen := b.Microthread(func() {
		b.FrameStart(mtFb)
		for u := 0; u < lw; u++ {
			b.FlwSp(fe, mtFb, int32(4*u))
			b.FlwSp(fa, mtFb, int32(4*(lw+u)))
			b.FlwSp(fb2, mtFb, int32(4*(2*lw+u)))
			b.Fsub(fa, fa, fb2)
			b.Fmul(fa, fa, half)
			b.Fsub(res, fe, fa)
			b.Fsw(res, ePtr, int32(4*u))
		}
		b.Addi(ePtr, ePtr, int32(4*lw))
		b.Remem()
	})
	rowAdv := int32(4 * (groups*vlen - 1) * m)
	mtAdv, _ := b.Microthread(func() { b.Addi(ePtr, ePtr, rowAdv) })

	ctx.VectorKernel(frameWords, frames,
		func() { // lane's ey pointer at its first owned row (1-based)
			ctx.LanePtr(ePtr, 1, ey.Addr, m, 0)
		},
		func() {
			fdtdFictRow(ctx, pFict, ctx.Gid, groups)
			b.VIssueAt(mtInit)
			rb, pE, pH, t, toff := b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
			ctx.StridedLoop(rb, ctx.Gid, int32(blocks), int32(groups), func() {
				// Block rb covers rows rb*vlen+1 .. rb*vlen+vlen.
				ctx.AddrInto(pE, rb, ey.Addr, vlen*m, int32(4*m))
				ctx.AddrInto(pH, rb, hz.Addr, vlen*m, int32(4*m))
				ctx.VecDAE(m/lw, frameWords, frames, mtChunkLen, mtChunk,
					func(_, off isa.Reg) {
						for l := 0; l < vlen; l++ {
							b.Addi(t, pE, int32(4*l*m))
							b.VLoad(isa.VloadSingle, t, off, l, lw, true)
							b.Addi(t, pH, int32(4*l*m))
							b.Addi(toff, off, int32(4*lw))
							b.VLoad(isa.VloadSingle, t, toff, l, lw, true)
							b.Addi(t, pH, int32(4*(l-1)*m))
							b.Addi(toff, off, int32(8*lw))
							b.VLoad(isa.VloadSingle, t, toff, l, lw, true)
						}
						b.Addi(pE, pE, int32(4*lw))
						b.Addi(pH, pH, int32(4*lw))
					})
				b.VIssueAt(mtAdv)
			})
			b.FreeInt(rb, pE, pH, t, toff)
		})
	b.FreeInt(ePtr, mtFb)
	b.FreeFp(half, fe, fa, fb2, res)
}

// buildExVec: lanes own rows 1..N-1; the scalar cores sweep row 0. Frame:
// hz[i] chunk, the single hz[i][j0-1] boundary word, and the ex chunk. The
// first chunk of each row uses a variant microthread that skips j=0.
func (fdtdBench) buildExVec(ctx *Ctx) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	lw := 16
	vlen := ctx.VLen()
	groups := ctx.Workers()
	frames := ctx.HW.FrameCounters
	frameWords := 2*lw + 1
	blocks := (n - 1) / vlen
	ex, hz := ctx.Img.Arr("ex"), ctx.Img.Arr("hz")

	half, fe, fa, fb2, res := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
	xPtr, mtFb := b.Int(), b.Int()

	mtInit, _ := b.Microthread(func() { b.FliF(half, 0.5) })
	emitChunk := func(skipFirst bool) {
		b.FrameStart(mtFb)
		start := 0
		if skipFirst {
			start = 1
		}
		for u := start; u < lw; u++ {
			b.FlwSp(fe, mtFb, int32(4*(lw+1+u)))
			b.FlwSp(fa, mtFb, int32(4*u))
			if u == 0 {
				b.FlwSp(fb2, mtFb, int32(4*lw)) // boundary word hz[j0-1]
			} else {
				b.FlwSp(fb2, mtFb, int32(4*(u-1)))
			}
			b.Fsub(fa, fa, fb2)
			b.Fmul(fa, fa, half)
			b.Fsub(res, fe, fa)
			b.Fsw(res, xPtr, int32(4*u))
		}
		b.Addi(xPtr, xPtr, int32(4*lw))
		b.Remem()
	}
	mtFirst, _ := b.Microthread(func() { emitChunk(true) })
	mtRest, mtRestLen := b.Microthread(func() { emitChunk(false) })
	rowAdv := int32(4 * (groups*vlen - 1) * m)
	mtAdv, _ := b.Microthread(func() { b.Addi(xPtr, xPtr, rowAdv) })

	ctx.VectorKernel(frameWords, frames,
		func() { ctx.LanePtr(xPtr, 1, ex.Addr, m, 0) },
		func() {
			// Scalar cores sweep row 0 word-wise while lanes stream.
			b.VIssueAt(mtInit)
			fdtdExRow0(ctx)
			rb, pX, pH, t, toff := b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
			loadChunk := func(off isa.Reg) {
				for l := 0; l < vlen; l++ {
					b.Addi(t, pH, int32(4*l*m))
					b.VLoad(isa.VloadSingle, t, off, l, lw, true)
					// Boundary word hz[i][j0-1]; for the first chunk it
					// fetches the previous row's tail, which mtFirst's
					// skipped output never reads.
					b.Addi(t, pH, int32(4*(l*m-1)))
					b.Addi(toff, off, int32(4*lw))
					b.VLoad(isa.VloadSingle, t, toff, l, 1, true)
					b.Addi(t, pX, int32(4*l*m))
					b.Addi(toff, off, int32(4*(lw+1)))
					b.VLoad(isa.VloadSingle, t, toff, l, lw, true)
				}
				b.Addi(pX, pX, int32(4*lw))
				b.Addi(pH, pH, int32(4*lw))
			}
			ctx.StridedLoop(rb, ctx.Gid, int32(blocks), int32(groups), func() {
				ctx.AddrInto(pX, rb, ex.Addr, vlen*m, int32(4*m))
				ctx.AddrInto(pH, rb, hz.Addr, vlen*m, int32(4*m))
				// Chunk 0 skips the j=0 output (mtFirst); the rest pipeline.
				loadChunk(ctx.daeOff)
				ctx.bumpDAE()
				b.VIssueAt(mtFirst)
				ctx.VecDAE(m/lw-1, frameWords, frames, mtRestLen, mtRest,
					func(_, off isa.Reg) { loadChunk(off) })
				b.VIssueAt(mtAdv)
			})
			b.FreeInt(rb, pX, pH, t, toff)
		})
	b.FreeInt(xPtr, mtFb)
	b.FreeFp(half, fe, fa, fb2, res)
}

// fdtdExRow0 sweeps ex row 0 on the scalar cores (strided by group id).
func fdtdExRow0(ctx *Ctx) {
	b := ctx.B
	m := ctx.P.M
	ex, hz := ctx.Img.Arr("ex"), ctx.Img.Arr("hz")
	half, fe, fa, fb2 := b.Fp(), b.Fp(), b.Fp(), b.Fp()
	b.FliF(half, 0.5)
	j, pE, pH := b.Int(), b.Int(), b.Int()
	one := b.Int()
	b.Li(one, 1)
	b.Add(one, one, ctx.Gid) // start at j = 1+gid
	ctx.StridedLoop(j, one, int32(m), int32(ctx.Workers()), func() {
		ctx.AddrInto(pE, j, ex.Addr, 1, 0)
		ctx.AddrInto(pH, j, hz.Addr, 1, 0)
		b.Flw(fe, pE, 0)
		b.Flw(fa, pH, 0)
		b.Flw(fb2, pH, -4)
		b.Fsub(fa, fa, fb2)
		b.Fmul(fa, fa, half)
		b.Fsub(fe, fe, fa)
		b.Fsw(fe, pE, 0)
	})
	b.FreeInt(j, pE, pH, one)
	b.FreeFp(half, fe, fa, fb2)
}

// buildHzVec: lanes own rows 0..N-2. Frame: hz, ex (plus one extra word),
// ey[i], ey[i+1] chunks; the final chunk of each row uses a variant that
// skips j = M-1.
func (fdtdBench) buildHzVec(ctx *Ctx) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	lw := 16
	vlen := ctx.VLen()
	groups := ctx.Workers()
	frames := ctx.HW.FrameCounters
	frameWords := 4*lw + 1
	blocks := (n - 1) / vlen
	ex, ey, hz := ctx.Img.Arr("ex"), ctx.Img.Arr("ey"), ctx.Img.Arr("hz")

	c7, fh, fx1, fx0, fy1, fy0 := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
	hPtr, mtFb := b.Int(), b.Int()

	mtInit, _ := b.Microthread(func() { b.FliF(c7, 0.7) })
	// Frame layout: [hz 16][ex 16][ex extra 1][ey_i 16][ey_i1 16].
	emitChunk := func(last bool) {
		b.FrameStart(mtFb)
		count := lw
		if last {
			count = lw - 1
		}
		for u := 0; u < count; u++ {
			b.FlwSp(fh, mtFb, int32(4*u))
			b.FlwSp(fx0, mtFb, int32(4*(lw+u)))
			b.FlwSp(fx1, mtFb, int32(4*(lw+u+1))) // u=15 reads the extra word
			b.FlwSp(fy0, mtFb, int32(4*(2*lw+1+u)))
			b.FlwSp(fy1, mtFb, int32(4*(3*lw+1+u)))
			b.Fsub(fx1, fx1, fx0)
			b.Fsub(fy1, fy1, fy0)
			b.Fadd(fx1, fx1, fy1)
			b.Fmul(fx1, fx1, c7)
			b.Fsub(fh, fh, fx1)
			b.Fsw(fh, hPtr, int32(4*u))
		}
		b.Addi(hPtr, hPtr, int32(4*lw))
		b.Remem()
	}
	mtRest, mtRestLen := b.Microthread(func() { emitChunk(false) })
	mtLast, _ := b.Microthread(func() { emitChunk(true) })
	rowAdv := int32(4 * (groups*vlen - 1) * m)
	mtAdv, _ := b.Microthread(func() { b.Addi(hPtr, hPtr, rowAdv) })

	loadChunk := func(pH, pX, pY, pY1, t, toff isa.Reg, off isa.Reg) {
		for l := 0; l < vlen; l++ {
			b.Addi(t, pH, int32(4*l*m))
			b.VLoad(isa.VloadSingle, t, off, l, lw, true)
			b.Addi(t, pX, int32(4*l*m))
			b.Addi(toff, off, int32(4*lw))
			b.VLoad(isa.VloadSingle, t, toff, l, lw, true)
			b.Addi(t, pX, int32(4*(l*m+lw)))
			b.Addi(toff, off, int32(8*lw))
			b.VLoad(isa.VloadSingle, t, toff, l, 1, true)
			b.Addi(t, pY, int32(4*l*m))
			b.Addi(toff, off, int32(4*(2*lw+1)))
			b.VLoad(isa.VloadSingle, t, toff, l, lw, true)
			b.Addi(t, pY1, int32(4*l*m))
			b.Addi(toff, off, int32(4*(3*lw+1)))
			b.VLoad(isa.VloadSingle, t, toff, l, lw, true)
		}
		b.Addi(pH, pH, int32(4*lw))
		b.Addi(pX, pX, int32(4*lw))
		b.Addi(pY, pY, int32(4*lw))
		b.Addi(pY1, pY1, int32(4*lw))
	}

	ctx.VectorKernel(frameWords, frames,
		func() { ctx.LanePtr(hPtr, 0, hz.Addr, m, 0) },
		func() {
			b.VIssueAt(mtInit)
			rb, pH, pX, pY, pY1 := b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
			t, toff := b.Int(), b.Int()
			chunksPerRow := m / lw
			ctx.StridedLoop(rb, ctx.Gid, int32(blocks), int32(groups), func() {
				ctx.AddrInto(pH, rb, hz.Addr, vlen*m, 0)
				ctx.AddrInto(pX, rb, ex.Addr, vlen*m, 0)
				ctx.AddrInto(pY, rb, ey.Addr, vlen*m, 0)
				ctx.AddrInto(pY1, rb, ey.Addr, vlen*m, int32(4*m))
				// All but the final chunk use mtRest; the final chunk's
				// microthread skips j = M-1.
				ctx.VecDAE(chunksPerRow-1, frameWords, frames, mtRestLen, mtRest,
					func(_, off isa.Reg) {
						loadChunk(pH, pX, pY, pY1, t, toff, off)
					})
				// Final chunk: load then issue the tail microthread.
				loadChunk(pH, pX, pY, pY1, t, toff, ctx.daeOff)
				ctx.bumpDAE()
				b.VIssueAt(mtLast)
				b.VIssueAt(mtAdv)
			})
			b.FreeInt(rb, pH, pX, pY, pY1, t, toff)
		})
	b.FreeInt(hPtr, mtFb)
	b.FreeFp(c7, fh, fx1, fx0, fy1, fy0)
}

func (fdtdBench) GPU(p Params, img *Image) ([]gpu.Kernel, error) {
	n, m, tmax := p.N, p.M, p.TMax
	ex, ey, hz := img.Arr("ex"), img.Arr("ey"), img.Arr("hz")
	// One thread per grid point, row-major: thread t is point (t/m, t%m),
	// flat index t. shift(a, d) is a's point d words further on.
	shift := func(a *Array, d int) func(t int) uint32 {
		return func(t int) uint32 { return a.At(t + d) }
	}
	eyDown, hzDown := shift(ey, m), shift(hz, m) // row i+1
	hzLeft := func(t int) uint32 {               // column 0 reads itself
		if t%m == 0 {
			return hz.At(t)
		}
		return hz.At(t - 1)
	}
	exRight := func(t int) uint32 { // the last column reads itself
		if t%m == m-1 {
			return ex.At(t)
		}
		return ex.At(t + 1)
	}
	var launches []gpu.Kernel
	for t := 0; t < tmax; t++ {
		launches = append(launches,
			gpu.PerThread("fdtd-ey", (n-1)*m, func(w *gpu.Wave) { // thread (i, j) updates row i+1
				w.Load(eyDown)
				w.Load(hzDown)
				w.Load(hz.At)
				w.Compute(2)
				w.Store(eyDown)
			}),
			gpu.PerThread("fdtd-ex", n*m, func(w *gpu.Wave) {
				w.Load(ex.At)
				w.Load(hz.At)
				w.Load(hzLeft)
				w.Compute(2)
				w.Store(ex.At)
			}),
			gpu.PerThread("fdtd-hz", (n-1)*m, func(w *gpu.Wave) {
				w.Load(hz.At)
				w.Load(exRight)
				w.Load(ex.At)
				w.Load(eyDown)
				w.Load(ey.At)
				w.Compute(3)
				w.Store(hz.At)
			}))
	}
	return launches, nil
}
