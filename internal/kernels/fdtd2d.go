package kernels

import (
	"fmt"

	"rockcress/internal/config"
	"rockcress/internal/gpu"
	"rockcress/internal/isa"
	"rockcress/internal/prog"
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

// fdtdUpdate emits res = e - half*(h1 - h0), the ey and ex update; h1 is
// clobbered.
func fdtdUpdate(b *prog.Builder, res, e, h1, h0, half isa.FReg) {
	b.Fsub(h1, h1, h0)
	b.Fmul(h1, h1, half)
	b.Fsub(res, e, h1)
}

// fdtdHzUpdate emits res = h - c7*((x1 - x0) + (y1 - y0)); x1 and y1 are
// clobbered.
func fdtdHzUpdate(b *prog.Builder, res, h, x1, x0, y1, y0, c7 isa.FReg) {
	b.Fsub(x1, x1, x0)
	b.Fsub(y1, y1, y0)
	b.Fadd(x1, x1, y1)
	b.Fmul(x1, x1, c7)
	b.Fsub(res, h, x1)
}

// --- MIMD sweeps (NV word loads; NV_PF streams ey's rows through frames) ---

// The ey sweep stays hand-written: its NV loop stores through pE while its
// NV_PF consume stores through a copy pS, which both styles allocate and
// set.
func (fdtdBench) buildEyMIMD(ctx *Ctx, pFict isa.Reg) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	ex := ctx.Img
	ey, hz := ex.Arr("ey"), ex.Arr("hz")
	pf := ctx.SW.WideAccess
	lw := fdtdLW
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
							fdtdUpdate(b, res, fe, fa, fb2, half)
							b.Fsw(res, pS, int32(4*u))
						}
						b.Addi(pS, pS, int32(4*lw))
					})
			} else {
				b.ForI(j, 0, int32(m), 1, func() {
					b.Flw(fe, pE, 0)
					b.Flw(fa, pH, 0)
					b.Flw(fb2, pHm, 0)
					fdtdUpdate(b, res, fe, fa, fb2, half)
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

// fdtdRows emits the word-load row loop the ex and hz MIMD sweeps share:
// workers take rows [0, rows) round-robin, pointer k starts at
// bases[k] + 4*m*row, and columns j0..j1-1 each run body, then advance every
// pointer a word.
func fdtdRows(ctx *Ctx, rows, j0, j1 int, bases []uint32, body func(p [4]isa.Reg)) {
	b := ctx.B
	m := ctx.P.M
	i, j := b.Int(), b.Int()
	var p [4]isa.Reg
	for k := range bases {
		p[k] = b.Int()
	}
	ctx.StridedLoop(i, ctx.WorkerID(), int32(rows), int32(ctx.Workers()), func() {
		for k, base := range bases {
			ctx.AddrInto(p[k], i, base, m, 0)
		}
		b.ForI(j, int32(j0), int32(j1), 1, func() {
			body(p)
			for k := range bases {
				b.Addi(p[k], p[k], 4)
			}
		})
	})
	b.FreeInt(i, j)
	b.FreeInt(p[:len(bases)]...)
}

func (fdtdBench) buildExMIMD(ctx *Ctx) {
	b := ctx.B
	ex, hz := ctx.Img.Arr("ex"), ctx.Img.Arr("hz")
	ctx.MIMDKernel(func() {
		half, fe, fa, fb2, res := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
		b.FliF(half, 0.5)
		fdtdRows(ctx, ctx.P.N, 1, ctx.P.M, []uint32{ex.Addr + 4, hz.Addr + 4}, func(p [4]isa.Reg) {
			pE, pH := p[0], p[1]
			b.Flw(fe, pE, 0)
			b.Flw(fa, pH, 0)
			b.Flw(fb2, pH, -4)
			fdtdUpdate(b, res, fe, fa, fb2, half)
			b.Fsw(res, pE, 0)
		})
		b.FreeFp(half, fe, fa, fb2, res)
	})
}

func (fdtdBench) buildHzMIMD(ctx *Ctx) {
	b := ctx.B
	m := ctx.P.M
	ex, ey, hz := ctx.Img.Arr("ex"), ctx.Img.Arr("ey"), ctx.Img.Arr("hz")
	ctx.MIMDKernel(func() {
		c7, fh, fx1, fx0, fy1, fy0, res := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
		b.FliF(c7, 0.7)
		fdtdRows(ctx, ctx.P.N-1, 0, m-1, []uint32{hz.Addr, ex.Addr, ey.Addr, ey.Addr + uint32(4*m)}, func(p [4]isa.Reg) {
			pH, pX, pY, pY1 := p[0], p[1], p[2], p[3]
			b.Flw(fh, pH, 0)
			b.Flw(fx1, pX, 4)
			b.Flw(fx0, pX, 0)
			b.Flw(fy1, pY1, 0)
			b.Flw(fy0, pY, 0)
			fdtdHzUpdate(b, res, fh, fx1, fx0, fy1, fy0, c7)
			b.Fsw(res, pH, 0)
		})
		b.FreeFp(c7, fh, fx1, fx0, fy1, fy0, res)
	})
}

// --- Vector sweeps ---

// fdtdLW is the words of its row each lane streams per frame.
const fdtdLW = 16

// fdtdSweep is one vector sweep of fdtd-2d. Lanes own adjacent rows of
// vlen-row blocks, starting at row first of the array at lane; each frame
// carries, per lane, the loads' slices of the next fdtdLW columns. The
// skeleton owns the row-block loop, the per-lane slice loads, the pointer
// advance, the row-advance microthread and the one chunk per row that
// leaves an output out (the first chunk's output 0 when edge > 0, the last
// chunk's output fdtdLW-1 when edge < 0). A sweep states its arrays, its
// loads and its per-output body.
type fdtdSweep struct {
	lane       uint32 // base of the array the lanes write
	first      int
	frameWords int
	konst      isa.FReg // every lane loads kval into konst once
	kval       float32
	ptrs       []uint32 // block pointer k starts at ptrs[k] + block*vlen rows
	loads      []fdtdLoad
	edge       int
}

// fdtdLoad is one per-lane slice of a frame: width words from block pointer
// ptr, rowOff words past the lane's row, land at frame word frame.
type fdtdLoad struct{ ptr, rowOff, frame, width int }

// fetch emits one frame's slice loads for every lane, then advances every
// block pointer a chunk.
func (sp *fdtdSweep) fetch(ctx *Ctx, p [4]isa.Reg, t, toff, off isa.Reg) {
	b := ctx.B
	m := ctx.P.M
	for l := 0; l < ctx.VLen(); l++ {
		for _, ld := range sp.loads {
			b.Addi(t, p[ld.ptr], int32(4*(l*m+ld.rowOff)))
			dst := off
			if ld.frame != 0 {
				b.Addi(toff, off, int32(4*ld.frame))
				dst = toff
			}
			b.VLoad(isa.VloadSingle, t, dst, l, ld.width, true)
		}
	}
	for k := range sp.ptrs {
		b.Addi(p[k], p[k], 4*fdtdLW)
	}
}

// build emits the sweep as one vector kernel. out emits output u of the
// frame at fb, stored through ptr. scalar emits the scalar core's work
// before the row blocks, issuing mtInit (the lanes' konst load) among it.
func (sp *fdtdSweep) build(ctx *Ctx, out func(fb, ptr isa.Reg, u int), scalar func(mtInit string)) {
	b := ctx.B
	m := ctx.P.M
	vlen := ctx.VLen()
	groups := ctx.Workers()
	frames := ctx.HW.FrameCounters
	ptr, mtFb := b.Int(), b.Int()

	mtInit, _ := b.Microthread(func() { b.FliF(sp.konst, sp.kval) })
	chunkMT := func(skip int) (string, int) {
		return ctx.FrameMicrothread(mtFb, func(fb isa.Reg) {
			for u := range fdtdLW {
				if u != skip {
					out(fb, ptr, u)
				}
			}
			b.Addi(ptr, ptr, 4*fdtdLW)
		})
	}
	// The chunk microthreads appear in the order a row issues them.
	var mtEdge string
	if sp.edge > 0 {
		mtEdge, _ = chunkMT(0)
	}
	mtRest, mtRestLen := chunkMT(-1)
	if sp.edge < 0 {
		mtEdge, _ = chunkMT(fdtdLW - 1)
	}
	rowAdv := int32(4 * (groups*vlen - 1) * m)
	mtAdv, _ := b.Microthread(func() { b.Addi(ptr, ptr, rowAdv) })

	ctx.VectorKernel(sp.frameWords, frames,
		func() { ctx.LanePtr(ptr, sp.first, sp.lane, m, 0) },
		func() {
			scalar(mtInit)
			rb := b.Int()
			var p [4]isa.Reg
			for k := range sp.ptrs {
				p[k] = b.Int()
			}
			t, toff := b.Int(), b.Int()
			// edgeChunk loads one chunk outside the pipeline and issues the
			// variant that consumes it.
			edgeChunk := func() {
				sp.fetch(ctx, p, t, toff, ctx.daeOff)
				ctx.bumpDAE()
				b.VIssueAt(mtEdge)
			}
			ctx.StridedLoop(rb, ctx.Gid, int32((ctx.P.N-1)/vlen), int32(groups), func() {
				for k := range sp.ptrs {
					ctx.AddrInto(p[k], rb, sp.ptrs[k], vlen*m, 0)
				}
				if sp.edge > 0 {
					edgeChunk()
				}
				trip := m / fdtdLW
				if sp.edge != 0 {
					trip--
				}
				ctx.VecDAE(trip, sp.frameWords, frames, mtRestLen, mtRest,
					func(_, off isa.Reg) { sp.fetch(ctx, p, t, toff, off) })
				if sp.edge < 0 {
					edgeChunk()
				}
				b.VIssueAt(mtAdv)
			})
			b.FreeInt(rb)
			b.FreeInt(p[:len(sp.ptrs)]...)
			b.FreeInt(t, toff)
		})
	b.FreeInt(ptr, mtFb)
}

// buildEyVec: lanes own rows 1..N-1. Frame: ey[i], hz[i], hz[i-1] chunks
// (aligned). The scalar cores fill the fict boundary row.
func (fdtdBench) buildEyVec(ctx *Ctx, pFict isa.Reg) {
	b := ctx.B
	m := ctx.P.M
	lw := fdtdLW
	ey, hz := ctx.Img.Arr("ey"), ctx.Img.Arr("hz")
	half, fe, fa, fb2, res := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
	sp := fdtdSweep{
		lane: ey.Addr, first: 1, frameWords: 3 * lw, konst: half, kval: 0.5,
		ptrs:  []uint32{ey.Addr + uint32(4*m), hz.Addr + uint32(4*m)},
		loads: []fdtdLoad{{0, 0, 0, lw}, {1, 0, lw, lw}, {1, -m, 2 * lw, lw}},
	}
	sp.build(ctx, func(fb, ptr isa.Reg, u int) {
		b.FlwSp(fe, fb, int32(4*u))
		b.FlwSp(fa, fb, int32(4*(lw+u)))
		b.FlwSp(fb2, fb, int32(4*(2*lw+u)))
		fdtdUpdate(b, res, fe, fa, fb2, half)
		b.Fsw(res, ptr, int32(4*u))
	}, func(mtInit string) {
		fdtdFictRow(ctx, pFict, ctx.Gid, ctx.Workers())
		b.VIssueAt(mtInit)
	})
	b.FreeFp(half, fe, fa, fb2, res)
}

// buildExVec: lanes own rows 1..N-1; the scalar cores sweep row 0. Frame:
// hz[i] chunk, the single hz[i][j0-1] boundary word, and the ex chunk. The
// first chunk of each row skips j=0: its boundary word is the previous
// row's tail, which no output reads.
func (fdtdBench) buildExVec(ctx *Ctx) {
	b := ctx.B
	m := ctx.P.M
	lw := fdtdLW
	ex, hz := ctx.Img.Arr("ex"), ctx.Img.Arr("hz")
	half, fe, fa, fb2, res := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
	sp := fdtdSweep{
		lane: ex.Addr, first: 1, frameWords: 2*lw + 1, konst: half, kval: 0.5,
		ptrs:  []uint32{ex.Addr + uint32(4*m), hz.Addr + uint32(4*m)},
		loads: []fdtdLoad{{1, 0, 0, lw}, {1, -1, lw, 1}, {0, 0, lw + 1, lw}},
		edge:  1,
	}
	sp.build(ctx, func(fb, ptr isa.Reg, u int) {
		b.FlwSp(fe, fb, int32(4*(lw+1+u)))
		b.FlwSp(fa, fb, int32(4*u))
		if u == 0 {
			b.FlwSp(fb2, fb, int32(4*lw)) // boundary word hz[j0-1]
		} else {
			b.FlwSp(fb2, fb, int32(4*(u-1)))
		}
		fdtdUpdate(b, res, fe, fa, fb2, half)
		b.Fsw(res, ptr, int32(4*u))
	}, func(mtInit string) {
		b.VIssueAt(mtInit)
		fdtdExRow0(ctx) // the scalar cores sweep row 0 while lanes stream
	})
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
		fdtdUpdate(b, fe, fe, fa, fb2, half)
		b.Fsw(fe, pE, 0)
	})
	b.FreeInt(j, pE, pH, one)
	b.FreeFp(half, fe, fa, fb2)
}

// buildHzVec: lanes own rows 0..N-2. Frame: [hz 16][ex 16][ex extra 1]
// [ey_i 16][ey_i1 16]; the last chunk of each row skips j = M-1, whose ex
// extra word lies past the row.
func (fdtdBench) buildHzVec(ctx *Ctx) {
	b := ctx.B
	m := ctx.P.M
	lw := fdtdLW
	ex, ey, hz := ctx.Img.Arr("ex"), ctx.Img.Arr("ey"), ctx.Img.Arr("hz")
	c7, fh, fx1, fx0, fy1, fy0 := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
	sp := fdtdSweep{
		lane: hz.Addr, frameWords: 4*lw + 1, konst: c7, kval: 0.7,
		ptrs:  []uint32{hz.Addr, ex.Addr, ey.Addr, ey.Addr + uint32(4*m)},
		loads: []fdtdLoad{{0, 0, 0, lw}, {1, 0, lw, lw}, {1, lw, 2 * lw, 1}, {2, 0, 2*lw + 1, lw}, {3, 0, 3*lw + 1, lw}},
		edge:  -1,
	}
	sp.build(ctx, func(fb, ptr isa.Reg, u int) {
		b.FlwSp(fh, fb, int32(4*u))
		b.FlwSp(fx0, fb, int32(4*(lw+u)))
		b.FlwSp(fx1, fb, int32(4*(lw+u+1))) // u=15 reads the extra word
		b.FlwSp(fy0, fb, int32(4*(2*lw+1+u)))
		b.FlwSp(fy1, fb, int32(4*(3*lw+1+u)))
		fdtdHzUpdate(b, fh, fh, fx1, fx0, fy1, fy0, c7)
		b.Fsw(fh, ptr, int32(4*u))
	}, b.VIssueAt)
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
