package kernels

import (
	"rockcress/internal/config"
	"rockcress/internal/gpu"
	"rockcress/internal/isa"
)

// atax: y = A'(Ax) (PolyBench/GPU). Kernel 1 is a row-wise matrix-vector
// product (tmp = A*x). Kernel 2 applies the paper's loop-reordering
// optimization (Table 2): instead of a per-column sweep, it streams A
// row-by-row and accumulates y[stripe] += tmp[i] * A[i, stripe] into
// per-worker column-stripe accumulators — so even the MIMD baselines
// prefetch effectively, and vector groups feed the whole stripe from one
// group load per row.
type ataxBench struct{}

func init() { register(ataxBench{}) }

func (ataxBench) Info() Info {
	return Info{
		Name:        "atax",
		InputDesc:   "NxN matrix, N vector",
		Description: "Mat-transpose vec (y = A'Ax)",
		AlgOpt:      "Loop reordering",
		Kernels:     2,
	}
}

func (ataxBench) Defaults(s Scale) Params {
	switch s {
	case Tiny:
		return Params{N: 64, Seed: 29}
	case Small:
		return Params{N: 256, Seed: 29}
	default:
		return Params{N: 768, Seed: 29}
	}
}

func (ataxBench) Prepare(p Params) (*Image, error) {
	n := p.N
	r := rng(p.Seed)
	a := randF(r, n*n, 0, 1)
	x := randF(r, n, 0, 1)
	tmp := make([]float32, n)
	for i := 0; i < n; i++ {
		var acc float32
		for j := 0; j < n; j++ {
			acc += a[i*n+j] * x[j]
		}
		tmp[i] = acc
	}
	want := make([]float32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[j] += tmp[i] * a[i*n+j]
		}
	}
	img := NewImage()
	img.AllocF("A", a)
	img.AllocF("x", x)
	img.AllocZero("tmp", n)
	img.AllocZero("y", n)
	img.ExpectF("tmp", tmp, 2e-3)
	img.ExpectF("y", want, 2e-3)
	return img, nil
}

func (at ataxBench) Build(ctx *Ctx) error {
	n := ctx.P.N
	img := ctx.Img
	k1 := mvSpec{Rows: n, Cols: n, A: img.Arr("A"), X: img.Arr("x"), Out: img.Arr("tmp")}
	if err := k1.check("atax"); err != nil {
		return err
	}
	ctx.Begin()
	buildMVRow(ctx, k1)
	at.buildAxpy(ctx)
	ctx.Finish()
	return nil
}

// buildAxpy emits kernel 2: y[stripe] += tmp[i]*A[i, stripe], with each
// worker owning interleaved 16-column stripes and sweeping all rows.
func (at ataxBench) buildAxpy(ctx *Ctx) {
	switch ctx.SW.Style {
	case config.StyleNV:
		at.buildAxpyNV(ctx)
	case config.StyleNVPF:
		at.buildAxpyPF(ctx)
	default:
		at.buildAxpyVec(ctx)
	}
}

const ataxStripe = 16 // columns per stripe (one cache line)

func (ataxBench) buildAxpyNV(ctx *Ctx) {
	b := ctx.B
	n := ctx.P.N
	A, T, Y := ctx.Img.Arr("A"), ctx.Img.Arr("tmp"), ctx.Img.Arr("y")
	stripes := n / ataxStripe
	ctx.MIMDKernel(func() {
		fz := ctx.Fzero()
		var acc [ataxStripe]isa.FReg
		for u := range acc {
			acc[u] = b.Fp()
		}
		ftmp, fa := b.Fp(), b.Fp()
		st, i := b.Int(), b.Int()
		pA, pT, pY := b.Int(), b.Int(), b.Int()
		ctx.StridedLoop(st, ctx.WorkerID(), int32(stripes), int32(ctx.Workers()), func() {
			for u := range acc {
				b.Fmv(acc[u], fz)
			}
			ctx.AddrInto(pA, st, A.Addr, ataxStripe, 0) // &A[0][stripe*16]
			b.LiU(pT, T.Addr)
			b.ForI(i, 0, int32(n), 1, func() {
				b.Flw(ftmp, pT, 0)
				for u := 0; u < ataxStripe; u++ {
					b.Flw(fa, pA, int32(4*u))
					b.Fmadd(acc[u], fa, ftmp, acc[u])
				}
				b.Addi(pT, pT, 4)
				b.Addi(pA, pA, int32(4*n))
			})
			ctx.AddrInto(pY, st, Y.Addr, ataxStripe, 0)
			for u := 0; u < ataxStripe; u++ {
				b.Fsw(acc[u], pY, int32(4*u))
			}
		})
		b.FreeInt(st, i, pA, pT, pY)
		b.FreeFp(fz, ftmp, fa)
		b.FreeFp(acc[:]...)
	})
}

func (ataxBench) buildAxpyPF(ctx *Ctx) {
	b := ctx.B
	n := ctx.P.N
	A, T, Y := ctx.Img.Arr("A"), ctx.Img.Arr("tmp"), ctx.Img.Arr("y")
	stripes := n / ataxStripe
	// Frame: one row's stripe slice plus that row's tmp word.
	frameWords := ataxStripe + 1
	frames := ctx.HW.FrameCounters
	ctx.SetupFrames(frameWords, frames)
	ctx.MIMDKernel(func() {
		fz := ctx.Fzero()
		var acc [ataxStripe]isa.FReg
		for u := range acc {
			acc[u] = b.Fp()
		}
		ftmp, fa := b.Fp(), b.Fp()
		st := b.Int()
		pA, pT, pY, t := b.Int(), b.Int(), b.Int(), b.Int()
		ctx.StridedLoop(st, ctx.WorkerID(), int32(stripes), int32(ctx.Workers()), func() {
			for u := range acc {
				b.Fmv(acc[u], fz)
			}
			ctx.AddrInto(pA, st, A.Addr, ataxStripe, 0)
			b.LiU(pT, T.Addr)
			ctx.SelfDAE(n, frameWords, frames,
				func(_, off isa.Reg) {
					b.VLoad(isa.VloadSelf, pA, off, 0, ataxStripe, true)
					b.Addi(t, off, int32(4*ataxStripe))
					b.VLoad(isa.VloadSelf, pT, t, 0, 1, true)
					b.Addi(pA, pA, int32(4*n))
					b.Addi(pT, pT, 4)
				},
				func(fb isa.Reg) {
					b.FlwSp(ftmp, fb, int32(4*ataxStripe))
					for u := 0; u < ataxStripe; u++ {
						b.FlwSp(fa, fb, int32(4*u))
						b.Fmadd(acc[u], fa, ftmp, acc[u])
					}
				})
			ctx.AddrInto(pY, st, Y.Addr, ataxStripe, 0)
			for u := 0; u < ataxStripe; u++ {
				b.Fsw(acc[u], pY, int32(4*u))
			}
		})
		b.FreeInt(st, pA, pT, pY, t)
		b.FreeFp(fz, ftmp, fa)
		b.FreeFp(acc[:]...)
	})
}

// buildAxpyVec: a group owns a 16-column stripe; lane l owns w = 16/vlen of
// its columns, so one GROUP load per row feeds the whole stripe from a
// single line. Frames batch 8 rows (A slices + the shared tmp words).
func (ataxBench) buildAxpyVec(ctx *Ctx) {
	b := ctx.B
	n := ctx.P.N
	A, T, Y := ctx.Img.Arr("A"), ctx.Img.Arr("tmp"), ctx.Img.Arr("y")
	vlen := ctx.VLen()
	groups := ctx.Workers()
	w := ataxStripe / vlen // columns per lane
	if w == 0 {
		w = 1
	}
	const rows = 8
	frameWords := rows*w + rows
	frames := ctx.HW.FrameCounters
	stripes := n / ataxStripe

	fz, ftmp := b.Fp(), b.Fp()
	acc := make([]isa.FReg, w)
	for u := range acc {
		acc[u] = b.Fp()
	}
	fa := b.Fp()
	yPtr, mtFb := b.Int(), b.Int()

	mtInit, _ := b.Microthread(func() { b.FliF(fz, 0) })
	mtBegin, _ := b.Microthread(func() {
		for u := range acc {
			b.Fmv(acc[u], fz)
		}
	})
	mtAcc, mtAccLen := b.Microthread(func() {
		b.FrameStart(mtFb)
		for r := 0; r < rows; r++ {
			b.FlwSp(ftmp, mtFb, int32(4*(rows*w+r)))
			for u := 0; u < w; u++ {
				b.FlwSp(fa, mtFb, int32(4*(r*w+u)))
				b.Fmadd(acc[u], fa, ftmp, acc[u])
			}
		}
		b.Remem()
	})
	advBytes := int32(groups * ataxStripe * 4)
	mtStore, _ := b.Microthread(func() {
		for u := 0; u < w; u++ {
			b.Fsw(acc[u], yPtr, int32(4*u))
		}
		b.Addi(yPtr, yPtr, advBytes)
	})

	ctx.VectorKernel(frameWords, frames,
		func() { // lane's y pointer: stripe base + lane*w columns
			col := b.Int()
			ctx.MulConst(col, ctx.Gid, ataxStripe)
			t := b.Int()
			ctx.MulConst(t, ctx.Lane, w)
			b.Add(col, col, t)
			ctx.AddrInto(yPtr, col, Y.Addr, 1, 0)
			b.FreeInt(col, t)
		},
		func() {
			b.VIssueAt(mtInit)
			st, pA, pT, t, toff := b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
			ctx.StridedLoop(st, ctx.Gid, int32(stripes), int32(groups), func() {
				ctx.AddrInto(pA, st, A.Addr, ataxStripe, 0)
				b.LiU(pT, T.Addr)
				b.VIssueAt(mtBegin)
				ctx.VecDAE(n/rows, frameWords, frames, mtAccLen, mtAcc,
					func(_, off isa.Reg) {
						for r := 0; r < rows; r++ {
							b.Addi(t, off, int32(4*r*w))
							b.VLoad(isa.VloadGroup, pA, t, 0, w, true)
							b.Addi(pA, pA, int32(4*n))
						}
						b.Addi(toff, off, int32(4*rows*w))
						ctx.VLoadAll(pT, toff, rows)
						b.Addi(pT, pT, int32(4*rows))
					})
				b.VIssueAt(mtStore)
			})
			b.FreeInt(st, pA, pT, t, toff)
		})
	b.FreeInt(yPtr, mtFb)
	b.FreeFp(fz, ftmp, fa)
	b.FreeFp(acc...)
}

func (ataxBench) GPU(p Params, img *Image) ([]gpu.Kernel, error) {
	n := p.N
	A := img.Arr("A")
	k1 := mvGPU("atax-tmp", n, n,
		func(i, j int) uint32 { return A.At(i*n + j) },
		img.Arr("x"), img.Arr("tmp"), false)
	k2 := mvGPU("atax-y", n, n,
		func(j, i int) uint32 { return A.At(i*n + j) }, // thread per column
		img.Arr("tmp"), img.Arr("y"), false)
	return []gpu.Kernel{k1, k2}, nil
}
