package kernels

import (
	"fmt"
	"math"

	"rockcress/internal/gpu"
	"rockcress/internal/isa"
)

// corr and covar (PolyBench/GPU): per-variable statistics followed by a
// symmetric matrix product. Per Table 2 both use kernel fusion (mean and
// stddev in one sweep) and the transpose layout (variables are rows, so
// every access streams). corr's stddev floor (std <= eps ? 1 : std) is the
// evaluation's use of predication in vector mode (§2.4): vector cores
// cannot branch, so the conditional substitution runs under a predicate
// mask.
type corrBench struct{}
type covarBench struct{}

func init() {
	register(corrBench{})
	register(covarBench{})
}

const corrEps = float32(0.005)

func (corrBench) Info() Info {
	return Info{
		Name:        "corr",
		InputDesc:   "MxN data (variables x points)",
		Description: "Matrix correlation",
		AlgOpt:      "Kernel fusion",
		MemOpt:      "Transpose",
		Kernels:     2,
	}
}

func (covarBench) Info() Info {
	return Info{
		Name:        "covar",
		InputDesc:   "MxN data (variables x points)",
		Description: "Matrix covariance",
		AlgOpt:      "Kernel fusion",
		MemOpt:      "Transpose",
		Kernels:     2,
	}
}

func corrDefaults(s Scale) Params {
	switch s {
	case Tiny:
		return Params{N: 16, M: 32, Seed: 37} // N points, M variables
	case Small:
		return Params{N: 32, M: 64, Seed: 37}
	default:
		return Params{N: 64, M: 128, Seed: 37}
	}
}

func (corrBench) Defaults(s Scale) Params  { return corrDefaults(s) }
func (covarBench) Defaults(s Scale) Params { return corrDefaults(s) }

func corrCheck(p Params) error {
	if p.N%16 != 0 || log2(p.N) < 0 {
		return fmt.Errorf("N=%d must be a power-of-two multiple of 16", p.N)
	}
	if p.M%16 != 0 {
		return fmt.Errorf("M=%d must be a multiple of 16", p.M)
	}
	return nil
}

// corrPrepare computes the normalized (or centered) data and the symmetric
// product the simulator must reproduce.
func corrPrepare(p Params, normalize bool) (*Image, error) {
	n, m := p.N, p.M
	r := rng(p.Seed)
	data := randF(r, m*n, 0, 4)
	norm := make([]float32, m*n)
	fn := float32(n)
	for i := 0; i < m; i++ {
		var sum, sq float32
		for k := 0; k < n; k++ {
			v := data[i*n+k]
			sum += v
			sq += v * v
		}
		mean := sum / fn
		if normalize {
			variance := sq/fn - mean*mean
			std := float32(math.Sqrt(float64(variance)))
			if std <= corrEps {
				std = 1
			}
			inv := 1 / (std * float32(math.Sqrt(float64(fn))))
			for k := 0; k < n; k++ {
				norm[i*n+k] = (data[i*n+k] - mean) * inv
			}
		} else {
			for k := 0; k < n; k++ {
				norm[i*n+k] = data[i*n+k] - mean
			}
		}
	}
	want := make([]float32, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var acc float32
			for k := 0; k < n; k++ {
				acc += norm[i*n+k] * norm[j*n+k]
			}
			want[i*m+j] = acc
		}
	}
	img := NewImage()
	img.AllocF("data", data)
	img.AllocZero("symmat", m*m)
	img.ExpectF("data", norm, 4e-3) // normalized in place
	img.ExpectF("symmat", want, 6e-3)
	return img, nil
}

func (corrBench) Prepare(p Params) (*Image, error)  { return corrPrepare(p, true) }
func (covarBench) Prepare(p Params) (*Image, error) { return corrPrepare(p, false) }

func corrBuild(ctx *Ctx, normalize bool) error {
	if err := corrCheck(ctx.P); err != nil {
		return err
	}
	ctx.Begin()
	buildStatsNormalize(ctx, normalize)
	img := ctx.Img
	buildRowDot(ctx, rowDotSpec{
		NI: ctx.P.M, NJ: ctx.P.M, NK: ctx.P.N,
		A1: img.Arr("data"), B1: img.Arr("data"), C: img.Arr("symmat"),
		Alpha: 1, AlphaOne: true,
	})
	ctx.Finish()
	return nil
}

func (corrBench) Build(ctx *Ctx) error  { return corrBuild(ctx, true) }
func (covarBench) Build(ctx *Ctx) error { return corrBuild(ctx, false) }

// emitStats computes mean (and for corr the epsilon-floored reciprocal
// scale) from the accumulated sum/sq, then the caller normalizes. The
// conditional std floor uses predication so the same code runs on vector
// lanes.
func emitStats(ctx *Ctx, normalize bool, sum, sq, mean, inv isa.FReg, n int) {
	b := ctx.B
	invN, tmp, eps, one := b.Fp(), b.Fp(), b.Fp(), b.Fp()
	b.FliF(invN, 1/float32(n))
	b.Fmul(mean, sum, invN)
	if normalize {
		b.Fmul(tmp, sq, invN)
		b.Fmul(inv, mean, mean)
		b.Fsub(tmp, tmp, inv) // variance
		b.Fsqrt(tmp, tmp)     // std
		b.FliF(eps, corrEps)
		b.FliF(one, 1)
		cond := b.Int()
		b.Emit(isa.Instr{Op: isa.OpFle, Rd: cond, Fs1: tmp, Fs2: eps})
		// Predicated substitution: std = 1 when std <= eps (§2.4).
		b.PredNeq(cond, isa.X0)
		b.Fmv(tmp, one)
		b.PredOn()
		b.FreeInt(cond)
		// inv = 1 / (std * sqrt(n))
		b.FliF(eps, float32(math.Sqrt(float64(n))))
		b.Fmul(tmp, tmp, eps)
		b.Fdiv(inv, one, tmp)
	}
	b.FreeFp(invN, tmp, eps, one)
}

// buildStatsNormalize emits kernel 1: per-row mean/std and the in-place
// normalization sweep, fused. Rows stream twice through the memory system
// (once to reduce, once to rewrite).
func buildStatsNormalize(ctx *Ctx, normalize bool) {
	if ctx.Vector() {
		buildStatsVec(ctx, normalize)
		return
	}
	if ctx.SW.WideAccess {
		buildStatsPF(ctx, normalize)
		return
	}
	buildStatsNV(ctx, normalize)
}

func buildStatsNV(ctx *Ctx, normalize bool) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	data := ctx.Img.Arr("data")
	ctx.MIMDKernel(func() {
		fz := ctx.Fzero()
		sum, sq, mean, inv, fv := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
		i, k, pD, pW := b.Int(), b.Int(), b.Int(), b.Int()
		ctx.StridedLoop(i, ctx.WorkerID(), int32(m), int32(ctx.Workers()), func() {
			ctx.AddrInto(pD, i, data.Addr, n, 0)
			b.Mv(pW, pD)
			b.Fmv(sum, fz)
			b.Fmv(sq, fz)
			b.ForI(k, 0, int32(n), 1, func() {
				b.Flw(fv, pD, 0)
				b.Fadd(sum, sum, fv)
				b.Fmadd(sq, fv, fv, sq)
				b.Addi(pD, pD, 4)
			})
			emitStats(ctx, normalize, sum, sq, mean, inv, n)
			b.ForI(k, 0, int32(n), 1, func() {
				b.Flw(fv, pW, 0)
				b.Fsub(fv, fv, mean)
				if normalize {
					b.Fmul(fv, fv, inv)
				}
				b.Fsw(fv, pW, 0)
				b.Addi(pW, pW, 4)
			})
		})
		b.FreeInt(i, k, pD, pW)
		b.FreeFp(fz, sum, sq, mean, inv, fv)
	})
}

func buildStatsPF(ctx *Ctx, normalize bool) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	lw := 16
	data := ctx.Img.Arr("data")
	frames := ctx.HW.FrameCounters
	ctx.SetupFrames(lw, frames)
	ctx.MIMDKernel(func() {
		fz := ctx.Fzero()
		sum, sq, mean, inv, fv := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
		i, pD, pW, pS := b.Int(), b.Int(), b.Int(), b.Int()
		ctx.StridedLoop(i, ctx.WorkerID(), int32(m), int32(ctx.Workers()), func() {
			ctx.AddrInto(pD, i, data.Addr, n, 0)
			b.Mv(pW, pD)
			b.Mv(pS, pD)
			b.Fmv(sum, fz)
			b.Fmv(sq, fz)
			ctx.SelfDAE(n/lw, lw, frames,
				func(_, off isa.Reg) {
					b.VLoad(isa.VloadSelf, pD, off, 0, lw, true)
					b.Addi(pD, pD, int32(4*lw))
				},
				func(fb isa.Reg) {
					for u := 0; u < lw; u++ {
						b.FlwSp(fv, fb, int32(4*u))
						b.Fadd(sum, sum, fv)
						b.Fmadd(sq, fv, fv, sq)
					}
				})
			emitStats(ctx, normalize, sum, sq, mean, inv, n)
			// Second sweep: reload through frames and store normalized.
			ctx.SelfDAE(n/lw, lw, frames,
				func(_, off isa.Reg) {
					b.VLoad(isa.VloadSelf, pW, off, 0, lw, true)
					b.Addi(pW, pW, int32(4*lw))
				},
				func(fb isa.Reg) {
					for u := 0; u < lw; u++ {
						b.FlwSp(fv, fb, int32(4*u))
						b.Fsub(fv, fv, mean)
						if normalize {
							b.Fmul(fv, fv, inv)
						}
						b.Fsw(fv, pS, int32(4*u))
					}
					b.Addi(pS, pS, int32(4*lw))
				})
		})
		b.FreeInt(i, pD, pW, pS)
		b.FreeFp(fz, sum, sq, mean, inv, fv)
	})
}

func buildStatsVec(ctx *Ctx, normalize bool) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	lw := 16
	vlen := ctx.VLen()
	groups := ctx.Workers()
	rowBytes := 4 * n
	frames := ctx.HW.FrameCounters
	blocks := m / vlen
	data := ctx.Img.Arr("data")

	fz, sum, sq, mean, inv, fv := b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp(), b.Fp()
	wPtr, mtFb := b.Int(), b.Int()

	mtInit, _ := b.Microthread(func() { b.FliF(fz, 0) })
	mtBegin, _ := b.Microthread(func() {
		b.Fmv(sum, fz)
		b.Fmv(sq, fz)
	})
	mtAcc, mtAccLen := b.Microthread(func() {
		b.FrameStart(mtFb)
		for u := 0; u < lw; u++ {
			b.FlwSp(fv, mtFb, int32(4*u))
			b.Fadd(sum, sum, fv)
			b.Fmadd(sq, fv, fv, sq)
		}
		b.Remem()
	})
	mtStats, _ := b.Microthread(func() {
		emitStats(ctx, normalize, sum, sq, mean, inv, n)
	})
	// Normalize pass: consume a frame, write the lane's row back.
	mtNorm, mtNormLen := b.Microthread(func() {
		b.FrameStart(mtFb)
		for u := 0; u < lw; u++ {
			b.FlwSp(fv, mtFb, int32(4*u))
			b.Fsub(fv, fv, mean)
			if normalize {
				b.Fmul(fv, fv, inv)
			}
			b.Fsw(fv, wPtr, int32(4*u))
		}
		b.Addi(wPtr, wPtr, int32(4*lw))
		b.Remem()
	})
	advBytes := int32((groups*vlen - 1) * rowBytes)
	mtAdv, _ := b.Microthread(func() {
		b.Addi(wPtr, wPtr, advBytes)
	})

	ctx.VectorKernel(lw, frames,
		func() { ctx.LanePtr(wPtr, 0, data.Addr, n, 0) },
		func() {
			b.VIssueAt(mtInit)
			rb, pD, pW, t := b.Int(), b.Int(), b.Int(), b.Int()
			ctx.StridedLoop(rb, ctx.Gid, int32(blocks), int32(groups), func() {
				ctx.AddrInto(pD, rb, data.Addr, vlen*n, 0)
				b.Mv(pW, pD)
				b.VIssueAt(mtBegin)
				ctx.VecDAE(n/lw, lw, frames, mtAccLen, mtAcc,
					func(_, off isa.Reg) {
						ctx.VLoadLanes(t, pD, rowBytes, off, lw)
						b.Addi(pD, pD, int32(4*lw))
					})
				b.VIssueAt(mtStats)
				ctx.VecDAE(n/lw, lw, frames, mtNormLen, mtNorm,
					func(_, off isa.Reg) {
						ctx.VLoadLanes(t, pW, rowBytes, off, lw)
						b.Addi(pW, pW, int32(4*lw))
					})
				b.VIssueAt(mtAdv)
			})
			b.FreeInt(rb, pD, pW, t)
		})
	b.FreeInt(wPtr, mtFb)
	b.FreeFp(fz, sum, sq, mean, inv, fv)
}

func (corrBench) GPU(p Params, img *Image) ([]gpu.Kernel, error)  { return corrGPU(p, img) }
func (covarBench) GPU(p Params, img *Image) ([]gpu.Kernel, error) { return corrGPU(p, img) }

func corrGPU(p Params, img *Image) ([]gpu.Kernel, error) {
	n, m := p.N, p.M
	data, symmat := img.Arr("data"), img.Arr("symmat")
	stats := gpu.PerThread("corr-stats", m, func(w *gpu.Wave) {
		for k := 0; k < n; k++ {
			w.Load(func(t int) uint32 { return data.At(t*n + k) })
			w.Compute(1)
		}
		w.Compute(4) // mean/std
		for k := 0; k < n; k++ {
			elem := func(t int) uint32 { return data.At(t*n + k) }
			w.Load(elem)
			w.Compute(1)
			w.Store(elem)
		}
	})
	product := rowDotGPU("corr-symmat", m, m, n, 1,
		func(_, i, k int) uint32 { return data.At(i*n + k) },
		func(_, k, j int) uint32 { return data.At(j*n + k) },
		func(i, j int) uint32 { return symmat.At(i*m + j) }, false)
	return []gpu.Kernel{stats, product}, nil
}
