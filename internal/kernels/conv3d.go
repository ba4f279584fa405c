package kernels

import (
	"fmt"

	"rockcress/internal/config"
	"rockcress/internal/gpu"
	"rockcress/internal/isa"
)

// 3dconv: a 3x3x3 filter over an N x N x M volume (PolyBench/GPU's "3x3
// filter applied to a volume"). Interior (i,j) rows are flattened and
// partitioned across workers; each frame carries nine k-slices (three rows
// from each of three planes) fetched with unaligned pairs. The nine-slice
// frames make 3dconv the heaviest streaming kernel — the paper's best
// vector case (2x over NV_PF at V16).
type conv3dBench struct{}

func init() { register(conv3dBench{}) }

// conv3dCoef is the 27-tap filter, plane-major.
var conv3dCoef = func() [27]float32 {
	var c [27]float32
	for i := range c {
		c[i] = float32(i%5)*0.25 - 0.5
	}
	return c
}()

func (conv3dBench) Info() Info {
	return Info{
		Name:        "3dconv",
		InputDesc:   "NxNxM volume",
		Description: "3x3 filter applied to a volume",
		Kernels:     1,
	}
}

const conv3dChunk = 14 // outputs per microthread (16-word slices)

func (conv3dBench) Defaults(s Scale) Params {
	// Interior rows (N-2)^2 must divide by 16; interior cols (M-2) by 14.
	switch s {
	case Tiny:
		return Params{N: 6, M: 30, Seed: 31} // 16 interior rows, 28 cols
	case Small:
		return Params{N: 10, M: 58, Seed: 31} // 64 rows, 56 cols
	default:
		return Params{N: 18, M: 114, Seed: 31} // 256 rows, 112 cols
	}
}

func conv3dCheck(p Params) error {
	ir := (p.N - 2) * (p.N - 2)
	if ir%16 != 0 {
		return fmt.Errorf("3dconv: interior rows %d must be a multiple of 16", ir)
	}
	if (p.M-2)%conv3dChunk != 0 {
		return fmt.Errorf("3dconv: interior cols %d must divide by %d", p.M-2, conv3dChunk)
	}
	return nil
}

func (conv3dBench) Prepare(p Params) (*Image, error) {
	n, m := p.N, p.M
	r := rng(p.Seed)
	in := randF(r, n*n*m, 0, 1)
	want := make([]float32, n*n*m)
	at := func(i, j, k int) int { return (i*n+j)*m + k }
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			for k := 1; k < m-1; k++ {
				var acc float32
				for di := 0; di < 3; di++ {
					for dj := 0; dj < 3; dj++ {
						for dk := 0; dk < 3; dk++ {
							acc += conv3dCoef[(di*3+dj)*3+dk] * in[at(i+di-1, j+dj-1, k+dk-1)]
						}
					}
				}
				want[at(i, j, k)] = acc
			}
		}
	}
	img := NewImage()
	img.AllocF("in", in)
	img.AllocZero("out", n*n*m)
	img.ExpectF("out", want, 2e-3)
	return img, nil
}

// conv3dStencil emits the 27-tap accumulation for output o of a frame
// holding nine slices of sliceWords each (plane-major, row-minor).
func conv3dStencil(ctx *Ctx, cf []isa.FReg, fb isa.Reg, acc isa.FReg, tmps [4]isa.FReg, o, sliceWords int) {
	b := ctx.B
	first := true
	for s := 0; s < 9; s++ {
		for dk := 0; dk < 3; dk++ {
			f := tmps[(s*3+dk)%4]
			b.FlwSp(f, fb, int32(4*(s*sliceWords+o+dk)))
			if first {
				b.Fmul(acc, f, cf[0])
				first = false
			} else {
				b.Fmadd(acc, f, cf[s*3+dk], acc)
			}
		}
	}
}

func (cv conv3dBench) Build(ctx *Ctx) error {
	if err := conv3dCheck(ctx.P); err != nil {
		return err
	}
	ctx.Begin()
	switch ctx.SW.Style {
	case config.StyleNV:
		cv.buildNV(ctx)
	case config.StyleNVPF:
		cv.buildPF(ctx)
	case config.StyleVector:
		cv.buildVec(ctx)
	default:
		return fmt.Errorf("3dconv: unsupported style %s", ctx.SW.Style)
	}
	ctx.Finish()
	return nil
}

// coefRegs loads the 27 coefficients. 27 FP registers would exhaust the
// file, so coefficients live in the scratchpad's program region and a small
// register window is reloaded per tap... instead we exploit the filter's
// 5-value period: only 5 distinct coefficients exist, so 5 registers cover
// all taps.
func conv3dCoefRegs(ctx *Ctx) []isa.FReg {
	distinct := map[float32]isa.FReg{}
	out := make([]isa.FReg, 27)
	for i, v := range conv3dCoef {
		f, ok := distinct[v]
		if !ok {
			f = ctx.B.Fp()
			ctx.B.FliF(f, v)
			distinct[v] = f
		}
		out[i] = f
	}
	return out
}

// rowCoords converts a flat interior row index (runtime register) into the
// input base address &in[i-? ...]: base = ((i)*n + j)*m*4 + inAddr with
// i = r/(n-2)+1, j = r%(n-2)+1, pointing at (i-1, j-1, 0).
func conv3dRowBase(ctx *Ctx, dst, flat isa.Reg, n, m int, base uint32) {
	b := ctx.B
	ii, jj, t := b.Int(), b.Int(), b.Int()
	b.Li(t, int32(n-2))
	b.Div(ii, flat, t) // i-1
	b.Rem(jj, flat, t) // j-1
	// dst = (( (ii+1-1)*n + (jj+1-1) ) * m) * 4 + base  — the slice window
	// starts at plane i-1, row j-1, col 0.
	ctx.MulConst(t, ii, n)
	b.Add(t, t, jj)
	ctx.MulConst(dst, t, m*4)
	b.Addi(dst, dst, int32(base))
	b.FreeInt(ii, jj, t)
}

func (conv3dBench) buildNV(ctx *Ctx) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	in, out := ctx.Img.Arr("in"), ctx.Img.Arr("out")
	rowsI := (n - 2) * (n - 2)
	ctx.MIMDKernel(func() {
		cf := conv3dCoefRegs(ctx)
		// Four FP registers this build reserves and never reads (it loads
		// through fv): kept so acc and fv keep their register numbers.
		ctx.Fp4()
		acc, fv := b.Fp(), b.Fp()
		r, k := b.Int(), b.Int()
		pIn, pOut := b.Int(), b.Int()
		ctx.StridedLoop(r, ctx.WorkerID(), int32(rowsI), int32(ctx.Workers()), func() {
			conv3dRowBase(ctx, pIn, r, n, m, in.Addr)
			conv3dRowBase(ctx, pOut, r, n, m, out.Addr)
			// Output element (i, j, k): offset from base = (n+1)*m + k.
			b.Addi(pOut, pOut, int32(4*((n+1)*m+1)))
			b.ForI(k, 0, int32(m-2), 1, func() {
				first := true
				for di := 0; di < 3; di++ {
					for dj := 0; dj < 3; dj++ {
						for dk := 0; dk < 3; dk++ {
							off := int32(4 * ((di*n+dj)*m + dk))
							b.Flw(fv, pIn, off)
							if first {
								b.Fmul(acc, fv, cf[0])
								first = false
							} else {
								b.Fmadd(acc, fv, cf[(di*3+dj)*3+dk], acc)
							}
						}
					}
				}
				b.Fsw(acc, pOut, 0)
				b.Addi(pIn, pIn, 4)
				b.Addi(pOut, pOut, 4)
			})
		})
	})
}

func (conv3dBench) buildPF(ctx *Ctx) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	in, out := ctx.Img.Arr("in"), ctx.Img.Arr("out")
	rowsI := (n - 2) * (n - 2)
	chunk := conv3dChunk
	slice := chunk + 2
	frameWords := 9 * slice
	frames := ctx.HW.FrameCounters
	chunksPerRow := (m - 2) / chunk
	ctx.SetupFrames(frameWords, frames)
	ctx.MIMDKernel(func() {
		cf := conv3dCoefRegs(ctx)
		tmps := ctx.Fp4()
		acc := b.Fp()
		r := b.Int()
		pIn, pOut, t, toff := b.Int(), b.Int(), b.Int(), b.Int()
		ctx.StridedLoop(r, ctx.WorkerID(), int32(rowsI), int32(ctx.Workers()), func() {
			conv3dRowBase(ctx, pIn, r, n, m, in.Addr)
			conv3dRowBase(ctx, pOut, r, n, m, out.Addr)
			b.Addi(pOut, pOut, int32(4*((n+1)*m+1)))
			ctx.SelfDAE(chunksPerRow, frameWords, frames,
				func(_, off isa.Reg) {
					for di := 0; di < 3; di++ {
						for dj := 0; dj < 3; dj++ {
							b.Addi(t, pIn, int32(4*(di*n+dj)*m))
							b.Addi(toff, off, int32(4*(di*3+dj)*slice))
							b.VLoadUnaligned(isa.VloadSelf, t, toff, 0, slice, true)
						}
					}
					b.Addi(pIn, pIn, int32(4*chunk))
				},
				func(fb isa.Reg) {
					for o := 0; o < chunk; o++ {
						conv3dStencil(ctx, cf, fb, acc, tmps, o, slice)
						b.Fsw(acc, pOut, int32(4*o))
					}
					b.Addi(pOut, pOut, int32(4*chunk))
				})
		})
	})
}

func (conv3dBench) buildVec(ctx *Ctx) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	in, out := ctx.Img.Arr("in"), ctx.Img.Arr("out")
	rowsI := (n - 2) * (n - 2)
	chunk := conv3dChunk
	slice := chunk + 2
	frameWords := 9 * slice
	frames := ctx.HW.FrameCounters
	chunksPerRow := (m - 2) / chunk
	vlen := ctx.VLen()
	groups := ctx.Workers()
	blocks := rowsI / vlen

	cf := conv3dCoefRegs(ctx)
	tmps := ctx.Fp4()
	acc := b.Fp()
	pOut, mtFb, rowReg := b.Int(), b.Int(), b.Int()

	// Each lane recomputes its output pointer per block from its flat row
	// index (the 3-D address map is not affine in the block number).
	strideRows := int32(groups * vlen)
	mtRow, _ := b.Microthread(func() {
		conv3dRowBase(ctx, pOut, rowReg, n, m, out.Addr)
		b.Addi(pOut, pOut, int32(4*((n+1)*m+1)))
		b.Addi(rowReg, rowReg, strideRows)
	})
	mtChunk, mtChunkLen := b.Microthread(func() {
		b.FrameStart(mtFb)
		for o := 0; o < chunk; o++ {
			conv3dStencil(ctx, cf, mtFb, acc, tmps, o, slice)
			b.Fsw(acc, pOut, int32(4*o))
		}
		b.Addi(pOut, pOut, int32(4*chunk))
		b.Remem()
	})

	ctx.VectorKernel(frameWords, frames,
		func() { // lane setup: first flat row
			ctx.MulConst(rowReg, ctx.Gid, vlen)
			b.Add(rowReg, rowReg, ctx.Lane)
		},
		func() {
			rb, pIn, pRow, t, toff, flat := b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
			ctx.StridedLoop(rb, ctx.Gid, int32(blocks), int32(groups), func() {
				b.VIssueAt(mtRow)
				ctx.MulConst(flat, rb, vlen)
				ctx.VecDAE(chunksPerRow, frameWords, frames, mtChunkLen, mtChunk,
					func(iter, off isa.Reg) {
						for l := 0; l < vlen; l++ {
							// Lane l's row base, advanced by iter chunks.
							b.Addi(t, flat, int32(l))
							conv3dRowBase(ctx, pRow, t, n, m, in.Addr)
							ctx.MulConst(t, iter, 4*chunk)
							b.Add(pRow, pRow, t)
							for di := 0; di < 3; di++ {
								for dj := 0; dj < 3; dj++ {
									b.Addi(pIn, pRow, int32(4*(di*n+dj)*m))
									b.Addi(toff, off, int32(4*(di*3+dj)*slice))
									b.VLoadUnaligned(isa.VloadSingle, pIn, toff, l, slice, true)
								}
							}
						}
					})
			})
			b.FreeInt(rb, pIn, pRow, t, toff, flat)
		})
	b.FreeInt(pOut, mtFb, rowReg)
}

func (conv3dBench) GPU(p Params, img *Image) ([]gpu.Kernel, error) {
	n, m := p.N, p.M
	in, out := img.Arr("in"), img.Arr("out")
	// Thread t computes interior point (i, j, k) of flat row t/(m-2); at
	// returns its address in a, displaced by (di, dj, dk).
	at := func(a *Array, t, di, dj, dk int) uint32 {
		r := t / (m - 2)
		i, j, k := r/(n-2)+1, r%(n-2)+1, t%(m-2)+1
		return a.At(((i+di)*n+j+dj)*m + k + dk)
	}
	return []gpu.Kernel{gpu.PerThread("3dconv", (n-2)*(n-2)*(m-2), func(w *gpu.Wave) {
		for di := -1; di <= 1; di++ {
			for dj := -1; dj <= 1; dj++ {
				for dk := -1; dk <= 1; dk++ {
					w.Load(func(t int) uint32 { return at(in, t, di, dj, dk) })
					w.Compute(1)
				}
			}
		}
		w.Store(func(t int) uint32 { return at(out, t, 0, 0, 0) })
	})}, nil
}
