package kernels

import (
	"fmt"

	"rockcress/internal/config"
	"rockcress/internal/gpu"
	"rockcress/internal/isa"
)

// 2dconv: a 3x3 filter over an NR x NC image (PolyBench/GPU). Interior rows
// are partitioned across workers; the inner sweep is chunked so the three
// needed input rows stream through frames. The chunks start one column
// before a chunk boundary, so the wide loads exercise the unaligned
// suffix/prefix pair of §2.3.2. With long cache lines the chunk grows to a
// quarter line (one of the five benchmarks the paper modified for long
// lines, §6.6).
type conv2dBench struct{}

func init() { register(conv2dBench{}) }

// conv2dCoef are the PolyBench/GPU filter coefficients c11..c33.
var conv2dCoef = [9]float32{0.2, -0.3, 0.4, 0.5, 0.6, 0.7, -0.8, -0.9, 0.10}

func (conv2dBench) Info() Info {
	return Info{
		Name:        "2dconv",
		InputDesc:   "NRxNC image",
		Description: "3x3 filter applied to an image",
		Kernels:     1,
	}
}

// conv2dChunk picks the per-microthread output count: 14 outputs from a
// 16-word slice normally; with long lines the slice grows toward a quarter
// line (62 outputs), falling back to the largest divisor of the interior
// width so rows split evenly.
func conv2dChunk(interior int, longLines bool) int {
	if !longLines {
		return 14
	}
	for c := 62; c > 14; c-- {
		if interior%c == 0 {
			return c
		}
	}
	return 14
}

func (conv2dBench) Defaults(s Scale) Params {
	// Interior columns NC-2 must divide by both chunk sizes (14 and 62):
	// chunks are per-row counts, so pick NC-2 = multiple of 14 (and accept
	// a partial final chunk guard for long lines via exact divisibility
	// checks in the builder; defaults use 14*k columns and 62 divides only
	// the Full size).
	switch s {
	case Tiny:
		return Params{N: 18, M: 58, Seed: 3} // 16 interior rows, 56 cols
	case Small:
		return Params{N: 66, M: 114, Seed: 3} // 64 interior rows, 112 cols
	default:
		return Params{N: 130, M: 226, Seed: 3} // 128 interior rows, 224 cols
	}
}

func conv2dCheck(p Params, chunk int) error {
	if (p.M-2)%chunk != 0 {
		return fmt.Errorf("2dconv: interior columns %d must divide by chunk %d", p.M-2, chunk)
	}
	if (p.N-2)%16 != 0 {
		return fmt.Errorf("2dconv: interior rows %d must be a multiple of 16 (V16 blocks)", p.N-2)
	}
	return nil
}

func (conv2dBench) Prepare(p Params) (*Image, error) {
	nr, nc := p.N, p.M
	r := rng(p.Seed)
	in := randF(r, nr*nc, 0, 1)
	want := make([]float32, nr*nc)
	c := conv2dCoef
	for i := 1; i < nr-1; i++ {
		for j := 1; j < nc-1; j++ {
			want[i*nc+j] = c[0]*in[(i-1)*nc+j-1] + c[1]*in[(i-1)*nc+j] + c[2]*in[(i-1)*nc+j+1] +
				c[3]*in[i*nc+j-1] + c[4]*in[i*nc+j] + c[5]*in[i*nc+j+1] +
				c[6]*in[(i+1)*nc+j-1] + c[7]*in[(i+1)*nc+j] + c[8]*in[(i+1)*nc+j+1]
		}
	}
	img := NewImage()
	img.AllocF("in", in)
	img.AllocZero("out", nr*nc)
	img.ExpectF("out", want, 2e-3)
	return img, nil
}

func (cv conv2dBench) Build(ctx *Ctx) error {
	chunk := conv2dChunk(ctx.P.M-2, ctx.SW.LongLines && ctx.SW.Style == config.StyleVector)
	if err := conv2dCheck(ctx.P, chunk); err != nil {
		return err
	}
	ctx.Begin()
	switch ctx.SW.Style {
	case config.StyleNV:
		cv.buildNV(ctx)
	case config.StyleNVPF:
		cv.buildPF(ctx, chunk)
	case config.StyleVector:
		cv.buildVec(ctx, chunk)
	default:
		return fmt.Errorf("2dconv: unsupported style %s", ctx.SW.Style)
	}
	ctx.Finish()
	return nil
}

// loadCoef materializes the nine filter coefficients in FP registers.
func conv2dCoefRegs(ctx *Ctx) [9]isa.FReg {
	var cf [9]isa.FReg
	for k := range cf {
		cf[k] = ctx.B.Fp()
		ctx.B.FliF(cf[k], conv2dCoef[k])
	}
	return cf
}

// conv2dStencil emits the nine-tap accumulation for one output from three
// row pointers (spad or global flavour selected by load).
func conv2dStencil(ctx *Ctx, cf [9]isa.FReg, load func(fd isa.FReg, row int, off int32), acc isa.FReg, tmps [4]isa.FReg) {
	b := ctx.B
	first := true
	for row := 0; row < 3; row++ {
		for dx := 0; dx < 3; dx++ {
			f := tmps[(row*3+dx)%4]
			load(f, row, int32(4*dx))
			if first {
				b.Fmul(acc, f, cf[0])
				first = false
			} else {
				b.Fmadd(acc, f, cf[row*3+dx], acc)
			}
		}
	}
}

func (conv2dBench) buildNV(ctx *Ctx) {
	b := ctx.B
	nr, nc := ctx.P.N, ctx.P.M
	in, out := ctx.Img.Arr("in"), ctx.Img.Arr("out")
	ctx.MIMDKernel(func() {
		cf := conv2dCoefRegs(ctx)
		tmps := ctx.Fp4()
		acc := b.Fp()
		i, j := b.Int(), b.Int()
		p0, p1, p2, pOut := b.Int(), b.Int(), b.Int(), b.Int()
		ctx.StridedLoop(i, ctx.WorkerID(), int32(nr-2), int32(ctx.Workers()), func() {
			// Worker handles interior row i+1; pointers at column 0.
			ctx.AddrInto(p0, i, in.Addr, nc, 0)
			b.Addi(p1, p0, int32(4*nc))
			b.Addi(p2, p1, int32(4*nc))
			ctx.AddrInto(pOut, i, out.Addr, nc, int32(4*(nc+1)))
			b.ForI(j, 0, int32(nc-2), 1, func() {
				conv2dStencil(ctx, cf, func(fd isa.FReg, row int, off int32) {
					switch row {
					case 0:
						b.Flw(fd, p0, off)
					case 1:
						b.Flw(fd, p1, off)
					default:
						b.Flw(fd, p2, off)
					}
				}, acc, tmps)
				b.Fsw(acc, pOut, 0)
				b.Addi(p0, p0, 4)
				b.Addi(p1, p1, 4)
				b.Addi(p2, p2, 4)
				b.Addi(pOut, pOut, 4)
			})
		})
	})
}

// conv2dConsume processes one frame (three chunk+2 row slices) into chunk
// outputs written through pOut (persistent pointer advanced chunk words).
func conv2dConsume(ctx *Ctx, cf [9]isa.FReg, tmps [4]isa.FReg, acc isa.FReg,
	fb, pOut isa.Reg, chunk, sliceWords int) {
	b := ctx.B
	for o := 0; o < chunk; o++ {
		conv2dStencil(ctx, cf, func(fd isa.FReg, row int, off int32) {
			b.FlwSp(fd, fb, int32(4*(row*sliceWords+o))+off)
		}, acc, tmps)
		b.Fsw(acc, pOut, int32(4*o))
	}
	b.Addi(pOut, pOut, int32(4*chunk))
}

func (cv conv2dBench) buildPF(ctx *Ctx, chunk int) {
	b := ctx.B
	nr, nc := ctx.P.N, ctx.P.M
	in, out := ctx.Img.Arr("in"), ctx.Img.Arr("out")
	slice := chunk + 2
	frameWords := 3 * slice
	frames := ctx.HW.FrameCounters
	chunksPerRow := (nc - 2) / chunk
	ctx.SetupFrames(frameWords, frames)
	ctx.MIMDKernel(func() {
		cf := conv2dCoefRegs(ctx)
		tmps := ctx.Fp4()
		acc := b.Fp()
		i := b.Int()
		p0, pOut, t, toff := b.Int(), b.Int(), b.Int(), b.Int()
		ctx.StridedLoop(i, ctx.WorkerID(), int32(nr-2), int32(ctx.Workers()), func() {
			ctx.AddrInto(p0, i, in.Addr, nc, 0)
			ctx.AddrInto(pOut, i, out.Addr, nc, int32(4*(nc+1)))
			ctx.SelfDAE(chunksPerRow, frameWords, frames,
				func(_, off isa.Reg) {
					for row := 0; row < 3; row++ {
						b.Addi(t, p0, int32(4*row*nc))
						b.Addi(toff, off, int32(4*row*slice))
						b.VLoadUnaligned(isa.VloadSelf, t, toff, 0, slice, true)
					}
					b.Addi(p0, p0, int32(4*chunk))
				},
				func(fb isa.Reg) {
					conv2dConsume(ctx, cf, tmps, acc, fb, pOut, chunk, slice)
				})
		})
	})
}

func (cv conv2dBench) buildVec(ctx *Ctx, chunk int) {
	b := ctx.B
	nr, nc := ctx.P.N, ctx.P.M
	in, out := ctx.Img.Arr("in"), ctx.Img.Arr("out")
	slice := chunk + 2
	frameWords := 3 * slice
	frames := ctx.HW.FrameCounters
	chunksPerRow := (nc - 2) / chunk
	vlen := ctx.VLen()
	groups := ctx.Workers()

	cf := conv2dCoefRegs(ctx)
	tmps := ctx.Fp4()
	acc := b.Fp()
	pOut, mtFb := b.Int(), b.Int()

	// mtChunk consumes one frame into chunk outputs; mtRow jumps the output
	// pointer from the end of the lane's row to the start of its next one
	// (lanes own adjacent interior rows of a vlen-row block).
	mtChunk, mtChunkLen := b.Microthread(func() {
		b.FrameStart(mtFb)
		conv2dConsume(ctx, cf, tmps, acc, mtFb, pOut, chunk, slice)
		b.Remem()
	})
	rowAdv := int32(4 * (groups*vlen*nc - (nc - 2)))
	mtRow, _ := b.Microthread(func() {
		b.Addi(pOut, pOut, rowAdv)
	})

	ctx.VectorKernel(frameWords, frames,
		func() { // lane setup: output pointer at first owned interior row
			ctx.LanePtr(pOut, 0, out.Addr, nc, int32(4*(nc+1)))
		},
		func() {
			rb, p0, pRow, t, toff := b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
			blocks := (nr - 2) / vlen // conv2dCheck guarantees divisibility
			ctx.StridedLoop(rb, ctx.Gid, int32(blocks), int32(groups), func() {
				ctx.AddrInto(p0, rb, in.Addr, vlen*nc, 0)
				b.Mv(pRow, p0)
				ctx.VecDAE(chunksPerRow, frameWords, frames, mtChunkLen, mtChunk,
					func(_, off isa.Reg) {
						for l := 0; l < vlen; l++ {
							for row := 0; row < 3; row++ {
								b.Addi(t, pRow, int32(4*(l+row)*nc))
								b.Addi(toff, off, int32(4*row*slice))
								b.VLoadUnaligned(isa.VloadSingle, t, toff, l, slice, true)
							}
						}
						b.Addi(pRow, pRow, int32(4*chunk))
					})
				b.VIssueAt(mtRow)
			})
			b.FreeInt(rb, p0, pRow, t, toff)
		})
}

func (conv2dBench) GPU(p Params, img *Image) ([]gpu.Kernel, error) {
	nr, nc := p.N, p.M
	in, out := img.Arr("in"), img.Arr("out")
	// Thread t computes interior point (t/(nc-2)+1, t%(nc-2)+1); at returns
	// its address in a, displaced by (di, dj).
	at := func(a *Array, t, di, dj int) uint32 {
		return a.At((t/(nc-2)+1+di)*nc + t%(nc-2) + 1 + dj)
	}
	return []gpu.Kernel{gpu.PerThread("2dconv", (nr-2)*(nc-2), func(w *gpu.Wave) {
		for row := -1; row <= 1; row++ {
			for dx := -1; dx <= 1; dx++ {
				w.Load(func(t int) uint32 { return at(in, t, row, dx) })
				w.Compute(1)
			}
		}
		w.Store(func(t int) uint32 { return at(out, t, 0, 0) })
	})}, nil
}
