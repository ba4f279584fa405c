package kernels

import (
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

// spec states 3dconv as a stencil: the interior (i, j) rows, flattened,
// each reading nine k-slices (three rows from each of three planes). The
// filter has only five distinct values (its 5-value period), so the family
// holds its 27 taps in 5 registers.
func (conv3dBench) spec(p Params, img *Image) stencil {
	n, m := p.N, p.M
	st := stencil{
		in: img.Arr("in"), out: img.Arr("out"),
		rows: (n - 2) * (n - 2), cols: m - 2, chunk: conv3dChunk,
		outOff:   int32(4 * ((n+1)*m + 1)), // output (i, j, 1) from the window's base
		coef:     conv3dCoef[:],
		rowWords: m, side: n,
	}
	for k := range 9 {
		st.sliceOff[k] = int32((k/3*n + k%3) * m) // plane di = k/3, row dj = k%3
	}
	return st
}

func (cv conv3dBench) Build(ctx *Ctx) error {
	return cv.spec(ctx.P, ctx.Img).build(ctx, "3dconv", cv.buildNV, cv.buildVec)
}

// conv3dRowBase converts a flat interior row index (runtime register) into
// the base address of its 3x3 slice window in the array at base: with
// i = flat/(n-2)+1 and j = flat%(n-2)+1, dst = &a[i-1][j-1][0].
func conv3dRowBase(ctx *Ctx, dst, flat isa.Reg, n, m int, base uint32) {
	b := ctx.B
	ii, jj, t := b.Int(), b.Int(), b.Int()
	b.Li(t, int32(n-2))
	b.Div(ii, flat, t) // i-1
	b.Rem(jj, flat, t) // j-1
	ctx.MulConst(t, ii, n)
	b.Add(t, t, jj)
	ctx.MulConst(dst, t, m*4)
	b.Addi(dst, dst, int32(base))
	b.FreeInt(ii, jj, t)
}

// buildNV walks one input pointer a word at a time and loads every tap
// through one register fv, leaving the family's rotating temporaries
// unused.
func (conv3dBench) buildNV(ctx *Ctx, st stencil) {
	b := ctx.B
	ctx.MIMDKernel(func() {
		r := st.regs(ctx)
		fv := b.Fp()
		row, k := b.Int(), b.Int()
		pIn, pOut := b.Int(), b.Int()
		ctx.StridedLoop(row, ctx.WorkerID(), int32(st.rows), int32(ctx.Workers()), func() {
			st.rowAddr(ctx, pIn, row, st.in.Addr, 0)
			st.rowAddr(ctx, pOut, row, st.out.Addr, st.outOff)
			b.ForI(k, 0, int32(st.cols), 1, func() {
				r.chain(b, [4]isa.FReg{fv, fv, fv, fv}, func(f isa.FReg, sl, dk int) {
					b.Flw(f, pIn, 4*(st.sliceOff[sl]+int32(dk)))
				})
				b.Fsw(r.acc, pOut, 0)
				b.Addi(pIn, pIn, 4)
				b.Addi(pOut, pOut, 4)
			})
		})
	})
}

// buildVec: each lane recomputes its output pointer per block from its flat
// row index (the 3-D address map is not affine in the block number), and
// the scalar core its input windows per chunk.
func (conv3dBench) buildVec(ctx *Ctx, st stencil) {
	b := ctx.B
	frameWords, frames := st.frameWords(), ctx.HW.FrameCounters
	vlen := ctx.VLen()
	groups := ctx.Workers()

	r := st.regs(ctx)
	pOut, mtFb, rowReg := b.Int(), b.Int(), b.Int()
	strideRows := int32(groups * vlen)
	mtRow, _ := b.Microthread(func() {
		st.rowAddr(ctx, pOut, rowReg, st.out.Addr, st.outOff)
		b.Addi(rowReg, rowReg, strideRows)
	})
	mtChunk, mtChunkLen := ctx.FrameMicrothread(mtFb, func(fb isa.Reg) { st.consume(ctx, r, fb, pOut) })

	ctx.VectorKernel(frameWords, frames,
		func() { // lane setup: first flat row
			ctx.MulConst(rowReg, ctx.Gid, vlen)
			b.Add(rowReg, rowReg, ctx.Lane)
		},
		func() {
			rb, pIn, pRow, t, toff, flat := b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
			ctx.StridedLoop(rb, ctx.Gid, int32(st.rows/vlen), int32(groups), func() {
				b.VIssueAt(mtRow)
				ctx.MulConst(flat, rb, vlen)
				ctx.VecDAE(st.cols/st.chunk, frameWords, frames, mtChunkLen, mtChunk,
					func(iter, off isa.Reg) {
						for l := 0; l < vlen; l++ {
							// Lane l's row base, advanced by iter chunks.
							b.Addi(t, flat, int32(l))
							st.rowAddr(ctx, pRow, t, st.in.Addr, 0)
							ctx.MulConst(t, iter, 4*st.chunk)
							b.Add(pRow, pRow, t)
							st.fetch(ctx, isa.VloadSingle, l, pIn, pRow, 0, toff, off)
						}
					})
			})
			b.FreeInt(rb, pIn, pRow, t, toff, flat)
		})
	b.FreeInt(pOut, mtFb, rowReg)
}

func (cv conv3dBench) GPU(p Params, img *Image) ([]gpu.Kernel, error) {
	return cv.spec(p, img).gpu("3dconv"), nil
}
