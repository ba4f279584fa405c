package kernels

import (
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
// line, up to 62 outputs, taking the largest count that divides the interior
// width so rows split evenly (56 at all three default sizes).
func conv2dChunk(interior int, longLines bool) int {
	for c := 62; longLines && c > 14; c-- {
		if interior%c == 0 {
			return c
		}
	}
	return 14
}

func (conv2dBench) Defaults(s Scale) Params {
	// Interior columns NC-2 are a multiple of 56, so both chunk sizes (14,
	// and 56 with long lines) divide every row; interior rows NR-2 are a
	// multiple of 16 so V16 blocks tile them.
	switch s {
	case Tiny:
		return Params{N: 18, M: 58, Seed: 3} // 16 interior rows, 56 cols
	case Small:
		return Params{N: 66, M: 114, Seed: 3} // 64 interior rows, 112 cols
	default:
		return Params{N: 130, M: 226, Seed: 3} // 128 interior rows, 224 cols
	}
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

// spec states 2dconv as a stencil: the interior rows, each reading the three
// input rows around it from row r of in.
func (conv2dBench) spec(p Params, img *Image, chunk int) stencil {
	nc := p.M
	return stencil{
		in: img.Arr("in"), out: img.Arr("out"),
		rows: p.N - 2, cols: nc - 2, chunk: chunk,
		sliceOff: [9]int32{0, int32(nc), int32(2 * nc)},
		outOff:   int32(4 * (nc + 1)),
		coef:     conv2dCoef[:],
		rowWords: nc,
	}
}

func (cv conv2dBench) Build(ctx *Ctx) error {
	chunk := conv2dChunk(ctx.P.M-2, ctx.SW.LongLines && ctx.Vector())
	return cv.spec(ctx.P, ctx.Img, chunk).build(ctx, "2dconv", cv.buildNV, cv.buildVec)
}

// buildNV walks three row pointers, one per input row, a word at a time.
func (conv2dBench) buildNV(ctx *Ctx, st stencil) {
	b := ctx.B
	ctx.MIMDKernel(func() {
		r := st.regs(ctx)
		i, j := b.Int(), b.Int()
		p := [3]isa.Reg{b.Int(), b.Int(), b.Int()}
		pOut := b.Int()
		ctx.StridedLoop(i, ctx.WorkerID(), int32(st.rows), int32(ctx.Workers()), func() {
			// Worker handles interior row i+1; pointers at column 0.
			st.rowAddr(ctx, p[0], i, st.in.Addr, 0)
			b.Addi(p[1], p[0], int32(4*st.rowWords))
			b.Addi(p[2], p[1], int32(4*st.rowWords))
			st.rowAddr(ctx, pOut, i, st.out.Addr, st.outOff)
			b.ForI(j, 0, int32(st.cols), 1, func() {
				r.chain(b, r.tmps, func(f isa.FReg, row, dx int) { b.Flw(f, p[row], int32(4*dx)) })
				b.Fsw(r.acc, pOut, 0)
				for _, q := range p {
					b.Addi(q, q, 4)
				}
				b.Addi(pOut, pOut, 4)
			})
		})
	})
}

// buildVec: lanes own adjacent interior rows of a vlen-row block; the
// output pointer advances by a constant from the end of one owned row to
// the start of the next.
func (conv2dBench) buildVec(ctx *Ctx, st stencil) {
	b := ctx.B
	nc := st.rowWords
	frameWords, frames := st.frameWords(), ctx.HW.FrameCounters
	vlen := ctx.VLen()
	groups := ctx.Workers()

	r := st.regs(ctx)
	pOut, mtFb := b.Int(), b.Int()
	mtChunk, mtChunkLen := ctx.FrameMicrothread(mtFb, func(fb isa.Reg) { st.consume(ctx, r, fb, pOut) })
	rowAdv := int32(4 * (groups*vlen*nc - st.cols))
	mtRow, _ := b.Microthread(func() { b.Addi(pOut, pOut, rowAdv) })

	ctx.VectorKernel(frameWords, frames,
		func() { ctx.LanePtr(pOut, 0, st.out.Addr, nc, st.outOff) }, // first owned row's output
		func() {
			rb, p0, pRow, t, toff := b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
			ctx.StridedLoop(rb, ctx.Gid, int32(st.rows/vlen), int32(groups), func() {
				ctx.AddrInto(p0, rb, st.in.Addr, vlen*nc, 0)
				b.Mv(pRow, p0)
				ctx.VecDAE(st.cols/st.chunk, frameWords, frames, mtChunkLen, mtChunk,
					func(_, off isa.Reg) {
						for l := 0; l < vlen; l++ {
							st.fetch(ctx, isa.VloadSingle, l, t, pRow, l*nc, toff, off)
						}
						b.Addi(pRow, pRow, int32(4*st.chunk))
					})
				b.VIssueAt(mtRow)
			})
			b.FreeInt(rb, p0, pRow, t, toff)
		})
}

func (cv conv2dBench) GPU(p Params, img *Image) ([]gpu.Kernel, error) {
	return cv.spec(p, img, conv2dChunk(p.M-2, false)).gpu("2dconv"), nil
}
