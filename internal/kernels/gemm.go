package kernels

import (
	"fmt"

	"rockcress/internal/gpu"
)

// gemm: C = alpha*A*B + beta*C (PolyBench/GPU). Following Table 2's memory
// optimization, the manycore versions read B through a transposed copy BT
// so inner loops stream rows; the GPU version reads B directly (its natural
// coalesced layout). Work split: rows of C, interleaved across workers; in
// vector mode each group takes vlen-row blocks and each lane owns one row.
type gemmBench struct{}

func init() { register(gemmBench{}) }

const (
	gemmAlpha = float32(1.5)
	gemmBeta  = float32(1.2)
)

func (gemmBench) Info() Info {
	return Info{
		Name:        "gemm",
		InputDesc:   "NIxNK * NKxNJ matrices",
		Description: "Matrix mul. (C = aAB + bC)",
		AlgOpt:      "Tiled Outer product",
		MemOpt:      "Transpose",
		Kernels:     1,
	}
}

func (gemmBench) Defaults(s Scale) Params {
	switch s {
	case Tiny:
		return Params{N: 32, M: 8, K: 16, Seed: 7}
	case Small:
		return Params{N: 64, M: 16, K: 32, Seed: 7}
	default:
		return Params{N: 128, M: 48, K: 64, Seed: 7}
	}
}

// gemmCheck validates dimension constraints shared by the mappings.
func gemmCheck(p Params, lineWords int) error {
	if p.K%lineWords != 0 && lineWords == 16 {
		return fmt.Errorf("gemm: K=%d must be a multiple of the line words %d", p.K, lineWords)
	}
	if p.N%16 != 0 {
		return fmt.Errorf("gemm: N=%d must be a multiple of 16 (V16 lane blocks)", p.N)
	}
	if log2(p.K) < 0 {
		return fmt.Errorf("gemm: K=%d must be a power of two", p.K)
	}
	return nil
}

func (gemmBench) Prepare(p Params) (*Image, error) {
	ni, nj, nk := p.N, p.M, p.K
	r := rng(p.Seed)
	a := randF(r, ni*nk, 0, 1)
	bmat := randF(r, nk*nj, 0, 1)
	c0 := randF(r, ni*nj, 0, 1)
	bt := make([]float32, nj*nk)
	for k := 0; k < nk; k++ {
		for j := 0; j < nj; j++ {
			bt[j*nk+k] = bmat[k*nj+j]
		}
	}
	want := make([]float32, ni*nj)
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			var acc float32
			for k := 0; k < nk; k++ {
				acc += a[i*nk+k] * bt[j*nk+k]
			}
			want[i*nj+j] = gemmAlpha*acc + gemmBeta*c0[i*nj+j]
		}
	}
	img := NewImage()
	img.AllocF("A", a)
	img.AllocF("BT", bt)
	img.AllocF("B", bmat) // GPU-layout copy (addresses only)
	img.AllocF("C", c0)
	img.ExpectF("C", want, 2e-3)
	return img, nil
}

func (g gemmBench) Build(ctx *Ctx) error {
	if err := gemmCheck(ctx.P, ctx.LineWords()); err != nil {
		return err
	}
	ctx.Begin()
	img := ctx.Img
	buildRowDot(ctx, rowDotSpec{
		NI: ctx.P.N, NJ: ctx.P.M, NK: ctx.P.K,
		A1: img.Arr("A"), B1: img.Arr("BT"), C: img.Arr("C"),
		Alpha: gemmAlpha, Beta: gemmBeta,
	})
	ctx.Finish()
	return nil
}

func (gemmBench) GPU(p Params, img *Image) ([]gpu.Kernel, error) {
	ni, nj, nk := p.N, p.M, p.K
	A, B, C := img.Arr("A"), img.Arr("B"), img.Arr("C")
	return []gpu.Kernel{gpu.PerThread("gemm", ni*nj, func(w *gpu.Wave) {
		for k := 0; k < nk; k++ {
			w.Load(func(t int) uint32 { return A.At((t/nj)*nk + k) })
			w.Load(func(t int) uint32 { return B.At(k*nj + t%nj) })
			w.Compute(1)
		}
		w.Load(C.At)
		w.Compute(2)
		w.Store(C.At)
	})}, nil
}
