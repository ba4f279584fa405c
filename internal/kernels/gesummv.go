package kernels

import (
	"fmt"

	"rockcress/internal/gpu"
)

// gesummv: y = alpha*A*x + beta*B*x (PolyBench/GPU). A single row-streaming
// kernel with two separately weighted dot products per output element: the
// frame carries A, B, and x chunks (one of the five benchmarks the paper
// also retunes for long lines, which here simply deepens each lane's
// streamed chunks).
type gesummvBench struct{}

func init() { register(gesummvBench{}) }

const (
	gesummvAlpha = float32(0.4)
	gesummvBeta  = float32(0.9)
)

func (gesummvBench) Info() Info {
	return Info{
		Name:        "gesummv",
		InputDesc:   "NxN matrices, N vector",
		Description: "Matrix vector (y = aAx + bBx)",
		Kernels:     1,
	}
}

func (gesummvBench) Defaults(s Scale) Params {
	switch s {
	case Tiny:
		return Params{N: 64, Seed: 23}
	case Small:
		return Params{N: 256, Seed: 23}
	default:
		return Params{N: 512, Seed: 23}
	}
}

func (gesummvBench) Prepare(p Params) (*Image, error) {
	n := p.N
	r := rng(p.Seed)
	a := randF(r, n*n, 0, 1)
	bm := randF(r, n*n, 0, 1)
	x := randF(r, n, 0, 1)
	want := make([]float32, n)
	for i := 0; i < n; i++ {
		var s1, s2 float32
		for j := 0; j < n; j++ {
			s1 += a[i*n+j] * x[j]
			s2 += bm[i*n+j] * x[j]
		}
		want[i] = gesummvAlpha*s1 + gesummvBeta*s2
	}
	img := NewImage()
	img.AllocF("A", a)
	img.AllocF("B", bm)
	img.AllocF("x", x)
	img.AllocZero("y", n)
	img.ExpectF("y", want, 2e-3)
	return img, nil
}

func (gesummvBench) Build(ctx *Ctx) error {
	n := ctx.P.N
	if n%16 != 0 || log2(n) < 0 {
		return fmt.Errorf("gesummv: N=%d must be a power-of-two multiple of 16", n)
	}
	img := ctx.Img
	ctx.Begin()
	// y as an NI x 1 result: B1/B2 hold the shared x vector ("row j=0").
	buildRowDot(ctx, rowDotSpec{
		NI: n, NJ: 1, NK: n,
		A1: img.Arr("A"), B1: img.Arr("x"),
		A2: img.Arr("B"), B2: img.Arr("x"),
		C:     img.Arr("y"),
		Alpha: gesummvAlpha, Alpha2: gesummvBeta,
	})
	ctx.Finish()
	return nil
}

func (gesummvBench) GPU(p Params, img *Image) ([]gpu.Kernel, error) {
	n := p.N
	a, bm, x, y := img.Arr("A"), img.Arr("B"), img.Arr("x"), img.Arr("y")
	return []gpu.Kernel{gpu.PerThread("gesummv", n, func(w *gpu.Wave) {
		for j := 0; j < n; j++ {
			w.Load(func(t int) uint32 { return a.At(t*n + j) })
			w.Load(func(t int) uint32 { return bm.At(t*n + j) })
			w.Load(func(int) uint32 { return x.At(j) })
			w.Compute(2)
		}
		w.Compute(1)
		w.Store(y.At)
	})}, nil
}
