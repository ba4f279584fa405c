package kernels

import (
	"fmt"

	"rockcress/internal/gpu"
)

// mvt: x1 += A*y1 (row-wise) and x2 += A'*y2 (column-wise), PolyBench/GPU.
// The transposed kernel is the paper's showcase for group loads: the MIMD
// mappings sweep a column block per core (the PolyBench/GPU loop order),
// which utilizes one word per fetched line and thrashes the LLC; vector
// groups assign adjacent columns to adjacent lanes so a single group load
// serves the whole group from one line (§6.6: "grouped loads are able to
// extract spatial locality across cores").
type mvtBench struct{}

func init() { register(mvtBench{}) }

func (mvtBench) Info() Info {
	return Info{
		Name:        "mvt",
		InputDesc:   "NxN matrix, N vectors",
		Description: "Mat-vec (Ax1), transpose (A'x2)",
		Kernels:     1,
	}
}

func (mvtBench) Defaults(s Scale) Params {
	switch s {
	case Tiny:
		return Params{N: 64, Seed: 11}
	case Small:
		return Params{N: 256, Seed: 11}
	default:
		return Params{N: 768, Seed: 11}
	}
}

func (mvtBench) Prepare(p Params) (*Image, error) {
	n := p.N
	r := rng(p.Seed)
	a := randF(r, n*n, 0, 1)
	x1 := randF(r, n, 0, 1)
	x2 := randF(r, n, 0, 1)
	y1 := randF(r, n, 0, 1)
	y2 := randF(r, n, 0, 1)
	w1 := make([]float32, n)
	w2 := make([]float32, n)
	for i := 0; i < n; i++ {
		var acc float32
		for j := 0; j < n; j++ {
			acc += a[i*n+j] * y1[j]
		}
		w1[i] = x1[i] + acc
	}
	for j := 0; j < n; j++ {
		var acc float32
		for i := 0; i < n; i++ {
			acc += a[i*n+j] * y2[i]
		}
		w2[j] = x2[j] + acc
	}
	img := NewImage()
	img.AllocF("A", a)
	img.AllocF("x1", x1)
	img.AllocF("x2", x2)
	img.AllocF("y1", y1)
	img.AllocF("y2", y2)
	img.ExpectF("x1", w1, 2e-3)
	img.ExpectF("x2", w2, 2e-3)
	return img, nil
}

func (m mvtBench) Build(ctx *Ctx) error {
	n := ctx.P.N
	img := ctx.Img
	row := mvSpec{Rows: n, Cols: n, A: img.Arr("A"), X: img.Arr("y1"), Out: img.Arr("x1"), Accumulate: true}
	col := mvSpec{Rows: n, Cols: n, A: img.Arr("A"), X: img.Arr("y2"), Out: img.Arr("x2"), Accumulate: true}
	if err := row.check("mvt"); err != nil {
		return err
	}
	if n%ctx.HW.Cores != 0 {
		return fmt.Errorf("mvt: N=%d must be a multiple of %d cores", n, ctx.HW.Cores)
	}
	ctx.Begin()
	buildMVRow(ctx, row)
	buildMVCol(ctx, col)
	ctx.Finish()
	return nil
}

func (mvtBench) GPU(p Params, img *Image) ([]gpu.Kernel, error) {
	n := p.N
	A := img.Arr("A")
	k1 := mvGPU("mvt-x1", n, n,
		func(i, j int) uint32 { return A.At(i*n + j) }, // strided across threads i
		img.Arr("y1"), img.Arr("x1"), true)
	k2 := mvGPU("mvt-x2", n, n,
		func(i, j int) uint32 { return A.At(j*n + i) }, // coalesced across i
		img.Arr("y2"), img.Arr("x2"), true)
	return []gpu.Kernel{k1, k2}, nil
}

// mvGPU builds a one-thread-per-output matrix-vector launch. aAt(i, j)
// returns thread i's matrix address at inner step j.
func mvGPU(name string, outs, inner int, aAt func(i, j int) uint32, x, out *Array, readOut bool) gpu.Kernel {
	return gpu.PerThread(name, outs, func(w *gpu.Wave) {
		for j := 0; j < inner; j++ {
			w.Load(func(t int) uint32 { return aAt(t, j) })
			w.Load(func(int) uint32 { return x.At(j) })
			w.Compute(1)
		}
		if readOut {
			w.Load(out.At)
			w.Compute(1)
		}
		w.Store(out.At)
	})
}
