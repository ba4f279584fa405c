package kernels

import (
	"fmt"
	"math"

	"rockcress/internal/config"
	"rockcress/internal/gpu"
	"rockcress/internal/isa"
)

// gramschm: Gram-Schmidt QR decomposition (PolyBench/GPU). The k loop is
// sequential: per column k, (1) one worker computes the norm, (2) rows
// split to normalize Q[:,k], (3) the remaining columns j>k are updated in
// parallel. Every access is a column stride, so no mapping can use wide
// vector loads — vector groups fall back to per-lane word gathers with
// predication masking the ragged j range. This is the benchmark the paper
// reports as the one case software-defined vectors do not improve (§6.3).
type gramBench struct{}

func init() { register(gramBench{}) }

func (gramBench) Info() Info {
	return Info{
		Name:        "gramschm",
		InputDesc:   "M vectors of length N",
		Description: "Gram-Schmidt decomposition",
		Kernels:     3,
	}
}

func (gramBench) Defaults(s Scale) Params {
	switch s {
	case Tiny:
		return Params{N: 32, M: 32, Seed: 43}
	case Small:
		return Params{N: 64, M: 64, Seed: 43}
	default:
		return Params{N: 128, M: 128, Seed: 43}
	}
}

func gramCheck(p Params) error {
	if p.N%8 != 0 {
		return fmt.Errorf("gramschm: N=%d must be a multiple of 8 (row unroll)", p.N)
	}
	if log2(p.M) < 0 {
		return fmt.Errorf("gramschm: M=%d must be a power of two", p.M)
	}
	return nil
}

func (gramBench) Prepare(p Params) (*Image, error) {
	n, m := p.N, p.M
	r := rng(p.Seed)
	a := randF(r, n*m, 0.5, 1.5) // offset keeps norms well conditioned
	wa := append([]float32(nil), a...)
	wq := make([]float32, n*m)
	wr := make([]float32, m*m)
	for k := 0; k < m; k++ {
		var norm float32
		for i := 0; i < n; i++ {
			norm += wa[i*m+k] * wa[i*m+k]
		}
		rkk := float32(math.Sqrt(float64(norm)))
		wr[k*m+k] = rkk
		inv := 1 / rkk
		for i := 0; i < n; i++ {
			wq[i*m+k] = wa[i*m+k] * inv
		}
		for j := k + 1; j < m; j++ {
			var dot float32
			for i := 0; i < n; i++ {
				dot += wq[i*m+k] * wa[i*m+j]
			}
			wr[k*m+j] = dot
			for i := 0; i < n; i++ {
				wa[i*m+j] -= wq[i*m+k] * dot
			}
		}
	}
	img := NewImage()
	img.AllocF("A", a)
	img.AllocZero("Q", n*m)
	img.AllocZero("R", m*m)
	img.ExpectF("A", wa, 2e-2)
	img.ExpectF("Q", wq, 2e-2)
	img.ExpectF("R", wr, 2e-2)
	return img, nil
}

func (g gramBench) Build(ctx *Ctx) error {
	if err := gramCheck(ctx.P); err != nil {
		return err
	}
	if ctx.SW.SIMD {
		// §6.2: gramschm cannot use the SIMD extensions; the harness maps
		// SIMD rows to the closest valid configuration instead.
		return fmt.Errorf("gramschm: no SIMD mapping (paper §6.2)")
	}
	ctx.Begin()
	if ctx.SW.Style == config.StyleVector {
		g.buildVec(ctx)
	} else {
		g.buildMIMD(ctx)
	}
	ctx.Finish()
	return nil
}

// gramPhase12 emits the norm (worker 0 of `workers`) and normalize phases,
// each followed by a barrier. wid must be a worker index in [0, workers).
func gramPhase12(ctx *Ctx, k, wid isa.Reg, workers int) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	A, Q, R := ctx.Img.Arr("A"), ctx.Img.Arr("Q"), ctx.Img.Arr("R")
	// Phase 1: norm of column k by worker 0.
	skip := b.NewLabel("p1_skip")
	b.Bne(wid, isa.X0, skip)
	{
		facc, fa := b.Fp(), b.Fp()
		i, pA, pR, t := b.Int(), b.Int(), b.Int(), b.Int()
		b.FliF(facc, 0)
		ctx.AddrInto(pA, k, A.Addr, 1, 0) // &A[0][k]
		b.ForI(i, 0, int32(n), 1, func() {
			b.Flw(fa, pA, 0)
			b.Fmadd(facc, fa, fa, facc)
			b.Addi(pA, pA, int32(4*m))
		})
		b.Fsqrt(facc, facc)
		// R[k][k]
		ctx.MulConst(t, k, m+1)
		ctx.AddrInto(pR, t, R.Addr, 1, 0)
		b.Fsw(facc, pR, 0)
		b.FreeInt(i, pA, pR, t)
		b.FreeFp(facc, fa)
	}
	b.Label(skip)
	b.Barrier()
	// Phase 2: Q[:,k] = A[:,k] / R[k][k], rows split across workers.
	{
		frkk, finv, fone, fa := b.Fp(), b.Fp(), b.Fp(), b.Fp()
		i, pA, pQ, pR, t, stride := b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
		ctx.MulConst(t, k, m+1)
		ctx.AddrInto(pR, t, R.Addr, 1, 0)
		b.Flw(frkk, pR, 0)
		b.FliF(fone, 1)
		b.Fdiv(finv, fone, frkk)
		// &A[wid][k], &Q[wid][k]; stride = workers rows.
		ctx.MulConst(t, wid, m)
		b.Add(t, t, k)
		ctx.AddrInto(pA, t, A.Addr, 1, 0)
		ctx.AddrInto(pQ, t, Q.Addr, 1, 0)
		b.Li(stride, int32(4*m*workers))
		if ctx.Ckpt {
			// The checkpoint build holds one extra persistent register (the
			// phase-execution counter), which leaves the row-guard
			// temporaries below one short. pR and t are dead here; release
			// them early. Fault-free builds keep the original assignment so
			// their instruction stream (and golden cycles) is unchanged.
			b.FreeInt(pR, t)
		}
		b.ForI(i, 0, int32((n+workers-1)/workers), 1, func() {
			// Guard the ragged tail: row = wid + i*workers < n.
			guard := b.NewLabel("p2_guard")
			rowi := b.Int()
			ctx.MulConst(rowi, i, workers)
			b.Add(rowi, rowi, wid)
			bnd := b.Int()
			b.Li(bnd, int32(n))
			b.Bge(rowi, bnd, guard)
			b.Flw(fa, pA, 0)
			b.Fmul(fa, fa, finv)
			b.Fsw(fa, pQ, 0)
			b.Label(guard)
			b.Add(pA, pA, stride)
			b.Add(pQ, pQ, stride)
			b.FreeInt(rowi, bnd)
		})
		b.FreeInt(i, pA, pQ, stride)
		if !ctx.Ckpt {
			b.FreeInt(pR, t)
		}
		b.FreeFp(frkk, finv, fone, fa)
	}
	b.Barrier()
}

func (gramBench) buildMIMD(ctx *Ctx) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	A, Q, R := ctx.Img.Arr("A"), ctx.Img.Arr("Q"), ctx.Img.Arr("R")
	workers := ctx.Workers()
	k := b.Int()
	b.ForI(k, 0, int32(m), 1, func() {
		gramPhase12(ctx, k, ctx.WorkerID(), workers)
		// Phase 3: columns j = k+1+tid, step workers.
		fdot, fa, fq := b.Fp(), b.Fp(), b.Fp()
		j, jb, pA, pQ, pR, t, bnd, i := b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
		b.Addi(jb, k, 1)
		b.Add(jb, jb, ctx.WorkerID())
		b.Li(bnd, int32(m))
		b.Mv(j, jb)
		done := b.NewLabel("p3_done")
		top := b.NewLabel("p3_top")
		b.Bge(j, bnd, done)
		b.Label(top)
		{
			b.FliF(fdot, 0)
			ctx.AddrInto(pA, j, A.Addr, 1, 0)
			ctx.AddrInto(pQ, k, Q.Addr, 1, 0)
			b.ForI(i, 0, int32(n), 1, func() {
				b.Flw(fa, pA, 0)
				b.Flw(fq, pQ, 0)
				b.Fmadd(fdot, fa, fq, fdot)
				b.Addi(pA, pA, int32(4*m))
				b.Addi(pQ, pQ, int32(4*m))
			})
			ctx.MulConst(t, k, m)
			b.Add(t, t, j)
			ctx.AddrInto(pR, t, R.Addr, 1, 0)
			b.Fsw(fdot, pR, 0)
			ctx.AddrInto(pA, j, A.Addr, 1, 0)
			ctx.AddrInto(pQ, k, Q.Addr, 1, 0)
			b.ForI(i, 0, int32(n), 1, func() {
				b.Flw(fa, pA, 0)
				b.Flw(fq, pQ, 0)
				b.Fmul(fq, fq, fdot)
				b.Fsub(fa, fa, fq)
				b.Fsw(fa, pA, 0)
				b.Addi(pA, pA, int32(4*m))
				b.Addi(pQ, pQ, int32(4*m))
			})
		}
		b.Addi(j, j, int32(workers))
		b.Blt(j, bnd, top)
		b.Label(done)
		b.Barrier()
		b.FreeInt(j, jb, pA, pQ, pR, t, bnd, i)
		b.FreeFp(fdot, fa, fq)
	})
	b.FreeInt(k)
}

// buildVec runs phases 1-2 on the group members as independent cores, then
// forms the group for phase 3: lanes gather their column's words with
// predication masking lanes whose j falls outside (k, M).
func (gramBench) buildVec(ctx *Ctx) {
	b := ctx.B
	n, m := ctx.P.N, ctx.P.M
	A, Q, R := ctx.Img.Arr("A"), ctx.Img.Arr("Q"), ctx.Img.Arr("R")
	vlen := ctx.VLen()
	groups := ctx.Workers()
	members := groups * (vlen + 1)

	// Member index: scalar tiles are member gid; lanes are groups + flat
	// lane position (any stable enumeration works for row splitting).
	member := b.Int()
	ctx.MulConst(member, ctx.Gid, vlen)
	b.Add(member, member, ctx.Lane)
	b.Addi(member, member, int32(groups)) // lanes after scalars
	none := b.Int()
	b.Li(none, -1)
	// Lane == -1 marks this tile as a scalar core: member index = gid.
	skipSc := b.NewLabel("mem_lane")
	b.Bne(ctx.Lane, none, skipSc)
	b.Mv(member, ctx.Gid)
	b.Label(skipSc)
	b.FreeInt(none)

	// Lane-persistent microthread state.
	kReg, jbReg, jReg, valid, pA, pQ, mReg := b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
	gv := b.Int()
	ctx.MulConst(gv, ctx.Gid, vlen)
	racc, fa, fq := b.Fp(), b.Fp(), b.Fp()

	if ctx.Ckpt {
		// kReg advances once per *executed* phase-3, so a checkpoint-restored
		// run that skips completed phases would desynchronize it from k.
		// Every core preloads it from the restored progress word (phase e
		// covers column k = e-1); mtSetK's increment then lands the first
		// executed phase on the right column. pA is not yet live here and
		// serves as the address scratch — the register file is already full.
		// Fault-free builds emit none of this and keep their golden
		// instruction stream.
		b.LiU(pA, ctx.ckptAddr)
		b.Lw(kReg, pA, 0)
		b.Addi(kReg, kReg, -1)
	}
	mtInitK, _ := b.Microthread(func() {
		if !ctx.Ckpt {
			b.Li(kReg, -1)
		}
		b.Li(mReg, int32(m))
	})
	mtSetK, _ := b.Microthread(func() {
		b.Addi(kReg, kReg, 1)
		b.Addi(jbReg, kReg, 1)
		b.Add(jbReg, jbReg, gv)
	})
	mtStripe, _ := b.Microthread(func() {
		b.Add(jReg, jbReg, ctx.Lane)
		b.Slt(valid, jReg, mReg)
		ctx.AddrInto(pA, jReg, A.Addr, 1, 0)
		ctx.AddrInto(pQ, kReg, Q.Addr, 1, 0)
		b.FliF(racc, 0)
		b.Addi(jbReg, jbReg, int32(groups*vlen))
	})
	const unroll = 8
	mtDot, _ := b.Microthread(func() {
		b.PredNeq(valid, isa.X0)
		for u := 0; u < unroll; u++ {
			b.Flw(fa, pA, 0)
			b.Flw(fq, pQ, 0)
			b.Fmadd(racc, fa, fq, racc)
			b.Addi(pA, pA, int32(4*m))
			b.Addi(pQ, pQ, int32(4*m))
		}
		b.PredOn()
	})
	mtRStore, _ := b.Microthread(func() {
		b.PredNeq(valid, isa.X0)
		t := b.Int()
		ctx.MulConst(t, kReg, m)
		b.Add(t, t, jReg)
		ctx.AddrInto(pA, t, R.Addr, 1, 0)
		b.Fsw(racc, pA, 0)
		b.FreeInt(t)
		// Reset the walk pointers for the update sweep.
		ctx.AddrInto(pA, jReg, A.Addr, 1, 0)
		ctx.AddrInto(pQ, kReg, Q.Addr, 1, 0)
		b.PredOn()
	})
	mtUpd, _ := b.Microthread(func() {
		b.PredNeq(valid, isa.X0)
		for u := 0; u < unroll; u++ {
			b.Flw(fa, pA, 0)
			b.Flw(fq, pQ, 0)
			b.Fmul(fq, fq, racc)
			b.Fsub(fa, fa, fq)
			b.Fsw(fa, pA, 0)
			b.Addi(pA, pA, int32(4*m))
			b.Addi(pQ, pQ, int32(4*m))
		}
		b.PredOn()
	})

	k := b.Int()
	first := b.Int()
	b.Li(first, 1)
	b.ForI(k, 0, int32(m), 1, func() {
		gramPhase12(ctx, k, member, members)
		// Phase 3 on vector groups. Frames are unused (gathers only), but
		// the queue must be configured for vector mode bookkeeping.
		ctx.VectorKernel(1, 1,
			nil,
			func() {
				fst := b.NewLabel("not_first")
				b.Beq(first, isa.X0, fst)
				b.VIssueAt(mtInitK)
				b.Li(first, 0)
				b.Label(fst)
				b.VIssueAt(mtSetK)
				jb, bnd := b.Int(), b.Int()
				b.Addi(jb, k, 1)
				ctx.MulConst(bnd, ctx.Gid, vlen)
				b.Add(jb, jb, bnd)
				b.Li(bnd, int32(m))
				done := b.NewLabel("vp3_done")
				top := b.NewLabel("vp3_top")
				b.Bge(jb, bnd, done)
				b.Label(top)
				{
					b.VIssueAt(mtStripe)
					for c := 0; c < n/unroll; c++ {
						b.VIssueAt(mtDot)
					}
					b.VIssueAt(mtRStore)
					for c := 0; c < n/unroll; c++ {
						b.VIssueAt(mtUpd)
					}
				}
				b.Addi(jb, jb, int32(groups*vlen))
				b.Blt(jb, bnd, top)
				b.Label(done)
				b.FreeInt(jb, bnd)
			})
	})
	b.FreeInt(k, first, member, gv)
	b.FreeInt(kReg, jbReg, jReg, valid, pA, pQ, mReg)
	b.FreeFp(racc, fa, fq)
}

func (gramBench) GPU(p Params, img *Image) ([]gpu.Kernel, error) {
	n, m := p.N, p.M
	A, Q := img.Arr("A"), img.Arr("Q")
	// One launch triple per k, matching the HIP port's kernel structure.
	var launches []gpu.Kernel
	for k := 0; k < m; k++ {
		launches = append(launches,
			gpu.Kernel{ // norm: a single wavefront reduces column k
				Name: "gram-norm", Wavefronts: 1,
				Trace: func(int) []gpu.WfOp {
					var ops []gpu.WfOp
					for i := 0; i < n; i += gpu.WavefrontSize {
						addrs := make([]uint32, min(gpu.WavefrontSize, n-i))
						for l := range addrs {
							addrs[l] = A.At((i+l)*m + k)
						}
						ops = append(ops, gpu.WfOp{Kind: gpu.OpLoad, Addrs: addrs}, gpu.Compute(1))
					}
					ops = append(ops, gpu.Compute(8)) // tree reduce + sqrt
					return ops
				},
			},
			gpu.PerThread("gram-q", n, func(w *gpu.Wave) { // normalize column k
				w.Load(func(i int) uint32 { return A.At(i*m + k) })
				w.Compute(1)
				w.Store(func(i int) uint32 { return Q.At(i*m + k) })
			}),
			// update columns j > k: thread t owns column k+1+t
			gpu.PerThread("gram-upd", m-k-1, func(w *gpu.Wave) {
				for i := 0; i < n; i++ {
					w.Load(func(t int) uint32 { return A.At(i*m + k + 1 + t) })
					w.Load(func(int) uint32 { return Q.At(i*m + k) })
					w.Compute(1)
				}
				for i := 0; i < n; i++ {
					elem := func(t int) uint32 { return A.At(i*m + k + 1 + t) }
					w.Load(elem)
					w.Compute(1)
					w.Store(elem)
				}
			}))
	}
	return launches, nil
}
