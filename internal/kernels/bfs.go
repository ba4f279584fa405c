package kernels

import (
	"fmt"

	"rockcress/internal/config"
	"rockcress/internal/gpu"
	"rockcress/internal/isa"
)

// bfs: level-synchronous breadth-first search over a fixed-degree random
// graph — the paper's example of an irregular workload that wastes a vector
// machine (§6.6: plain manycore is 2.9x faster than either vector
// configuration). The manycore version branches freely; the vector version
// must execute every vertex's full neighbour scan with predicated stores,
// gather every value word-by-word, and re-form the groups every level
// because the convergence check is divergent control flow.
type bfsBench struct{}

func init() { register(bfsBench{}) }

const bfsDegree = 8

func (bfsBench) Info() Info {
	return Info{
		Name:        "bfs",
		InputDesc:   "random graph, degree 8",
		Description: "Breadth-first graph search",
		Kernels:     1,
	}
}

func (bfsBench) Defaults(s Scale) Params {
	switch s {
	case Tiny:
		return Params{N: 192, Seed: 47}
	case Small:
		return Params{N: 960, Seed: 47}
	default:
		return Params{N: 3840, Seed: 47}
	}
}

// bfsPad rounds the vertex count up so every worker split is exact (64
// cores, and 48 lanes in both V4 and V16 on the default mesh).
func bfsPad(n int) int {
	const q = 192 // lcm(64, 48)
	return (n + q - 1) / q * q
}

func (bfsBench) Prepare(p Params) (*Image, error) {
	n := p.N
	if n < 2 {
		return nil, fmt.Errorf("bfs: need at least 2 vertices")
	}
	np := bfsPad(n)
	r := rng(p.Seed)
	adj := make([]uint32, np*bfsDegree)
	for v := 0; v < np; v++ {
		for d := 0; d < bfsDegree; d++ {
			switch {
			case v >= n:
				adj[v*bfsDegree+d] = uint32(v) // padding: self loops
			case d == 0:
				adj[v*bfsDegree+d] = uint32((v + 1) % n) // ring keeps it connected
			default:
				adj[v*bfsDegree+d] = uint32(r.Intn(n))
			}
		}
	}
	dist := make([]uint32, np)
	for v := range dist {
		dist[v] = 0xffffffff
	}
	dist[0] = 0
	// Reference level-synchronous BFS (the update races are benign: every
	// writer stores the same level+1).
	want := append([]uint32(nil), dist...)
	for level := uint32(0); ; level++ {
		changed := false
		for v := 0; v < n; v++ {
			if want[v] != level {
				continue
			}
			for d := 0; d < bfsDegree; d++ {
				w := adj[v*bfsDegree+d]
				if want[w] == 0xffffffff {
					want[w] = level + 1
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	img := NewImage()
	img.AllocW("adj", adj)
	img.AllocW("dist", dist)
	img.AllocZero("flags", np) // flags[level] = 1 when level produced updates
	img.ExpectW("dist", want)
	return img, nil
}

func (bf bfsBench) Build(ctx *Ctx) error {
	ctx.Begin()
	if ctx.SW.Style == config.StyleVector {
		bf.buildVec(ctx)
	} else {
		bf.buildMIMD(ctx)
	}
	ctx.Finish()
	return nil
}

// buildMIMD: each core scans its vertices with real branches, skipping
// non-frontier vertices and visited neighbours outright.
func (bfsBench) buildMIMD(ctx *Ctx) {
	b := ctx.B
	np := bfsPad(ctx.P.N)
	adj, dist, flags := ctx.Img.Arr("adj"), ctx.Img.Arr("dist"), ctx.Img.Arr("flags")
	workers := ctx.Workers()

	level, none, one := b.Int(), b.Int(), b.Int()
	v, dv, pAdj, u, du, t, pF := b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
	b.Li(level, 0)
	b.Li(none, -1)
	b.Li(one, 1)
	loop := b.NewLabel("bfs_level")
	exit := b.NewLabel("bfs_done")
	b.Label(loop)
	ctx.StridedLoop(v, ctx.WorkerID(), int32(np), int32(workers), func() {
		skip := b.NewLabel("v_skip")
		ctx.AddrInto(t, v, dist.Addr, 1, 0)
		b.Lw(dv, t, 0)
		b.Bne(dv, level, skip)
		ctx.AddrInto(pAdj, v, adj.Addr, bfsDegree, 0)
		for d := 0; d < bfsDegree; d++ {
			visited := b.NewLabel("u_visited")
			b.Lw(u, pAdj, int32(4*d))
			ctx.AddrInto(t, u, dist.Addr, 1, 0)
			b.Lw(du, t, 0)
			b.Bne(du, none, visited)
			b.Addi(du, level, 1)
			b.Sw(du, t, 0)
			ctx.AddrInto(t, level, flags.Addr, 1, 0)
			b.Sw(one, t, 0)
			b.Label(visited)
		}
		b.Label(skip)
	})
	b.Barrier()
	ctx.AddrInto(t, level, flags.Addr, 1, 0)
	b.Lw(pF, t, 0)
	b.Beq(pF, isa.X0, exit)
	b.Addi(level, level, 1)
	b.Jmp(loop)
	b.Label(exit)
	b.FreeInt(level, none, one, v, dv, pAdj, u, du, t, pF)
}

// buildVec: lanes own vertices; every vertex's full neighbour scan executes
// in lockstep, with the two conditional stores predicated on (frontier &&
// unvisited). Each level re-forms the groups because the convergence branch
// must run in MIMD mode.
func (bfsBench) buildVec(ctx *Ctx) {
	b := ctx.B
	np := bfsPad(ctx.P.N)
	adj, dist, flags := ctx.Img.Arr("adj"), ctx.Img.Arr("dist"), ctx.Img.Arr("flags")
	vlen := ctx.VLen()
	groups := ctx.Workers()
	lanesTotal := groups * vlen
	if np%lanesTotal != 0 {
		// bfsPad sized for 48 lanes; a different group layout needs its own pad.
		b.Fail("bfs: %d padded vertices do not divide over %d lanes", np, lanesTotal)
		return
	}
	perLane := np / lanesTotal

	// Shared registers (lanes keep them through vector mode).
	level, none, one := b.Int(), b.Int(), b.Int()
	vReg, lane0 := b.Int(), b.Int()
	dv, pAdj, u, du, t, cond, c2, levNext := b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int(), b.Int()
	pFlag := b.Int()
	b.Li(level, 0)
	b.Li(none, -1)
	b.Li(one, 1)
	ctx.MulConst(lane0, ctx.Gid, vlen)
	b.Add(lane0, lane0, ctx.Lane) // this lane's first vertex

	mtVertex, _ := b.Microthread(func() {
		ctx.AddrInto(t, vReg, dist.Addr, 1, 0)
		b.Lw(dv, t, 0)
		ctx.AddrInto(pAdj, vReg, adj.Addr, bfsDegree, 0)
		b.Addi(levNext, level, 1)
		// cond = (dist[v] == level): 1 when on the frontier.
		b.Sub(cond, dv, level)
		b.Emit(isa.Instr{Op: isa.OpSltu, Rd: cond, Rs1: isa.X0, Rs2: cond}) // cond = (dv != level)
		b.Emit(isa.Instr{Op: isa.OpXori, Rd: cond, Rs1: cond, Imm: 1})      // cond = (dv == level)
		for d := 0; d < bfsDegree; d++ {
			b.Lw(u, pAdj, int32(4*d))
			ctx.AddrInto(t, u, dist.Addr, 1, 0)
			b.Lw(du, t, 0)
			// c2 = frontier && (dist[u] == -1)
			b.Sub(c2, du, none)
			b.Emit(isa.Instr{Op: isa.OpSltu, Rd: c2, Rs1: isa.X0, Rs2: c2})
			b.Emit(isa.Instr{Op: isa.OpXori, Rd: c2, Rs1: c2, Imm: 1})
			b.And(c2, c2, cond)
			b.PredNeq(c2, isa.X0)
			b.Sw(levNext, t, 0)
			b.Sw(one, pFlag, 0)
			b.PredOn()
		}
		b.Addi(vReg, vReg, int32(lanesTotal))
	})

	loop := b.NewLabel("bfs_level")
	exit := b.NewLabel("bfs_done")
	b.Label(loop)
	// Per-level lane state (set in independent mode before forming).
	b.Mv(vReg, lane0)
	ctx.AddrInto(pFlag, level, flags.Addr, 1, 0)
	ctx.VectorKernel(1, 1, nil, func() {
		for c := 0; c < perLane; c++ {
			b.VIssueAt(mtVertex)
		}
	})
	// Back in MIMD mode: the convergence check is divergent control flow.
	ctx.AddrInto(t, level, flags.Addr, 1, 0)
	b.Lw(du, t, 0)
	b.Beq(du, isa.X0, exit)
	b.Addi(level, level, 1)
	b.Jmp(loop)
	b.Label(exit)
	b.FreeInt(level, none, one, vReg, lane0, dv, pAdj, u, du, t, cond, c2, levNext, pFlag)
}

func (bfsBench) GPU(p Params, img *Image) ([]gpu.Kernel, error) {
	// The paper's bfs comparison is manycore-only (§6.6).
	return nil, fmt.Errorf("bfs: no GPU version in the evaluation")
}
