package gpu

import (
	"testing"

	"rockcress/internal/config"
)

func mkKernel(wavefronts int, ops func(wf int) []WfOp) Kernel {
	return Kernel{Name: "t", Wavefronts: wavefronts, Trace: ops}
}

func seqAddrs(base uint32, lanes int) []uint32 {
	out := make([]uint32, lanes)
	for i := range out {
		out[i] = base + uint32(4*i)
	}
	return out
}

func TestComputeThroughput(t *testing.T) {
	cfg := config.GPUDefault()
	sim := NewSim(cfg)
	// One wavefront, 10 compute ops: each occupies a vALU for VALULat
	// cycles and the wavefront serializes on itself.
	st, err := sim.Run(mkKernel(1, func(int) []WfOp {
		ops := make([]WfOp, 10)
		for i := range ops {
			ops[i] = Compute(1)
		}
		return ops
	}), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles < 10*int64(cfg.VALULat) {
		t.Fatalf("cycles %d below serial bound %d", st.Cycles, 10*cfg.VALULat)
	}
	if st.ComputeOps != 10 {
		t.Fatalf("compute ops %d", st.ComputeOps)
	}
}

func TestCoalescing(t *testing.T) {
	sim := NewSim(config.GPUDefault())
	// 64 consecutive word addresses coalesce into 4 lines.
	st, err := sim.Run(mkKernel(1, func(int) []WfOp {
		return []WfOp{{Kind: OpLoad, Addrs: seqAddrs(0, 64)}}
	}), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if st.Lines != 4 {
		t.Fatalf("coalesced lines %d, want 4", st.Lines)
	}
	// Strided addresses (one word per line) do not coalesce.
	sim2 := NewSim(config.GPUDefault())
	st2, err := sim2.Run(mkKernel(1, func(int) []WfOp {
		a := make([]uint32, 64)
		for i := range a {
			a[i] = uint32(i * 256)
		}
		return []WfOp{{Kind: OpLoad, Addrs: a}}
	}), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Lines != 64 {
		t.Fatalf("strided lines %d, want 64", st2.Lines)
	}
	if st2.Cycles <= st.Cycles {
		t.Fatal("uncoalesced access not slower")
	}
}

func TestCacheHierarchy(t *testing.T) {
	sim := NewSim(config.GPUDefault())
	// Two wavefronts loading the same line back to back: the second hits.
	st, err := sim.Run(mkKernel(2, func(int) []WfOp {
		return []WfOp{{Kind: OpLoad, Addrs: seqAddrs(0, 16)}}
	}), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if st.DramLines != 1 {
		t.Fatalf("dram lines %d, want 1 (second access should hit)", st.DramLines)
	}
	if st.TCPHits != 1 {
		t.Fatalf("tcp hits %d, want 1", st.TCPHits)
	}
}

func TestLatencyHiding(t *testing.T) {
	// More resident wavefronts overlap memory latency: total cycles for N
	// independent memory-bound wavefronts grow sublinearly up to the
	// residency limit.
	cfg := config.GPUDefault()
	run := func(wfs int) int64 {
		sim := NewSim(cfg)
		st, err := sim.Run(mkKernel(wfs, func(wf int) []WfOp {
			return []WfOp{
				{Kind: OpLoad, Addrs: seqAddrs(uint32(wf)*4096, 64)},
				Compute(1),
			}
		}), 1e6)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	one := run(1)
	four := run(4)
	if four >= 4*one {
		t.Fatalf("no latency hiding: 1 wf=%d, 4 wfs=%d", one, four)
	}
}

func TestBudgetEnforced(t *testing.T) {
	sim := NewSim(config.GPUDefault())
	_, err := sim.Run(mkKernel(1, func(int) []WfOp {
		ops := make([]WfOp, 1000)
		for i := range ops {
			ops[i] = Compute(100)
		}
		return ops
	}), 100)
	if err == nil {
		t.Fatal("budget overrun not reported")
	}
}

// TestPerThread: threads pack into wavefronts in order, the last one keeps
// only its live lanes, and an address function sees the loop variable's
// value at the time of the call.
func TestPerThread(t *testing.T) {
	k := PerThread("t", WavefrontSize+6, func(w *Wave) {
		for j := 0; j < 2; j++ {
			w.Load(func(t int) uint32 { return uint32(1000*j + t) })
		}
		w.Compute(3)
		w.Store(func(t int) uint32 { return uint32(t) })
	})
	if k.Wavefronts != 2 {
		t.Fatalf("wavefronts %d, want 2", k.Wavefronts)
	}
	ops := k.Trace(1)
	if len(ops) != 4 || ops[0].Kind != OpLoad || ops[2].Kind != OpCompute || ops[2].Flops != 3 || ops[3].Kind != OpStore {
		t.Fatalf("trace %+v", ops)
	}
	if a := ops[1].Addrs; len(a) != 6 || a[0] != 1000+WavefrontSize || a[5] != 1000+WavefrontSize+5 {
		t.Fatalf("second load addresses %v", a)
	}
	if a := ops[3].Addrs; len(a) != 6 || a[0] != WavefrontSize {
		t.Fatalf("store addresses %v", a)
	}
}
