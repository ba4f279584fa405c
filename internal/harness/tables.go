package harness

import (
	"fmt"
	"io"

	"rockcress/internal/config"
	"rockcress/internal/kernels"
)

// Tables lists the paper's tables in -all order: rockbench's -table help,
// its dispatch and -all read it. Only Table 2 depends on the scale.
var Tables = []struct {
	Name  string
	Print func(io.Writer, kernels.Scale)
}{
	{"1a", func(w io.Writer, _ kernels.Scale) { Table1a(w) }},
	{"1b", func(w io.Writer, _ kernels.Scale) { Table1b(w) }},
	{"2", Table2},
	{"3", func(w io.Writer, _ kernels.Scale) { Table3(w) }},
}

// Table1a prints the manycore microarchitectural parameters (Table 1a).
func Table1a(w io.Writer) {
	c := config.ManycoreDefault()
	t := &table{header: []string{"Component", "Setting"}}
	t.add("Cores", fmt.Sprint(c.Cores))
	t.add("ALU Latency", fmt.Sprint(c.ALULat))
	t.add("Multiply Latency", fmt.Sprint(c.MulLat))
	t.add("Divide Latency", fmt.Sprint(c.DivLat))
	t.add("FP ALU Latency", fmt.Sprint(c.FpALULat))
	t.add("FP MUL Latency", fmt.Sprint(c.FpMulLat))
	t.add("SIMD Width", fmt.Sprintf("%d words", c.SIMDWidth))
	t.add("SIMD ALU Latency", fmt.Sprint(c.SIMDLat))
	t.add("Load Queue Entries", fmt.Sprint(c.LoadQueueEntries))
	t.add("inet Queue Entries", fmt.Sprint(c.InetQueueEntries))
	t.add("Frame Counters", fmt.Sprint(c.FrameCounters))
	t.add("Cache line Size", fmt.Sprintf("%d bytes", c.CacheLineBytes))
	t.add("I-Cache Capacity", fmt.Sprintf("%dkB", c.ICacheBytes/1024))
	t.add("I-Cache Hit Latency", fmt.Sprintf("%d Cycle", c.ICacheHitLat))
	t.add("I-Cache Ways", fmt.Sprint(c.ICacheWays))
	t.add("Spm Capacity", fmt.Sprintf("%dkB", c.SpadBytes/1024))
	t.add("Spm Hit Latency", fmt.Sprintf("%d Cycles", c.SpadHitLat))
	t.add("Router Hop Latency", fmt.Sprint(c.RouterHopLat))
	t.add("On-Chip Net Width", fmt.Sprintf("%d words", c.NetWidthWords))
	t.add("LLC Capacity", fmt.Sprintf("%dkB", c.LLCBytes/1024))
	t.add("LLC Banks", fmt.Sprint(c.LLCBanks))
	t.add("LLC Hit Latency", fmt.Sprintf("%d Cycle", c.LLCHitLat))
	t.add("LLC Ways", fmt.Sprint(c.LLCWays))
	t.add("DRAM Latency", fmt.Sprintf("%d cycles (60ns @ 1GHz)", c.DRAMLatency))
	t.add("DRAM Bandwidth", fmt.Sprintf("%d B/cycle (16GB/s @ 1GHz)", c.DRAMBandwidth))
	fmt.Fprintln(w, "Table 1a: manycore microarchitectural parameters")
	t.write(w)
}

// Table1b prints the GPU model parameters (Table 1b).
func Table1b(w io.Writer) {
	c := config.GPUDefault()
	t := &table{header: []string{"Component", "Setting"}}
	t.add("Compute Units (CUs)", fmt.Sprint(c.CUs))
	t.add("Lanes per vALU", fmt.Sprint(c.LanesPerVALU))
	t.add("vALUs per CU", fmt.Sprint(c.VALUsPerCU))
	t.add("vALU Latency", fmt.Sprint(c.VALULat))
	t.add("Wavefront Size", fmt.Sprint(c.WavefrontSize))
	t.add("Wavefronts per CU", fmt.Sprint(c.WavefrontsPerCU))
	t.add("Cacheline Size", fmt.Sprintf("%d bytes", c.CacheLineBytes))
	t.add("TCP Capacity", fmt.Sprintf("%dkB", c.TCPBytes/1024))
	t.add("TCP Hit Latency", fmt.Sprintf("%d Cycle", c.TCPHitLat))
	t.add("TCC Capacity", fmt.Sprintf("%dkB", c.TCCBytes/1024))
	t.add("TCC Hit Latency", fmt.Sprintf("%d Cycles", c.TCCHitLat))
	t.add("LLC Capacity", fmt.Sprintf("%dMB", c.LLCBytes/1024/1024))
	t.add("LLC Hit Latency", fmt.Sprintf("%d Cycles", c.LLCHitLat))
	t.add("DRAM Latency", fmt.Sprint(c.DRAMLatency))
	t.add("DRAM Bandwidth", fmt.Sprintf("%d B/cycle", c.DRAMBandwidth))
	fmt.Fprintln(w, "Table 1b: GPU (APU) model parameters")
	t.write(w)
}

// Table2 prints the benchmark suite (Table 2) with this reproduction's
// input sizes at the given scale.
func Table2(w io.Writer, scale kernels.Scale) {
	t := &table{header: []string{"Name", "Input (" + scale.String() + ")", "Description", "Algorithm opt.", "Mem opt.", "Kernels"}}
	for _, b := range kernels.All() {
		info := b.Info()
		p := b.Defaults(scale)
		dims := fmt.Sprintf("N=%d", p.N)
		if p.M != 0 {
			dims += fmt.Sprintf(" M=%d", p.M)
		}
		if p.K != 0 {
			dims += fmt.Sprintf(" K=%d", p.K)
		}
		if p.TMax != 0 {
			dims += fmt.Sprintf(" T=%d", p.TMax)
		}
		t.add(info.Name, dims, info.Description, info.AlgOpt, info.MemOpt, fmt.Sprint(info.Kernels))
	}
	fmt.Fprintln(w, "Table 2: benchmarks (PolyBench/GPU suite + bfs)")
	t.write(w)
}

// Table3 prints the configuration naming convention (Table 3).
func Table3(w io.Writer) {
	t := &table{header: []string{"Config", "Group Size", "SIMD Words", "Wide Access", "DAE", "Long Lines"}}
	x := func(b bool) string {
		if b {
			return "x"
		}
		return ""
	}
	for _, p := range config.Presets() {
		simd := 1
		if p.SIMD {
			simd = 4
		}
		vlen := p.VLen
		if vlen == 0 {
			vlen = 1
		}
		t.add(p.Name, fmt.Sprint(vlen), fmt.Sprint(simd), x(p.WideAccess), x(p.DAE), x(p.LongLines))
	}
	t.add("BEST_V", "4 or 16", "1", "x", "x", "?")
	t.add("BEST_V_PCV", "4 or 16", "4", "x", "x", "?")
	t.add("GPU", "1", "16", "", "", "")
	fmt.Fprintln(w, "Table 3: benchmark configurations")
	t.write(w)
}
