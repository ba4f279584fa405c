// Package stats collects the simulation event counters the paper's
// evaluation reports: per-core CPI stacks (issued / frame stall / inet stall
// / backpressure / other), I-cache and scratchpad access counts, LLC and
// DRAM traffic, NoC flit counts, and per-instruction-class execution counts.
package stats

import (
	"fmt"
	"strings"
)

// StallKind buckets the reason a core could not issue in a cycle, matching
// the CPI-stack categories in Figures 12 and 13.
type StallKind uint8

const (
	StallNone         StallKind = iota // an instruction issued
	StallFrame                         // waiting for a frame to fill / load data
	StallInet                          // inet input queue empty (vector cores)
	StallBackpressure                  // inet output queue full
	StallOther                         // RAW hazards, structural, fetch, barriers
	numStallKinds
)

func (k StallKind) String() string {
	switch k {
	case StallNone:
		return "issued"
	case StallFrame:
		return "frame"
	case StallInet:
		return "inet"
	case StallBackpressure:
		return "backpressure"
	case StallOther:
		return "other"
	}
	return fmt.Sprintf("stall(%d)", uint8(k))
}

// Core accumulates per-core counters.
type Core struct {
	Cycles      int64 // cycles the core was active (before halt)
	StallCycles [numStallKinds]int64

	Instrs        int64                  // instructions executed (committed)
	InstrsByClass [MaxInstrClasses]int64 // indexed by isa.Class

	ICacheAccesses int64
	SpadReads      int64
	SpadWrites     int64
	InetForwards   int64 // instructions sent on the inet
	InetReceives   int64
	Microthreads   int64 // vissues consumed
	FramesConsumed int64
	VloadsIssued   int64

	// Integrity counters (zero unless the fault-injection integrity layer
	// is enabled): parity failures at frame-open, successful frame replays,
	// replay re-issues after a failed or timed-out attempt, and stale vload
	// words dropped while a replay was refilling the head frame.
	FramePoisons     int64
	FrameReplays     int64
	ReplayRetries    int64
	ReplayStaleDrops int64

	// InetStallsAtHop and BackpressureAtHop are filled in by the machine
	// from the core's counters, indexed by the core's hop distance from the
	// scalar core (Figure 15). Kept here so per-core data stays together.
	Hop int
}

// Issued returns cycles in which an instruction issued.
func (c *Core) Issued() int64 { return c.StallCycles[StallNone] }

// Stall returns the accumulated cycles for kind.
func (c *Core) Stall(k StallKind) int64 { return c.StallCycles[int(k)] }

// AddStall records one cycle spent in state k.
func (c *Core) AddStall(k StallKind) { c.StallCycles[int(k)]++ }

// AddStallN records n consecutive cycles spent in state k. A parked core's
// CatchUp uses it to back-fill the stall histogram for the cycles it did not
// tick, so counts stay bit-identical to stepping every cycle.
func (c *Core) AddStallN(k StallKind, n int64) { c.StallCycles[int(k)] += n }

// MaxInstrClasses bounds the isa.Class enum (17 classes today); a fixed
// array keeps CountClass — one call per issued instruction — off the map
// hash path.
const MaxInstrClasses = 32

// CountClass records execution of one instruction of class cl.
func (c *Core) CountClass(cl uint8) {
	c.InstrsByClass[cl]++
	c.Instrs++
}

// LLC accumulates per-bank cache counters.
type LLC struct {
	Accesses    int64
	Misses      int64
	WideReqs    int64 // vload requests served
	RespWords   int64 // word responses generated
	Writebacks  int64
	StoreHits   int64
	StoreMisses int64
}

// Machine aggregates everything for one simulation run.
type Machine struct {
	Cycles int64
	// WallNs is the host wall-clock time machine.Run spent producing these
	// statistics (build and teardown excluded). It is the denominator of
	// the simulated-throughput meter and the one nondeterministic field
	// here: determinism tests must zero it before comparing runs.
	WallNs int64
	Cores  []Core
	LLCs   []LLC

	NocFlits int64
	NocHops  int64
	// Per-plane splits of the totals above: the request plane carries
	// memory requests, the response plane carries load responses and
	// remote scratchpad stores. rockdoctor's NoC attribution needs the
	// split; NocFlits/NocHops stay as the plane sums.
	NocReqFlits  int64
	NocReqHops   int64
	NocRespFlits int64
	NocRespHops  int64
	// Hottest single link's traversal count per plane: divided by Cycles
	// this is that link's duty cycle, the mesh's analogue of DramBusy —
	// the saturation signal rockdoctor's NoC-limited rule reads.
	NocReqHotHops  int64
	NocRespHotHops int64
	DramReads      int64 // lines read from DRAM
	DramWrites     int64
	DramBusy       int64 // cycles the DRAM channel was occupied
	RemoteStores   int64

	// Fault-injection counters (zero on a fault-free run), summed over both
	// mesh planes.
	NocRetrans int64 // link retry-protocol retransmissions
	NocDropped int64 // flits lost in transit and retransmitted
	NocCorrupt int64 // flits CRC-rejected and retransmitted

	// Permanent-topology degradation (all zero on a healthy fabric):
	// links/routers/banks lost, route-table recomputations, flits harvested
	// and re-injected across topology transitions, extra hops paid versus
	// the fault-free XY paths, flits dropped because their destination node
	// died, requests redirected to a failover LLC bank, and DRAM accesses
	// scheduled at degraded latency.
	CutLinks         int64
	DeadRouters      int64
	DeadBanks        int64
	NocRouteRebuilds int64
	NocReroutedFlits int64
	NocDetourHops    int64
	NocDroppedDead   int64
	LLCBankFailovers int64
	DramDegradedOps  int64

	// Silent-corruption accounting: injected scratchpad bit flips by landing
	// site. Frame-region flips are repairable by frame replay; program-data
	// flips are only caught by the end-of-run output compare.
	SpadFlipsFrame int64
	SpadFlipsData  int64

	// Checkpoints published (consistent global-memory snapshots at armed
	// barrier releases).
	Checkpoints int64

	// Engine counters: the jumps the run loop took over cycles in which
	// every engine shard was parked, and the simulated cycles they covered.
	// Architecturally invisible (each parked component back-fills its own
	// books when it next ticks); reported so speedups are attributable.
	FastForwards  int64
	SkippedCycles int64
}

// New creates a stats sink for nCores cores and nLLCs cache banks.
func New(nCores, nLLCs int) *Machine {
	return &Machine{
		Cores: make([]Core, nCores),
		LLCs:  make([]LLC, nLLCs),
	}
}

// TotalICacheAccesses sums I-cache accesses over all cores (Figure 10b).
func (m *Machine) TotalICacheAccesses() int64 {
	var t int64
	for i := range m.Cores {
		t += m.Cores[i].ICacheAccesses
	}
	return t
}

// TotalInstrs sums committed instructions over all cores.
func (m *Machine) TotalInstrs() int64 {
	var t int64
	for i := range m.Cores {
		t += m.Cores[i].Instrs
	}
	return t
}

// LLCMissRate returns the aggregate LLC miss rate (Figure 17a).
func (m *Machine) LLCMissRate() float64 {
	var acc, miss int64
	for i := range m.LLCs {
		acc += m.LLCs[i].Accesses
		miss += m.LLCs[i].Misses
	}
	if acc == 0 {
		return 0
	}
	return float64(miss) / float64(acc)
}

// CPIStack is the normalized per-core cycle breakdown used in Figures 12
// and 13: each component is cycles / issued-cycles, so the total height is
// the core's effective CPI.
type CPIStack struct {
	Issued       float64
	Frame        float64
	Inet         float64
	Backpressure float64
	Other        float64
}

// Total returns the stack height (the effective CPI).
func (s CPIStack) Total() float64 {
	return s.Issued + s.Frame + s.Inet + s.Backpressure + s.Other
}

// CPIStackFor builds the normalized stack over the given core indices
// (e.g. only expander cores for vector configurations, per Figure 13's
// methodology note).
func (m *Machine) CPIStackFor(coreIdx []int) CPIStack {
	var cyc [numStallKinds]int64
	for _, i := range coreIdx {
		c := &m.Cores[i]
		for k := 0; k < int(numStallKinds); k++ {
			cyc[k] += c.StallCycles[k]
		}
	}
	issued := cyc[StallNone]
	if issued == 0 {
		return CPIStack{}
	}
	f := func(k StallKind) float64 { return float64(cyc[k]) / float64(issued) }
	return CPIStack{
		Issued:       1,
		Frame:        f(StallFrame),
		Inet:         f(StallInet),
		Backpressure: f(StallBackpressure),
		Other:        f(StallOther),
	}
}

// FrameStallFraction returns frame-stall cycles / total active cycles over
// the given cores (Figure 15c).
func (m *Machine) FrameStallFraction(coreIdx []int) float64 {
	var frame, total int64
	for _, i := range coreIdx {
		c := &m.Cores[i]
		frame += c.StallCycles[StallFrame]
		for k := 0; k < int(numStallKinds); k++ {
			total += c.StallCycles[k]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(frame) / float64(total)
}

// StallFractionByHop returns kind-stall cycles / active cycles grouped by
// inet hop distance from the scalar core (Figures 15a and 15b). Hop 0 is
// the scalar core itself. Cores with Hop < 0 (not in any group) are skipped.
func (m *Machine) StallFractionByHop(kind StallKind) map[int]float64 {
	type agg struct{ n, d int64 }
	byHop := map[int]*agg{}
	for i := range m.Cores {
		c := &m.Cores[i]
		if c.Hop < 0 {
			continue
		}
		a := byHop[c.Hop]
		if a == nil {
			a = &agg{}
			byHop[c.Hop] = a
		}
		a.n += c.StallCycles[kind]
		for k := 0; k < int(numStallKinds); k++ {
			a.d += c.StallCycles[k]
		}
	}
	out := make(map[int]float64, len(byHop))
	for h, a := range byHop {
		if a.d > 0 {
			out[h] = float64(a.n) / float64(a.d)
		}
	}
	return out
}

// Summary renders a human-readable digest of the run.
func (m *Machine) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles: %d\n", m.Cycles)
	if m.WallNs > 0 {
		fmt.Fprintf(&b, "simulated throughput: %.2f Msim-cycles/s (%.3fs host time)\n",
			float64(m.Cycles)*1e3/float64(m.WallNs), float64(m.WallNs)/1e9)
	}
	fmt.Fprintf(&b, "instructions: %d\n", m.TotalInstrs())
	fmt.Fprintf(&b, "icache accesses: %d\n", m.TotalICacheAccesses())
	fmt.Fprintf(&b, "llc miss rate: %.3f\n", m.LLCMissRate())
	fmt.Fprintf(&b, "dram line reads: %d writes: %d busy cycles: %d\n",
		m.DramReads, m.DramWrites, m.DramBusy)
	fmt.Fprintf(&b, "noc flits: %d hops: %d\n", m.NocFlits, m.NocHops)
	if m.FastForwards > 0 {
		fmt.Fprintf(&b, "engine: %d idle fast-forwards skipped %d cycles (%.1f%% of run)\n",
			m.FastForwards, m.SkippedCycles, 100*float64(m.SkippedCycles)/float64(max(m.Cycles, 1)))
	}
	if m.NocRetrans > 0 {
		fmt.Fprintf(&b, "noc retransmits: %d (dropped %d, corrupt %d)\n",
			m.NocRetrans, m.NocDropped, m.NocCorrupt)
	}
	if m.CutLinks > 0 || m.DeadRouters > 0 {
		fmt.Fprintf(&b, "degraded mesh: %d links cut, %d routers dead (%d rebuilds, %d flits rerouted, %d detour hops, %d dropped to dead nodes)\n",
			m.CutLinks, m.DeadRouters, m.NocRouteRebuilds, m.NocReroutedFlits, m.NocDetourHops, m.NocDroppedDead)
	}
	if m.DeadBanks > 0 {
		fmt.Fprintf(&b, "degraded llc: %d banks decommissioned, %d requests failed over\n",
			m.DeadBanks, m.LLCBankFailovers)
	}
	if m.DramDegradedOps > 0 {
		fmt.Fprintf(&b, "dram degraded: %d accesses at scaled latency\n", m.DramDegradedOps)
	}
	if m.SpadFlipsFrame > 0 || m.SpadFlipsData > 0 {
		fmt.Fprintf(&b, "spad flips: %d in frame region, %d in program data\n",
			m.SpadFlipsFrame, m.SpadFlipsData)
	}
	var poisons, replays, retries, stale int64
	for i := range m.Cores {
		c := &m.Cores[i]
		poisons += c.FramePoisons
		replays += c.FrameReplays
		retries += c.ReplayRetries
		stale += c.ReplayStaleDrops
	}
	if poisons > 0 || replays > 0 {
		fmt.Fprintf(&b, "frame integrity: %d poisoned, %d replayed (%d retries, %d stale words dropped)\n",
			poisons, replays, retries, stale)
	}
	if m.Checkpoints > 0 {
		fmt.Fprintf(&b, "checkpoints published: %d\n", m.Checkpoints)
	}
	all := make([]int, len(m.Cores))
	for i := range all {
		all[i] = i
	}
	st := m.CPIStackFor(all)
	fmt.Fprintf(&b, "cpi stack: issued=%.2f frame=%.2f inet=%.2f backpressure=%.2f other=%.2f\n",
		st.Issued, st.Frame, st.Inet, st.Backpressure, st.Other)
	return b.String()
}
