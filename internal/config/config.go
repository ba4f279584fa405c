// Package config holds the microarchitectural parameter sets from Table 1
// of the paper, the software configuration presets from Table 3, and the
// vector-group layout generator (the run-time software in the paper
// computes the vconfig bitmasks; here the launcher precomputes equivalent
// group descriptors).
package config

import (
	"fmt"
	"reflect"
	"strings"

	"rockcress/internal/msg"
)

// Manycore mirrors Table 1a. Latencies are in cycles at the modelled 1 GHz.
type Manycore struct {
	MeshWidth  int // tiles per row
	MeshHeight int // tiles per column
	Cores      int // MeshWidth*MeshHeight

	ALULat    int
	MulLat    int
	DivLat    int
	FpALULat  int
	FpMulLat  int
	FpDivLat  int
	SIMDWidth int // words per per-core SIMD unit
	SIMDLat   int

	LoadQueueEntries int
	InetQueueEntries int
	FrameCounters    int // DAE frame counters per scratchpad (paper: five)

	CacheLineBytes int
	ICacheBytes    int
	ICacheWays     int
	ICacheHitLat   int
	ICacheMissLat  int // modelled fixed refill penalty
	SpadBytes      int
	SpadHitLat     int

	RouterHopLat  int
	NetWidthWords int // word flits a link moves per cycle
	LinkQueue     int // per-link flit queue depth

	LLCBytes      int // total capacity across banks
	LLCBanks      int
	LLCHitLat     int
	LLCWays       int
	LLCReqQueue   int // per-bank request queue depth
	LLCMSHRs      int // per-bank outstanding misses
	LLCRespJobs   int // per-bank queued wide-response jobs
	DRAMLatency   int // cycles (60 ns at 1 GHz)
	DRAMBandwidth int // bytes per cycle (16 GB/s at 1 GHz = 16 B/cycle)

	BranchPenalty int // bubble after a resolved branch (8-stage in-order pipe)
}

// ManycoreDefault returns the Table 1a configuration: a 64-core 8x8 mesh.
func ManycoreDefault() Manycore {
	return Manycore{
		MeshWidth: 8, MeshHeight: 8, Cores: 64,
		ALULat: 1, MulLat: 2, DivLat: 20,
		FpALULat: 3, FpMulLat: 3, FpDivLat: 20,
		SIMDWidth: 4, SIMDLat: 3,
		LoadQueueEntries: 2, InetQueueEntries: 2, FrameCounters: 5,
		CacheLineBytes: 64,
		ICacheBytes:    4 * 1024, ICacheWays: 2, ICacheHitLat: 1, ICacheMissLat: 30,
		SpadBytes: 4 * 1024, SpadHitLat: 2,
		RouterHopLat: 1, NetWidthWords: 4, LinkQueue: 4,
		LLCBytes: 256 * 1024, LLCBanks: 16, LLCHitLat: 1, LLCWays: 4,
		LLCReqQueue: 8, LLCMSHRs: 8, LLCRespJobs: 8,
		DRAMLatency: 60, DRAMBandwidth: 16,
		BranchPenalty: 3,
	}
}

// RangeError is a fabric whose size overflows a field of the 64-byte flit
// (msg.Message): its node ids or its load-queue slots.
type RangeError struct {
	What     string // "nodes" or "load queue entries"
	N, Limit int
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("%d %s exceed the flit's limit of %d", e.N, e.What, e.Limit)
}

// Validate sanity-checks derived relationships.
func (m Manycore) Validate() error {
	if m.Cores != m.MeshWidth*m.MeshHeight {
		return fmt.Errorf("cores %d != mesh %dx%d", m.Cores, m.MeshWidth, m.MeshHeight)
	}
	if n := m.Cores + m.LLCBanks; n > msg.MaxNodes {
		return &RangeError{What: "nodes", N: n, Limit: msg.MaxNodes}
	}
	if m.LoadQueueEntries > msg.MaxLQSlots {
		return &RangeError{What: "load queue entries", N: m.LoadQueueEntries, Limit: msg.MaxLQSlots}
	}
	if m.LLCBanks%2 != 0 {
		return fmt.Errorf("llc banks %d must be even (top+bottom rows)", m.LLCBanks)
	}
	if m.LLCBanks/2 > m.MeshWidth {
		return fmt.Errorf("llc banks %d exceed 2x mesh width %d", m.LLCBanks, m.MeshWidth)
	}
	if m.CacheLineBytes%4 != 0 || m.CacheLineBytes == 0 {
		return fmt.Errorf("cache line %dB must be a positive word multiple", m.CacheLineBytes)
	}
	if m.FrameCounters <= 0 {
		return fmt.Errorf("frame counters must be positive")
	}
	if m.SpadBytes%m.CacheLineBytes != 0 {
		return fmt.Errorf("scratchpad %dB must be a line multiple", m.SpadBytes)
	}
	if m.SpadBytes <= 0 {
		return fmt.Errorf("scratchpad size must be positive")
	}
	if m.InetQueueEntries < 1 {
		return fmt.Errorf("inet queue entries %d must be at least 1", m.InetQueueEntries)
	}
	if m.LoadQueueEntries < 1 {
		return fmt.Errorf("load queue entries %d must be at least 1", m.LoadQueueEntries)
	}
	if m.LinkQueue < 1 {
		return fmt.Errorf("noc link queue %d must be at least 1", m.LinkQueue)
	}
	if m.RouterHopLat < 1 {
		return fmt.Errorf("router hop latency %d must be at least 1", m.RouterHopLat)
	}
	if m.NetWidthWords < 1 || m.NetWidthWords > msg.MaxWords {
		return fmt.Errorf("net width %d words out of range [1, %d] (flit payloads are inline arrays)",
			m.NetWidthWords, msg.MaxWords)
	}
	if m.DRAMLatency < 0 || m.DRAMBandwidth < 1 {
		return fmt.Errorf("dram latency %d / bandwidth %d out of range", m.DRAMLatency, m.DRAMBandwidth)
	}
	// The LLC and I-cache index with bit masks, so their set counts must be
	// powers of two; checking here keeps the constructors' invariant panics
	// unreachable from any validated configuration.
	if m.LLCBanks > 0 {
		sets := m.LLCBytes / m.LLCBanks / (m.CacheLineBytes * m.LLCWays)
		if sets < 1 {
			sets = 1
		}
		if sets&(sets-1) != 0 {
			return fmt.Errorf("llc sets per bank %d must be a power of two", sets)
		}
	}
	if m.ICacheBytes > 0 {
		sets := m.ICacheBytes / (m.ICacheWays * m.CacheLineBytes)
		if sets < 1 {
			sets = 1
		}
		if sets&(sets-1) != 0 {
			return fmt.Errorf("icache sets %d must be a power of two", sets)
		}
	}
	return nil
}

// LineWords returns the cache line size in words.
func (m Manycore) LineWords() int { return m.CacheLineBytes / 4 }

// GPU mirrors Table 1b (the gem5 APU model's knobs we reproduce).
type GPU struct {
	CUs             int
	LanesPerVALU    int
	VALUsPerCU      int
	VALULat         int // cycles to issue a wavefront through a vALU
	WavefrontSize   int
	WavefrontsPerCU int

	CacheLineBytes int
	TCPBytes       int // per-CU L1
	TCPHitLat      int
	TCPWays        int
	TCCBytes       int // shared L2
	TCCHitLat      int
	TCCWays        int
	LLCBytes       int // shared L3 (GPU LLC)
	LLCHitLat      int
	LLCWays        int
	DRAMLatency    int
	DRAMBandwidth  int // bytes/cycle
	LaunchOverhead int // cycles per kernel launch (driver + dispatch)
}

// GPUDefault returns the Table 1b configuration.
func GPUDefault() GPU {
	return GPU{
		CUs: 4, LanesPerVALU: 16, VALUsPerCU: 4, VALULat: 4,
		WavefrontSize: 64, WavefrontsPerCU: 4,
		CacheLineBytes: 64,
		TCPBytes:       16 * 1024, TCPHitLat: 1, TCPWays: 16,
		TCCBytes: 256 * 1024, TCCHitLat: 2, TCCWays: 16,
		LLCBytes: 4 * 1024 * 1024, LLCHitLat: 2, LLCWays: 16,
		DRAMLatency: 60, DRAMBandwidth: 16,
		LaunchOverhead: 600,
	}
}

// MachineKey spells a machine: "" for the Table 1a default, otherwise every
// field that differs from it as Name=value, in declaration order. The
// harness keys its cell cache on it, and a sweep's run status tells two
// cells of one kernel and configuration apart by it.
func MachineKey(hw Manycore) string {
	def := ManycoreDefault()
	if hw == def {
		return ""
	}
	v, d := reflect.ValueOf(hw), reflect.ValueOf(def)
	var diff []string
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.Equal(d.Field(i)) {
			diff = append(diff, fmt.Sprintf("%s=%v", v.Type().Field(i).Name, f))
		}
	}
	return strings.Join(diff, ",")
}
