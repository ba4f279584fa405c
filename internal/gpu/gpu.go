// Package gpu is the APU timing model the evaluation compares against
// (§5.3): compute units with four 16-lane vALUs each executing a 64-thread
// wavefront every four cycles, a small number of resident wavefronts per CU
// for latency hiding, per-wavefront memory coalescing into cache lines, and
// a TCP (per-CU L1) / TCC (shared L2) / LLC (shared L3) hierarchy over the
// same fixed-latency fixed-bandwidth DRAM as the manycore.
//
// The paper uses the gem5 APU model; this is a structural substitution that
// keeps the two properties the comparison exercises: high throughput on
// arithmetic-dense kernels and limited latency hiding (only four wavefronts
// per CU) on memory-bound ones. Kernels provide wavefront-level traces;
// functional results are validated on the manycore against the serial
// references, so the GPU model is timing-only.
package gpu

import (
	"fmt"
	"slices"

	"rockcress/internal/config"
)

// OpKind discriminates wavefront operations.
type OpKind uint8

const (
	// OpCompute is one vALU pass over the wavefront (Flops scales it).
	OpCompute OpKind = iota
	// OpLoad reads one word per active lane; the model coalesces the lane
	// addresses into cache lines and blocks the wavefront until they land.
	OpLoad
	// OpStore writes one word per active lane; non-blocking beyond port
	// occupancy.
	OpStore
)

// WfOp is one wavefront-wide operation.
type WfOp struct {
	Kind  OpKind
	Flops int      // vALU passes for OpCompute (>=1)
	Addrs []uint32 // byte address per lane for loads/stores; nil lane = idle
}

// Compute returns a compute op of n vALU passes.
func Compute(n int) WfOp {
	if n < 1 {
		n = 1
	}
	return WfOp{Kind: OpCompute, Flops: n}
}

// Kernel is one GPU launch: a number of wavefronts and a trace generator
// that materializes a wavefront's ops when it is scheduled.
type Kernel struct {
	Name       string
	Wavefronts int
	Trace      func(wf int) []WfOp
}

// WavefrontSize is the thread count of one wavefront (Table 1b; the traces
// are generated before a Sim and its config.GPU exist).
const WavefrontSize = 64

// Wave is one wavefront's trace under construction: PerThread's body
// appends ops to it in program order.
type Wave struct {
	base, lanes int // first thread id and live lane count
	ops         []WfOp
}

// addrs evaluates at for each live lane's thread id.
func (w *Wave) addrs(at func(t int) uint32) []uint32 {
	a := make([]uint32, w.lanes)
	for l := range a {
		a[l] = at(w.base + l)
	}
	return a
}

// Load appends a load of the word at(t) by every live thread t. at is
// evaluated here, not when the op issues, so it may read the caller's loop
// variables.
func (w *Wave) Load(at func(t int) uint32) {
	w.ops = append(w.ops, WfOp{Kind: OpLoad, Addrs: w.addrs(at)})
}

// Store appends a store to the word at(t) by every live thread t.
func (w *Wave) Store(at func(t int) uint32) {
	w.ops = append(w.ops, WfOp{Kind: OpStore, Addrs: w.addrs(at)})
}

// Compute appends n vALU passes.
func (w *Wave) Compute(n int) { w.ops = append(w.ops, Compute(n)) }

// PerThread returns a launch of one thread per work item, threads 0 to
// threads-1 packed into wavefronts in order (the last one partly idle).
// body writes one wavefront's trace in terms of a thread id.
func PerThread(name string, threads int, body func(w *Wave)) Kernel {
	return Kernel{
		Name:       name,
		Wavefronts: (threads + WavefrontSize - 1) / WavefrontSize,
		Trace: func(wf int) []WfOp {
			base := wf * WavefrontSize
			w := Wave{base: base, lanes: min(WavefrontSize, threads-base)}
			body(&w)
			return w.ops
		},
	}
}

// Stats summarizes a GPU run.
type Stats struct {
	Cycles     int64
	Wavefronts int
	ComputeOps int64
	LoadOps    int64
	StoreOps   int64
	Lines      int64 // coalesced line accesses
	TCPHits    int64
	TCCHits    int64
	LLCHits    int64
	DramLines  int64
}

// Add accumulates another run's statistics (serial kernel launches).
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.Wavefronts += o.Wavefronts
	s.ComputeOps += o.ComputeOps
	s.LoadOps += o.LoadOps
	s.StoreOps += o.StoreOps
	s.Lines += o.Lines
	s.TCPHits += o.TCPHits
	s.TCCHits += o.TCCHits
	s.LLCHits += o.LLCHits
	s.DramLines += o.DramLines
}

type gcache struct {
	sets, ways int
	lineBytes  int
	tags       []uint32
	valid      []bool
	mru        []uint8
}

func newGcache(bytes, ways, lineBytes int) *gcache {
	sets := bytes / (ways * lineBytes)
	if sets < 1 {
		sets = 1
	}
	for sets&(sets-1) != 0 {
		sets-- // round down to a power of two
	}
	return &gcache{
		sets: sets, ways: ways, lineBytes: lineBytes,
		tags:  make([]uint32, sets*ways),
		valid: make([]bool, sets*ways),
		mru:   make([]uint8, sets),
	}
}

// access looks a line address up, installing on miss; returns hit.
func (c *gcache) access(lineAddr uint32) bool {
	set := int(lineAddr/uint32(c.lineBytes)) & (c.sets - 1)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == lineAddr {
			c.mru[set] = uint8(w)
			return true
		}
	}
	victim := -1
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = (int(c.mru[set]) + 1) % c.ways
	}
	c.valid[base+victim] = true
	c.tags[base+victim] = lineAddr
	c.mru[set] = uint8(victim)
	return false
}

type wfState struct {
	id      int
	ops     []WfOp
	ip      int
	readyAt int64
}

type cuState struct {
	idx      int
	resident []*wfState
	valuFree []int64
	portFree int64 // memory port: one coalesced line per cycle
	rr       int
}

// Sim runs kernels on the modelled GPU.
type Sim struct {
	cfg  config.GPU
	tcps []*gcache
	tcc  *gcache
	llc  *gcache

	dramFree int64
	st       Stats

	// lines is coalesce's reused result: a wavefront touches at most one
	// line per lane.
	lines []uint32
}

// NewSim builds a simulator for the Table 1b configuration.
func NewSim(cfg config.GPU) *Sim {
	s := &Sim{cfg: cfg, lines: make([]uint32, 0, WavefrontSize)}
	s.tcps = make([]*gcache, cfg.CUs)
	for i := range s.tcps {
		s.tcps[i] = newGcache(cfg.TCPBytes, cfg.TCPWays, cfg.CacheLineBytes)
	}
	s.tcc = newGcache(cfg.TCCBytes, cfg.TCCWays, cfg.CacheLineBytes)
	s.llc = newGcache(cfg.LLCBytes, cfg.LLCWays, cfg.CacheLineBytes)
	return s
}

// lineAccess walks the hierarchy for one coalesced line and returns its
// completion time given an issue time.
func (s *Sim) lineAccess(cu int, lineAddr uint32, issueAt int64) int64 {
	s.st.Lines++
	if s.tcps[cu].access(lineAddr) {
		s.st.TCPHits++
		return issueAt + int64(s.cfg.TCPHitLat)
	}
	lat := int64(s.cfg.TCPHitLat)
	if s.tcc.access(lineAddr) {
		s.st.TCCHits++
		return issueAt + lat + int64(s.cfg.TCCHitLat)
	}
	lat += int64(s.cfg.TCCHitLat)
	if s.llc.access(lineAddr) {
		s.st.LLCHits++
		return issueAt + lat + int64(s.cfg.LLCHitLat)
	}
	lat += int64(s.cfg.LLCHitLat)
	// DRAM: serialize on the shared channel's bandwidth.
	s.st.DramLines++
	start := issueAt + lat
	if s.dramFree > start {
		start = s.dramFree
	}
	transfer := int64((s.cfg.CacheLineBytes + s.cfg.DRAMBandwidth - 1) / s.cfg.DRAMBandwidth)
	s.dramFree = start + transfer
	return start + int64(s.cfg.DRAMLatency) + transfer
}

// coalesce reduces per-lane addresses to unique line addresses, in lane
// order (first occurrence). The result is the Sim's, valid until the next
// call; a scan dedupes, since a wavefront has at most a line per lane.
func (s *Sim) coalesce(addrs []uint32) []uint32 {
	lineBytes := uint32(s.cfg.CacheLineBytes)
	lines := s.lines[:0]
	for _, a := range addrs {
		if la := a &^ (lineBytes - 1); !slices.Contains(lines, la) {
			lines = append(lines, la)
		}
	}
	s.lines = lines
	return lines
}

// Run executes the kernel and returns timing statistics. Every launch pays
// the configured dispatch overhead (host driver + wavefront setup), which
// is what makes many-small-kernel workloads expensive on the GPU.
func (s *Sim) Run(k Kernel, maxCycles int64) (Stats, error) {
	s.st = Stats{Wavefronts: k.Wavefronts, Cycles: int64(s.cfg.LaunchOverhead)}
	if k.Wavefronts == 0 {
		return s.st, nil
	}
	cus := make([]cuState, s.cfg.CUs)
	for i := range cus {
		cus[i].idx = i
		cus[i].valuFree = make([]int64, s.cfg.VALUsPerCU)
	}
	nextWf := 0
	remaining := k.Wavefronts
	fetch := func(cu *cuState) {
		for len(cu.resident) < s.cfg.WavefrontsPerCU && nextWf < k.Wavefronts {
			cu.resident = append(cu.resident, &wfState{id: nextWf, ops: k.Trace(nextWf)})
			nextWf++
		}
	}
	var now int64
	for remaining > 0 {
		if now >= maxCycles {
			return s.st, fmt.Errorf("gpu: kernel %s exceeded %d cycles", k.Name, maxCycles)
		}
		for ci := range cus {
			cu := &cus[ci]
			fetch(cu)
			if len(cu.resident) == 0 {
				continue
			}
			// Round-robin: issue for the first ready wavefront.
			for k2 := 0; k2 < len(cu.resident); k2++ {
				wf := cu.resident[(cu.rr+k2)%len(cu.resident)]
				if wf.readyAt > now {
					continue
				}
				if wf.ip >= len(wf.ops) {
					continue
				}
				if s.issueOp(cu, wf, now) {
					cu.rr = (cu.rr + k2 + 1) % len(cu.resident)
					break
				}
			}
			// Retire finished wavefronts.
			kept := cu.resident[:0]
			for _, wf := range cu.resident {
				if wf.ip >= len(wf.ops) && wf.readyAt <= now {
					remaining--
				} else {
					kept = append(kept, wf)
				}
			}
			cu.resident = kept
			if cu.rr >= len(cu.resident) {
				cu.rr = 0
			}
		}
		now++
	}
	s.st.Cycles += now
	return s.st, nil
}

// issueOp tries to issue the wavefront's next op at cycle now.
func (s *Sim) issueOp(cu *cuState, wf *wfState, now int64) bool {
	op := wf.ops[wf.ip]
	switch op.Kind {
	case OpCompute:
		// One vALU executes the 64-thread wavefront over VALULat cycles.
		for v := range cu.valuFree {
			if cu.valuFree[v] <= now {
				dur := int64(op.Flops) * int64(s.cfg.VALULat)
				cu.valuFree[v] = now + dur
				wf.readyAt = now + dur
				wf.ip++
				s.st.ComputeOps++
				return true
			}
		}
		return false
	case OpLoad, OpStore:
		if cu.portFree > now {
			return false
		}
		cuIdx := cu.idx
		lines := s.coalesce(op.Addrs)
		done := now
		for i, la := range lines {
			issueAt := now + int64(i) // one coalesced line per port cycle
			t := s.lineAccess(cuIdx, la, issueAt)
			if t > done {
				done = t
			}
		}
		cu.portFree = now + int64(len(lines))
		if op.Kind == OpLoad {
			wf.readyAt = done
			s.st.LoadOps++
		} else {
			wf.readyAt = now + 1
			s.st.StoreOps++
		}
		wf.ip++
		return true
	}
	return false
}
