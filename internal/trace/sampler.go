package trace

import (
	"encoding/json"
	"io"
)

// Role buckets cores for the per-role CPI stack windows: a tile is the
// scalar core of a group, the expander, a plain vector lane, or an
// independent MIMD core. The mapping is the machine's static group layout;
// a lane that devectorizes after a fault keeps its original bucket.
type Role uint8

const (
	RoleScalar Role = iota
	RoleExpander
	RoleLane
	RoleMimd
	NumRoles
)

// RoleNames indexes Role to its JSON key.
var RoleNames = [NumRoles]string{"scalar", "expander", "lane", "mimd"}

// RoleCounters is one role's cumulative CPI-stack cycles plus committed
// instructions.
type RoleCounters struct {
	Issued       int64 `json:"issued"`
	Frame        int64 `json:"frame"`
	Inet         int64 `json:"inet"`
	Backpressure int64 `json:"backpressure"`
	Other        int64 `json:"other"`
	Instrs       int64 `json:"instrs"`
}

func (a RoleCounters) sub(b RoleCounters) RoleCounters {
	return RoleCounters{
		Issued: a.Issued - b.Issued, Frame: a.Frame - b.Frame,
		Inet: a.Inet - b.Inet, Backpressure: a.Backpressure - b.Backpressure,
		Other: a.Other - b.Other, Instrs: a.Instrs - b.Instrs,
	}
}

// FrameCounters is the cumulative frame-window and recovery-ladder activity.
type FrameCounters struct {
	Consumed   int64 `json:"consumed"`
	Poisons    int64 `json:"poisons"`
	Replays    int64 `json:"replays"`
	Retries    int64 `json:"retries"`
	StaleDrops int64 `json:"stale_drops"`
}

func (a FrameCounters) sub(b FrameCounters) FrameCounters {
	return FrameCounters{
		Consumed: a.Consumed - b.Consumed, Poisons: a.Poisons - b.Poisons,
		Replays: a.Replays - b.Replays, Retries: a.Retries - b.Retries,
		StaleDrops: a.StaleDrops - b.StaleDrops,
	}
}

// LLCCounters is the cumulative cache activity summed over banks.
type LLCCounters struct {
	Accesses   int64 `json:"accesses"`
	Misses     int64 `json:"misses"`
	WideReqs   int64 `json:"wide_reqs"`
	RespWords  int64 `json:"resp_words"`
	Writebacks int64 `json:"writebacks"`
}

func (a LLCCounters) sub(b LLCCounters) LLCCounters {
	return LLCCounters{
		Accesses: a.Accesses - b.Accesses, Misses: a.Misses - b.Misses,
		WideReqs: a.WideReqs - b.WideReqs, RespWords: a.RespWords - b.RespWords,
		Writebacks: a.Writebacks - b.Writebacks,
	}
}

// DramCounters is the cumulative DRAM channel activity.
type DramCounters struct {
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Busy   int64 `json:"busy"`
}

func (a DramCounters) sub(b DramCounters) DramCounters {
	return DramCounters{Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes, Busy: a.Busy - b.Busy}
}

// NocCounters is the cumulative mesh activity, split by plane.
type NocCounters struct {
	FlitsReq     int64 `json:"flits_req"`
	HopsReq      int64 `json:"hops_req"`
	FlitsResp    int64 `json:"flits_resp"`
	HopsResp     int64 `json:"hops_resp"`
	Retrans      int64 `json:"retrans"`
	Dropped      int64 `json:"dropped"`
	Corrupt      int64 `json:"corrupt"`
	RemoteStores int64 `json:"remote_stores"`
}

func (a NocCounters) sub(b NocCounters) NocCounters {
	return NocCounters{
		FlitsReq: a.FlitsReq - b.FlitsReq, HopsReq: a.HopsReq - b.HopsReq,
		FlitsResp: a.FlitsResp - b.FlitsResp, HopsResp: a.HopsResp - b.HopsResp,
		Retrans: a.Retrans - b.Retrans, Dropped: a.Dropped - b.Dropped,
		Corrupt: a.Corrupt - b.Corrupt, RemoteStores: a.RemoteStores - b.RemoteStores,
	}
}

// EngineCounters is the cumulative engine-level activity.
type EngineCounters struct {
	FastForwards  int64 `json:"fast_forwards"`
	SkippedCycles int64 `json:"skipped_cycles"`
	Checkpoints   int64 `json:"checkpoints"`
}

func (a EngineCounters) sub(b EngineCounters) EngineCounters {
	return EngineCounters{
		FastForwards:  a.FastForwards - b.FastForwards,
		SkippedCycles: a.SkippedCycles - b.SkippedCycles,
		Checkpoints:   a.Checkpoints - b.Checkpoints,
	}
}

// Cum is a cumulative counter snapshot, built by Fold from a run's
// stats.Machine. Every field is a monotone total since cycle 0 of the
// current run, so per-window deltas sum exactly to the end-of-run
// aggregates — the conservation property the telemetry tests assert.
type Cum struct {
	Roles  [NumRoles]RoleCounters
	Frames FrameCounters
	LLC    LLCCounters
	Dram   DramCounters
	Noc    NocCounters
	Engine EngineCounters

	// LLC store outcomes summed over banks. report.json carries them;
	// telemetry windows (schema 1) do not.
	LLCStoreHits   int64
	LLCStoreMisses int64

	// Per-link mesh hop totals (index: router*4+direction), present only
	// when the machine enabled per-link accounting for this run.
	LinksReq  []int64
	LinksResp []int64
}

// Gauges are point-in-time values sampled at a window's end. Unlike Cum
// fields they do not sum across windows.
type Gauges struct {
	// FramesOccupied counts completely filled, not-yet-consumed frames
	// across every scratchpad.
	FramesOccupied int64
	// InetHighWater is the deepest any inet input queue has ever been.
	InetHighWater int64
}

// Window is one JSONL telemetry record: the counter deltas over
// [Start, End), derived rates, and end-of-window gauges.
type Window struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	Final bool  `json:"final,omitempty"`
	// Truncated marks the final window of a run that did not complete
	// (cancellation, wall-budget abort, simulation error): the series is a
	// valid prefix, not the whole run.
	Truncated bool `json:"truncated,omitempty"`

	Roles  map[string]RoleCounters `json:"roles"`
	Frames FrameCounters           `json:"frames"`
	LLC    LLCCounters             `json:"llc"`
	Dram   DramCounters            `json:"dram"`
	Noc    NocCounters             `json:"noc"`
	Engine EngineCounters          `json:"engine"`

	LLCMissRate  float64 `json:"llc_miss_rate"`
	DramBusyFrac float64 `json:"dram_busy_frac"`

	// Per-link hop deltas keyed "from>to" (router ids), nonzero links only.
	LinksReq  map[string]int64 `json:"links_req,omitempty"`
	LinksResp map[string]int64 `json:"links_resp,omitempty"`

	FramesOccupied int64 `json:"frames_occupied"`
	InetHighWater  int64 `json:"inet_high_water"`
}

// Sampler turns cumulative snapshots into windowed JSONL. It is driven from
// the machine's serial run loop, so it needs no locking. One sampler serves
// one machine at a time; machine.New calls Reset so multi-attempt fault
// harness runs restart the window series per attempt.
type Sampler struct {
	enc        *json.Encoder
	every      int64
	next       int64
	prev       Cum
	prevAt     int64
	linkLabels []string
	finished   bool
	truncated  bool
	err        error
}

// newSampler builds a sampler. w may be nil for a retain-only sampler (the
// machine keeps the returned windows in its plane's flight recorder, without
// a JSONL file).
func newSampler(w io.Writer, every int64) *Sampler {
	s := &Sampler{every: every}
	if w != nil {
		s.enc = json.NewEncoder(w)
	}
	return s
}

// Err returns the first write error, if any.
func (s *Sampler) Err() error { return s.err }

// SetLinkLabels installs the router-pair names for per-link deltas (index
// parallel to Cum.LinksReq/LinksResp; empty label = nonexistent edge link).
func (s *Sampler) SetLinkLabels(labels []string) { s.linkLabels = labels }

// Reset rewinds the sampler for a fresh machine run starting at cycle 0.
func (s *Sampler) Reset() {
	s.prev = Cum{}
	s.prevAt = 0
	s.next = s.every
	s.finished = false
	s.truncated = false
}

// MarkTruncated flags the series as the partial record of a run that did
// not complete; the final window then carries "truncated": true. Reset
// clears it, so a later fault-harness attempt starts clean.
func (s *Sampler) MarkTruncated() { s.truncated = true }

// Due reports whether the run has crossed the next window boundary.
func (s *Sampler) Due(now int64) bool {
	if s.finished {
		return false
	}
	if s.next == 0 {
		s.next = s.every
	}
	return now >= s.next
}

// Record emits the window [prevAt, now) from the cumulative snapshot c and
// returns it.
func (s *Sampler) Record(now int64, c *Cum, g Gauges) Window {
	w := s.emit(now, c, g, false)
	s.next = now - now%s.every + s.every
	if s.next <= now {
		s.next += s.every
	}
	return w
}

// Finish emits the final (possibly partial) window and stops the sampler;
// emitted reports whether there was one. Safe to call on a sampler that
// never became due; a run whose last window is empty emits nothing extra.
func (s *Sampler) Finish(now int64, c *Cum, g Gauges) (w Window, emitted bool) {
	if s.finished {
		return w, false
	}
	// A truncated run always emits its final window, even an empty one:
	// the marker must reach the JSONL tail for readers to see it.
	emitted = now > s.prevAt || !s.deltaZero(c) || s.truncated
	if emitted {
		w = s.emit(now, c, g, true)
	}
	s.finished = true
	return w, emitted
}

func (s *Sampler) deltaZero(c *Cum) bool {
	for r := range c.Roles {
		if c.Roles[r] != s.prev.Roles[r] {
			return false
		}
	}
	return c.Frames == s.prev.Frames && c.LLC == s.prev.LLC &&
		c.Dram == s.prev.Dram && c.Noc == s.prev.Noc && c.Engine == s.prev.Engine
}

func (s *Sampler) emit(now int64, c *Cum, g Gauges, final bool) Window {
	w := Window{
		Start: s.prevAt, End: now, Final: final, Truncated: final && s.truncated,
		Roles:  make(map[string]RoleCounters, NumRoles),
		Frames: c.Frames.sub(s.prev.Frames),
		LLC:    c.LLC.sub(s.prev.LLC),
		Dram:   c.Dram.sub(s.prev.Dram),
		Noc:    c.Noc.sub(s.prev.Noc),
		Engine: c.Engine.sub(s.prev.Engine),

		FramesOccupied: g.FramesOccupied,
		InetHighWater:  g.InetHighWater,
	}
	for r := Role(0); r < NumRoles; r++ {
		w.Roles[RoleNames[r]] = c.Roles[r].sub(s.prev.Roles[r])
	}
	if w.LLC.Accesses > 0 {
		w.LLCMissRate = float64(w.LLC.Misses) / float64(w.LLC.Accesses)
	}
	if span := now - s.prevAt; span > 0 {
		w.DramBusyFrac = float64(w.Dram.Busy) / float64(span)
	}
	w.LinksReq = s.linkDelta(c.LinksReq, s.prev.LinksReq)
	w.LinksResp = s.linkDelta(c.LinksResp, s.prev.LinksResp)
	if s.enc != nil {
		if err := s.enc.Encode(&w); err != nil && s.err == nil {
			s.err = err
		}
	}
	s.prev = *c
	s.prevAt = now
	return w
}

func (s *Sampler) linkDelta(cur, prev []int64) map[string]int64 {
	if len(cur) == 0 {
		return nil
	}
	var out map[string]int64
	for i, v := range cur {
		var p int64
		if i < len(prev) {
			p = prev[i]
		}
		if d := v - p; d != 0 && i < len(s.linkLabels) && s.linkLabels[i] != "" {
			if out == nil {
				out = make(map[string]int64)
			}
			out[s.linkLabels[i]] = d
		}
	}
	return out
}
