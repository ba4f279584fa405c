package trace

import (
	"io"
	"slices"
	"strconv"
	"strings"
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

	// Per-link mesh hop totals (index: router*4+direction). The machine
	// always fills them from its meshes; Fold leaves them nil.
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
// [Start, End), derived rates, and end-of-window gauges. It is the readers'
// type: the Sampler writes the same bytes encoding/json makes of it without
// building one.
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
//
// A window is encoded once, straight from the fold, into one reused line —
// the bytes encoding/json makes of the Window — which goes to the JSONL
// writer and back to the caller, for the flight ring.
type Sampler struct {
	w         io.Writer
	every     int64
	next      int64
	prev      Cum
	prevAt    int64
	links     []linkKey // labelled links, in encoding/json's map order
	keys      []byte    // every link's quoted key and colon, back to back
	line      []byte    // the last window's JSON line
	finished  bool
	truncated bool
	err       error
}

// linkKey is one labelled link: its index into Cum.LinksReq/LinksResp and
// its rendered key, keys[lo:hi].
type linkKey struct{ i, lo, hi int32 }

// NewSampler builds a sampler cutting windows of every cycles
// (DefaultSampleEvery when not positive). w may be nil: the windows are then
// only handed back (Record, Finish) — a machine holding the plane's slot
// keeps them in the flight recorder without writing JSONL.
func NewSampler(w io.Writer, every int64) *Sampler {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	return &Sampler{w: w, every: every}
}

// Err returns the first write error, if any.
func (s *Sampler) Err() error { return s.err }

// SetLinkLabels installs the router-pair names for per-link deltas (index
// parallel to Cum.LinksReq/LinksResp; empty label = nonexistent edge link).
// The keys are quoted and put in map order here, once per machine.
func (s *Sampler) SetLinkLabels(labels []string) {
	s.links, s.keys = s.links[:0], s.keys[:0]
	for i, l := range labels {
		if l != "" {
			s.links = append(s.links, linkKey{i: int32(i)})
		}
	}
	slices.SortFunc(s.links, func(a, b linkKey) int { return strings.Compare(labels[a.i], labels[b.i]) })
	for k := range s.links {
		l := &s.links[k]
		l.lo = int32(len(s.keys))
		s.keys = append(appendQuoted(s.keys, labels[l.i]), ':')
		l.hi = int32(len(s.keys))
	}
}

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
// returns its JSON line, valid until the sampler's next window.
func (s *Sampler) Record(now int64, c *Cum, g Gauges) []byte {
	line := s.emit(now, c, g, false)
	s.next = now - now%s.every + s.every
	if s.next <= now {
		s.next += s.every
	}
	return line
}

// Finish emits the final (possibly partial) window, stops the sampler and
// returns the window's line, or nil when there was none. Safe to call on a
// sampler that never became due; a run whose last window is empty emits
// nothing extra.
func (s *Sampler) Finish(now int64, c *Cum, g Gauges) []byte {
	if s.finished {
		return nil
	}
	s.finished = true
	// A truncated run always emits its final window, even an empty one:
	// the marker must reach the JSONL tail for readers to see it.
	if now > s.prevAt || !s.deltaZero(c) || s.truncated {
		return s.emit(now, c, g, true)
	}
	return nil
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

// The counter groups' keys, in field order (the Window's json tags).
var (
	roleKeys   = objectKeys("issued", "frame", "inet", "backpressure", "other", "instrs")
	frameKeys  = objectKeys("consumed", "poisons", "replays", "retries", "stale_drops")
	llcKeys    = objectKeys("accesses", "misses", "wide_reqs", "resp_words", "writebacks")
	dramKeys   = objectKeys("reads", "writes", "busy")
	nocKeys    = objectKeys("flits_req", "hops_req", "flits_resp", "hops_resp", "retrans", "dropped", "corrupt", "remote_stores")
	engineKeys = objectKeys("fast_forwards", "skipped_cycles", "checkpoints")
)

// roleOrder is the roles in the order encoding/json writes Window.Roles
// (sorted by name), and roleOrderKeys their rendered keys.
var roleOrder, roleOrderKeys = func() ([NumRoles]Role, []string) {
	var order [NumRoles]Role
	names := make([]string, NumRoles)
	for r := range order {
		order[r] = Role(r)
	}
	slices.SortFunc(order[:], func(a, b Role) int { return strings.Compare(RoleNames[a], RoleNames[b]) })
	for i, r := range order {
		names[i] = RoleNames[r]
	}
	return order, objectKeys(names...)
}()

// emit encodes the window [prevAt, now) as one JSONL line, writes it and
// returns it.
func (s *Sampler) emit(now int64, c *Cum, g Gauges, final bool) []byte {
	p := &s.prev
	b := append(s.line[:0], `{"start":`...)
	b = strconv.AppendInt(b, s.prevAt, 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, now, 10)
	if final {
		b = append(b, `,"final":true`...)
		if s.truncated {
			b = append(b, `,"truncated":true`...)
		}
	}
	b = append(b, `,"roles":`...)
	for i, r := range roleOrder {
		b = append(b, roleOrderKeys[i]...)
		d := c.Roles[r].sub(p.Roles[r])
		b = appendObject(b, roleKeys, d.Issued, d.Frame, d.Inet, d.Backpressure, d.Other, d.Instrs)
	}
	fr := c.Frames.sub(p.Frames)
	b = appendObject(append(b, `},"frames":`...), frameKeys, fr.Consumed, fr.Poisons, fr.Replays, fr.Retries, fr.StaleDrops)
	llc := c.LLC.sub(p.LLC)
	b = appendObject(append(b, `,"llc":`...), llcKeys, llc.Accesses, llc.Misses, llc.WideReqs, llc.RespWords, llc.Writebacks)
	dram := c.Dram.sub(p.Dram)
	b = appendObject(append(b, `,"dram":`...), dramKeys, dram.Reads, dram.Writes, dram.Busy)
	n := c.Noc.sub(p.Noc)
	b = appendObject(append(b, `,"noc":`...), nocKeys, n.FlitsReq, n.HopsReq, n.FlitsResp, n.HopsResp,
		n.Retrans, n.Dropped, n.Corrupt, n.RemoteStores)
	e := c.Engine.sub(p.Engine)
	b = appendObject(append(b, `,"engine":`...), engineKeys, e.FastForwards, e.SkippedCycles, e.Checkpoints)
	var missRate, busyFrac float64
	if llc.Accesses > 0 {
		missRate = float64(llc.Misses) / float64(llc.Accesses)
	}
	if span := now - s.prevAt; span > 0 {
		busyFrac = float64(dram.Busy) / float64(span)
	}
	b = appendFloat(append(b, `,"llc_miss_rate":`...), missRate)
	b = appendFloat(append(b, `,"dram_busy_frac":`...), busyFrac)
	b = s.appendLinks(b, `,"links_req":`, c.LinksReq, p.LinksReq)
	b = s.appendLinks(b, `,"links_resp":`, c.LinksResp, p.LinksResp)
	b = strconv.AppendInt(append(b, `,"frames_occupied":`...), g.FramesOccupied, 10)
	b = strconv.AppendInt(append(b, `,"inet_high_water":`...), g.InetHighWater, 10)
	b = append(b, "}\n"...)
	s.line = b
	// Like json.Encoder, stop writing after the first error.
	if s.w != nil && s.err == nil {
		_, s.err = s.w.Write(b)
	}
	// A machine passes its meshes' live link counters: keep copies.
	req, resp := p.LinksReq[:0], p.LinksResp[:0]
	*p = *c
	p.LinksReq = append(req, c.LinksReq...)
	p.LinksResp = append(resp, c.LinksResp...)
	s.prevAt = now
	return b
}

// appendLinks appends one per-link delta object under name, nonzero links
// only; with none, it appends nothing (the field is omitted).
func (s *Sampler) appendLinks(b []byte, name string, cur, prev []int64) []byte {
	mark, sep := len(b), byte('{')
	b = append(b, name...)
	for _, l := range s.links {
		if int(l.i) >= len(cur) {
			continue
		}
		d := cur[l.i]
		if int(l.i) < len(prev) {
			d -= prev[l.i]
		}
		if d != 0 {
			b = append(append(b, sep), s.keys[l.lo:l.hi]...)
			b = strconv.AppendInt(b, d, 10)
			sep = ','
		}
	}
	if sep == '{' {
		return b[:mark]
	}
	return append(b, '}')
}
