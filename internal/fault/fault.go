// Package fault is the deterministic fault-injection layer: a seeded,
// schedule-driven injector the machine consults each cycle. A Plan is an
// immutable schedule of events (kill a tile, drop/corrupt NoC flits on a
// link, stick an inet queue, flip a scratchpad word); an Injector binds one
// Plan to one machine run, so restarting a run on a degraded fabric starts
// from fresh RNG state and the simulation stays bit-reproducible.
//
// The machine treats a nil Plan as zero-cost: no injector is created, no
// link judge is installed, and the fault-free cycle loop is untouched.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind discriminates fault events.
type Kind uint8

const (
	// KillTile powers tile T off at cycle C: the core stops, its
	// scratchpad is decommissioned, and any vector group containing the
	// tile is broken (survivors fall back to the program's recovery path).
	KillTile Kind = iota
	// DropFlit loses NoC flits crossing link From->To with probability
	// Prob during [Cycle, Until). The per-link retry protocol repairs the
	// loss (bounded retransmit with backoff).
	DropFlit
	// CorruptFlit damages flits in transit with probability Prob; the
	// receiver's CRC detects the damage and the link retransmits, so a
	// corrupt flit costs latency but never propagates bad data.
	CorruptFlit
	// StickInetQueue freezes tile T's inet input queue for Duration
	// cycles starting at Cycle (a transient forwarding-fabric hang).
	StickInetQueue
	// FlipSpadWord flips bit Bit of the scratchpad word at byte offset
	// Offset on tile T at cycle C: silent data corruption, detected only
	// by the harness's reference check.
	FlipSpadWord
	// PanicTile makes tile T's core panic on its next tick at or after
	// cycle C — a simulated software defect, not a hardware fault. The
	// panic fires inside the engine's core stage, so it exercises the
	// crash-containment path end to end (the run loop's recover, stack
	// preservation, RunError attribution); the chaos-soak harness is its
	// main consumer.
	PanicTile
	// CutLink permanently severs the physical mesh link between adjacent
	// routers From and To at cycle C (both directions — a cut wire has no
	// good side). The NoC recomputes a deadlock-free route table around
	// the gap and re-injects in-flight flits; a cut that partitions the
	// mesh fails structured instead of hanging. Plane selects req, resp,
	// or both planes (default both).
	CutLink
	// KillRouter powers router T off at cycle C: all four of its mesh
	// links are cut on both planes, its attached core dies (as KillTile),
	// and any LLC bank attached to it fails over to the survivors.
	KillRouter
	// KillBank decommissions LLC bank B at cycle C: dirty lines flush to
	// global memory, queued work drains back into the network, and the
	// bank's address slice remaps to the surviving banks (reduced LLC
	// capacity, not data loss). Killing the last live bank is fatal.
	KillBank
	// DramDegrade multiplies DRAM access latency by Factor during
	// [Cycle, Until) — a thermally throttled or half-dead memory channel.
	// Until 0 means the degradation is permanent.
	DramDegrade
	numKinds // sentinel
)

// String is the verb's DSL name.
func (k Kind) String() string {
	if k < numKinds {
		return verbs[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Plane selects which physical mesh plane a link fault applies to.
type Plane uint8

const (
	PlaneBoth Plane = iota
	PlaneReq
	PlaneResp
)

func (p Plane) String() string {
	switch p {
	case PlaneReq:
		return "req"
	case PlaneResp:
		return "resp"
	}
	return "both"
}

// Event is one scheduled fault.
type Event struct {
	Kind  Kind
	Cycle int64 // activation cycle (window start for windowed verbs)
	Until int64 // window end, exclusive; 0 = open-ended (windowed verbs only)

	Tile     int     // KillTile, StickInetQueue, FlipSpadWord, KillRouter
	From, To int     // link endpoints (mesh-adjacent tiles) for link faults
	Plane    Plane   // which mesh plane a link fault hits
	Prob     float64 // per-traversal drop/corrupt probability
	Duration int64   // StickInetQueue: cycles the queue stays frozen
	Offset   uint32  // FlipSpadWord: byte offset
	Bit      uint8   // FlipSpadWord: bit index (0..31)
	Bank     int     // KillBank: LLC bank index
	Factor   float64 // DramDegrade: latency multiplier (>= 1)
}

// String writes e in the DSL Parse reads, every operand present (the plane
// too), so Parse(e.String()) gives e back.
func (e Event) String() string {
	if e.Kind >= numKinds {
		return e.Kind.String()
	}
	v := &verbs[e.Kind]
	b := fmt.Appendf(nil, "%s@%d", v.name, e.Cycle)
	if v.form == window && e.Until > 0 {
		b = fmt.Appendf(b, "-%d", e.Until)
	}
	for _, o := range v.operands {
		b = o.appendTo(append(b, ':'), &e)
	}
	return string(b)
}

// Plan is an immutable fault schedule plus the seed for its probabilistic
// events. The zero seed is valid (and deterministic).
type Plan struct {
	Seed   uint64
	Events []Event
}

// Validate range-checks every event's fields against a fabric of the given
// size. It only knows the core count; ValidateGeometry adds the mesh- and
// bank-shape checks.
func (p *Plan) Validate(cores int) error { return p.validate(Geometry{Cores: cores}) }

// Geometry describes the fabric shape the topology verbs are validated
// against: the core count, the mesh dimensions (routers are tile ids in a
// MeshW x MeshH grid), and the LLC bank count.
type Geometry struct {
	Cores, MeshW, MeshH, Banks int
}

// ValidateGeometry runs Validate plus the shape checks only the machine can
// make: every link (cut, drop or corrupt) must join mesh-adjacent routers,
// bank kills must name a real bank, and routers must sit inside the mesh.
// Every event passes Validate before any is held to the shape.
func (p *Plan) ValidateGeometry(g Geometry) error {
	if err := p.Validate(g.Cores); err != nil {
		return err
	}
	return p.validate(g)
}

// validate returns the first event's first problem in fabric g (see
// Event.problem); it allocates nothing on success.
func (p *Plan) validate(g Geometry) error {
	for i := range p.Events {
		e := &p.Events[i]
		if e.Kind >= numKinds {
			return fmt.Errorf("fault: event %d: unknown kind %d", i, e.Kind)
		}
		if msg := e.problem(g); msg != "" {
			return fmt.Errorf("fault: event %d (%s): %s", i, e, msg)
		}
	}
	return nil
}

// Without returns a copy of the plan with the events at the given indices
// removed (the harness strips events that already fired before restarting a
// run on the degraded fabric).
func (p *Plan) Without(fired []int) *Plan {
	drop := make(map[int]bool, len(fired))
	for _, i := range fired {
		drop[i] = true
	}
	out := &Plan{Seed: p.Seed}
	for i, e := range p.Events {
		if !drop[i] {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

func (p *Plan) String() string {
	parts := make([]string, 0, len(p.Events)+1)
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	for _, e := range p.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, ";")
}

// KillPlan builds a plan that kills n distinct pseudo-randomly chosen tiles
// at staggered cycles (start, start+stride, ...). The seed fixes the victim
// set, so the same plan hits the same tiles under every configuration — the
// degradation-curve experiments compare like against like.
func KillPlan(seed uint64, n, cores int, start, stride int64) *Plan {
	if n > cores {
		n = cores
	}
	r := rng{state: seed}
	p := &Plan{Seed: seed}
	seen := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		t := int(r.next() % uint64(cores))
		for seen[t] {
			t = (t + 1) % cores
		}
		seen[t] = true
		p.Events = append(p.Events, Event{Kind: KillTile, Cycle: start + int64(i)*stride, Tile: t})
	}
	return p
}

// LinkPlan builds a plan that permanently cuts n distinct pseudo-randomly
// chosen mesh links (both planes) at staggered cycles (start, start+stride,
// ...). Links are drawn from the full undirected edge set of a w x h mesh —
// h*(w-1) horizontal plus w*(h-1) vertical — with collisions resolved by
// linear probe, mirroring KillPlan so the same seed cuts the same wires
// under every configuration.
func LinkPlan(seed uint64, n, w, h int, start, stride int64) *Plan {
	edges := h*(w-1) + w*(h-1)
	if n > edges {
		n = edges
	}
	r := rng{state: seed}
	p := &Plan{Seed: seed}
	seen := make(map[int]bool, n)
	horiz := h * (w - 1)
	for i := 0; i < n; i++ {
		idx := int(r.next() % uint64(edges))
		for seen[idx] {
			idx = (idx + 1) % edges
		}
		seen[idx] = true
		var a, b int
		if idx < horiz {
			row, col := idx/(w-1), idx%(w-1)
			a = row*w + col
			b = a + 1
		} else {
			v := idx - horiz
			row, col := v/w, v%w
			a = row*w + col
			b = a + w
		}
		p.Events = append(p.Events, Event{Kind: CutLink, Cycle: start + int64(i)*stride, From: a, To: b})
	}
	return p
}

// BankPlan builds a plan that decommissions n distinct pseudo-randomly
// chosen LLC banks at staggered cycles (start, start+stride, ...), capped
// at banks-1 so at least one bank survives (killing the last bank is a
// fatal, not degraded, condition).
func BankPlan(seed uint64, n, banks int, start, stride int64) *Plan {
	if n > banks-1 {
		n = banks - 1
	}
	r := rng{state: seed}
	p := &Plan{Seed: seed}
	if n <= 0 {
		return p
	}
	seen := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		b := int(r.next() % uint64(banks))
		for seen[b] {
			b = (b + 1) % banks
		}
		seen[b] = true
		p.Events = append(p.Events, Event{Kind: KillBank, Cycle: start + int64(i)*stride, Bank: b})
	}
	return p
}

// Merge returns a new plan holding a's events followed by b's, keeping a's
// seed (campaign helpers compose: LinkPlan + BankPlan = one schedule).
func Merge(a, b *Plan) *Plan {
	out := &Plan{Seed: a.Seed}
	out.Events = append(out.Events, a.Events...)
	out.Events = append(out.Events, b.Events...)
	return out
}

// rng is splitmix64: tiny, seedable, and self-contained so fault schedules
// never depend on the Go runtime's RNG (determinism guard).
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0,1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// Verdict is a link judge's decision for one flit traversal.
type Verdict uint8

const (
	VerdictOK Verdict = iota
	VerdictDrop
	VerdictCorrupt
)

// Injector binds a Plan to one machine run: it owns the RNG stream, the
// discrete-event cursor, and the fired set. Create a fresh Injector per
// machine so restarts replay deterministically.
type Injector struct {
	plan  *Plan
	rng   rng
	disc  []int // indices of discrete events, sorted by (cycle, index)
	cur   int   // cursor into disc
	links []int // indices of link events
	fired []bool
	taken []Event // backs TakeDiscrete's return value, one slot per discrete event
}

// NewInjector prepares a plan for one run.
func NewInjector(p *Plan) *Injector {
	inj := &Injector{plan: p, rng: rng{state: p.Seed}, fired: make([]bool, len(p.Events))}
	for i, e := range p.Events {
		if e.Kind.perFlit() {
			inj.links = append(inj.links, i)
		} else {
			inj.disc = append(inj.disc, i)
		}
	}
	sort.SliceStable(inj.disc, func(a, b int) bool {
		return p.Events[inj.disc[a]].Cycle < p.Events[inj.disc[b]].Cycle
	})
	inj.taken = make([]Event, 0, len(inj.disc))
	return inj
}

// NextDiscrete returns the cycle of the next pending discrete event, or
// math.MaxInt64 when none remain. The machine compares this against the
// clock before doing any per-cycle fault work.
func (inj *Injector) NextDiscrete() int64 {
	if inj.cur >= len(inj.disc) {
		return math.MaxInt64
	}
	return inj.plan.Events[inj.disc[inj.cur]].Cycle
}

// TakeDiscrete pops every discrete event scheduled at or before now,
// marking each fired. The returned slice is the injector's, valid until the
// next call; popping allocates nothing.
func (inj *Injector) TakeDiscrete(now int64) []Event {
	out := inj.taken[:0]
	for inj.cur < len(inj.disc) && inj.plan.Events[inj.disc[inj.cur]].Cycle <= now {
		idx := inj.disc[inj.cur]
		inj.fired[idx] = true
		out = append(out, inj.plan.Events[idx])
		inj.cur++
	}
	return out
}

// HasLinkFaults reports whether the bound plan has link events.
func (inj *Injector) HasLinkFaults() bool { return len(inj.links) > 0 }

// Judge returns the verdict for one flit crossing link from->to on the
// given plane at cycle now. The RNG draw order follows the mesh's
// deterministic traversal order, so verdicts are reproducible.
func (inj *Injector) Judge(plane Plane, now int64, from, to int) Verdict {
	for _, idx := range inj.links {
		e := &inj.plan.Events[idx]
		if e.From != from || e.To != to {
			continue
		}
		if e.Plane != PlaneBoth && e.Plane != plane {
			continue
		}
		if now < e.Cycle || (e.Until != 0 && now >= e.Until) {
			continue
		}
		if inj.rng.float64() >= e.Prob {
			continue
		}
		inj.fired[idx] = true
		if e.Kind == CorruptFlit {
			return VerdictCorrupt
		}
		return VerdictDrop
	}
	return VerdictOK
}

// Fired returns the indices (into the plan's event list) of events that
// triggered at least once during the run.
func (inj *Injector) Fired() []int {
	var out []int
	for i, f := range inj.fired {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// Report is the fault layer's record of one machine run: what died, what
// broke and which plan events fired — the events stats.Machine cannot count.
// Every fault counter (flips, retransmissions, frame replays, checkpoints,
// reroutes, failovers) lives in the stats spine alone.
type Report struct {
	DeadTiles    []int // tiles killed, in kill order
	BrokenGroups []int // vector groups broken by a dead member
	Fired        []int // plan event indices that fired
	StuckQueues  int   // inet queues frozen

	// Frame replays abandoned to the group-break escalation path.
	ReplayEscalations int64

	// Permanent topology loss: links cut ("a>b"), routers and LLC banks
	// powered off, in the order the events landed.
	CutLinks    []string
	DeadRouters []int
	DeadBanks   []int
}

// Degraded reports whether the fabric lost capacity during the run.
func (r *Report) Degraded() bool {
	return r != nil && (len(r.DeadTiles) > 0 || len(r.CutLinks) > 0 ||
		len(r.DeadRouters) > 0 || len(r.DeadBanks) > 0)
}

func (r *Report) String() string {
	if r == nil {
		return "no faults"
	}
	s := fmt.Sprintf("dead=%v brokenGroups=%v stuck=%d", r.DeadTiles, r.BrokenGroups, r.StuckQueues)
	if r.ReplayEscalations > 0 {
		s += fmt.Sprintf(" escalations=%d", r.ReplayEscalations)
	}
	if len(r.CutLinks) > 0 || len(r.DeadRouters) > 0 {
		s += fmt.Sprintf(" cutLinks=%v deadRouters=%v", r.CutLinks, r.DeadRouters)
	}
	if len(r.DeadBanks) > 0 {
		s += fmt.Sprintf(" deadBanks=%v", r.DeadBanks)
	}
	return s
}
