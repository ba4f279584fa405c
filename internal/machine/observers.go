package machine

import (
	"fmt"
	"time"

	"rockcress/internal/causal"
	"rockcress/internal/metrics"
	"rockcress/internal/msg"
	"rockcress/internal/sim"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// observers is the observability attachment; all but roleOf is nil on an
// unobserved machine. Embedded in Machine by value, so the per-tick gates
// the fabric keeps inline (TrySend, deliver, BarrierArrive, NotifyHalt) read
// m.rec and m.causal with one load; every other gate is here, behind
// observeBarrier, observeSkip, observe, observeEnd and announce. All of
// it only reads simulated state, so cycle counts are bit-identical with
// observers on or off.
type observers struct {
	rec     *trace.Recorder
	sampler *trace.Sampler
	prof    *sim.Prof
	roleOf  []trace.Role    // tile -> CPI-stack role; always built
	obs     *metrics.Plane  // the plane whose slot this machine holds
	flight  *metrics.Flight // only on the machine that won the plane's slot
	heat    heatmap         // what publish copies into flight
	causal  *causal.Recorder
	// journeys is causal's stamp slab, nil with it; the fabric's request
	// sends and bank deliveries write it.
	journeys *causal.Journeys
	ob       observation // observe's one read, refilled in place
}

// attachObservers wires whatever p asks for onto a built fabric.
func (m *Machine) attachObservers(p Params) {
	m.roleOf = trace.Roles(m.Cfg.Cores, m.Groups)
	if p.Causal {
		// Cores classify their own cycles and the LLC banks stamp response
		// journeys; the rest hangs off the fabric's m.causal gates.
		m.causal = causal.NewRecorder(m.Cfg.Cores)
		m.journeys = m.causal.Journeys()
		for t, c := range m.cores {
			class := causal.ClassScalar
			if r := m.roleOf[t]; r == trace.RoleLane || r == trace.RoleExpander {
				class = causal.ClassVector
			}
			c.SetCausal(m.causal.Tile(t), class)
		}
		for _, b := range m.llcs {
			b.SetCausal(m.journeys)
		}
		// Feeder chain: a lane's instruction stream comes from the group
		// expander, the expander's from the scalar core. Inet waits on the
		// critical tile are redistributed up this chain at interval close.
		for _, g := range m.Groups {
			for _, t := range g.Lanes {
				if t != g.Expander {
					m.causal.SetFeeder(t, g.Expander)
				}
			}
			m.causal.SetFeeder(g.Expander, g.Scalar)
		}
	}
	m.rec, m.sampler = p.Trace.Recorder(), p.Trace.Sampler() // nil from a nil sink
	if m.rec != nil {
		for _, s := range m.spads {
			s.SetRecorder(m.rec)
		}
		// Perfetto track labels.
		for t := range m.cores {
			m.rec.Meta(int64(t), fmt.Sprintf("tile %d (%s)", t, trace.RoleNames[m.roleOf[t]]))
		}
		for b := range m.llcs {
			m.rec.Meta(m.tidLLC(b), fmt.Sprintf("llc bank %d", b))
		}
		m.rec.Meta(m.tidMachine(), "machine")
	}
	if p.Prof != nil {
		m.prof = p.Prof
		m.engine.SetProfile(p.Prof)
	}
	// False on a nil plane, and when another machine of the same sweep
	// already feeds its flight recorder.
	bound := p.Obs.TryBindMachine()
	if bound && m.sampler == nil {
		// The flight ring keeps the slot holder's windows; when the sink
		// cuts none, the machine cuts its own, written nowhere else.
		m.sampler = trace.NewSampler(nil, 0)
	}
	if m.sampler == nil {
		return
	}
	// Both planes share the mesh's shape, so one label set serves the
	// windows and both planes' link series.
	links := m.meshReq.LinkLabels()
	m.sampler.SetLinkLabels(links)
	// Multi-attempt fault runs reuse one sink across machines; the window
	// series restarts from cycle 0 with each new machine.
	m.sampler.Reset()
	if bound {
		m.obs, m.flight = p.Obs, p.Obs.Flight()
		m.heat.bind(m, links)
		m.collect()
		m.publish(m.read())
	}
}

// tidMachine is the trace thread id for machine-level events (barriers,
// checkpoints, fast-forwards): one past the last NoC node id.
func (m *Machine) tidMachine() int64 { return int64(m.space.Nodes()) }

// tidLLC is the trace thread id of LLC bank b (its NoC node id, so core
// tids 0..Cores-1 never collide).
func (m *Machine) tidLLC(bank int) int64 { return int64(m.space.LLCNode(bank)) }

// announce reports one rare event — a fault landing, a recovery step — to
// both sinks from its vocabulary row: the recorder gets the event, the
// flight ring a note named after the row whose detail is the row's pairs.
// vals are the row's values in order, a span kind's duration first.
func (o *observers) announce(k trace.Kind, now, tid int64, vals ...int64) {
	span := trace.Vocabulary[k].Ph == trace.PhSpan
	var dur int64
	if span {
		dur, vals = vals[0], vals[1:]
	}
	if o.rec != nil {
		if span {
			o.rec.Span(k, now, dur, tid, vals...)
		} else {
			o.rec.Instant(k, now, tid, vals...)
		}
	}
	if o.flight != nil {
		var buf [96]byte
		o.flight.Note(now, k.Name(), string(k.AppendDetail(buf[:0], tid, dur, vals)))
	}
}

// observeBarrier runs at the global barrier's release. Releases are the
// causal profiler's interval boundaries: the last-arriving tile's class
// deltas since the previous one are the interval's critical path, read off
// books settled through the previous cycle — every core is parked in the
// barrier here, its wait not yet back-filled.
func (m *Machine) observeBarrier(now int64) {
	if m.causal != nil {
		m.engine.Sync(now)
		m.causal.CloseInterval(now)
	}
	if m.rec != nil {
		m.rec.Instant(trace.EvBarrierRelease, now, m.tidMachine(), m.barrier.gen)
	}
}

// observeSkip records a fast-forward of n cycles from the current one.
func (m *Machine) observeSkip(n int64) {
	if m.rec != nil {
		m.rec.Span(trace.EvFastForward, m.now, n, m.tidMachine())
	}
}

// observation is one read of the counter spine, handed to every consumer
// due at one cycle: fresh totals, their fold (with the meshes' live per-link
// vectors, which the sampler copies), and the gauges. The machine keeps one
// and refills it, so a read costs no allocation.
type observation struct {
	trace.Cum
	trace.Gauges
	st  *stats.Machine
	now int64
}

// observe is the observers' one read of the counters. In the run loop a
// window is due at its boundary and a heatmap publish at watchdog
// checkpoints; on Run's exit (final) both are — the window being the run's
// last — and collect runs even with no consumer, so every exit path leaves
// fresh totals in m.Stats. Either way, consumers due at the same cycle share one collect,
// one Fold and one gauges read.
func (m *Machine) observe(final bool) {
	window := m.sampler != nil && (final || m.sampler.Due(m.now))
	publish := m.obs != nil && (final || m.now%m.checkEvery == 0)
	if !final && !window && !publish {
		return
	}
	m.collect()
	if !window && !publish {
		return
	}
	ob := m.read()
	// The flight ring keeps the very line the JSONL got.
	if window && !final {
		m.flight.Retain(m.sampler.Record(m.now, &ob.Cum, ob.Gauges))
	} else if window {
		if line := m.sampler.Finish(m.now, &ob.Cum, ob.Gauges); line != nil {
			m.flight.Retain(line)
		}
	}
	if publish {
		m.publish(ob)
	}
}

// read fills the machine's observation from totals collect just refreshed.
func (m *Machine) read() *observation {
	ob := &m.ob
	ob.Cum = trace.Fold(m.Stats, m.roleOf)
	ob.LinksReq, ob.LinksResp = m.meshReq.LinkHops(), m.meshResp.LinkHops()
	ob.Gauges = m.gauges()
	ob.st, ob.now = m.Stats, m.now
	return ob
}

// observeEnd runs on every exit path of Run: a failed run's outputs are
// truncation-marked, the final observation feeds the last window (so a
// failed run's windows still sum to its aggregates) and the last heatmap,
// the plane's slot is freed, and a completed run's causal profile is
// finished — after collect's Sync, which puts parked cores' back-filled
// cycles in it.
func (m *Machine) observeEnd(failed bool) {
	if failed {
		if m.rec != nil {
			m.rec.MarkTruncated()
		}
		if m.sampler != nil {
			m.sampler.MarkTruncated()
		}
	}
	m.observe(true)
	m.ReleaseObs()
	if m.causal != nil && !failed {
		m.causal.Finish(m.now)
	}
}

// CausalProfile returns the finished causal profile, or nil when causal
// recording was not enabled for this run.
func (m *Machine) CausalProfile() *causal.Profile {
	if m.causal == nil {
		return nil
	}
	return m.causal.Profile()
}

// causalArrive ends a delivered response's journey: when the flit
// unblocked the tile (book), it books the journey's stamps into the
// destination tile's recorder (the floor is manhattan distance x hop
// latency); either way it frees the journey's slab entry.
func (m *Machine) causalArrive(node int, f *msg.Message, book bool) {
	s := m.journeys.At(f.Journey)
	if s == nil {
		return
	}
	if book {
		w, src := m.Cfg.MeshWidth, int(f.Src)
		dx, dy := src%w-node%w, src/w-node/w
		hops := max(dx, -dx) + max(dy, -dy)
		if j, ok := causal.JourneyOf(s, m.now, int64(hops*max(m.Cfg.RouterHopLat, 1))); ok {
			m.causal.Tile(node).Arrive(m.now, j)
		}
	}
	m.journeys.Free(f.Journey)
}

// gauges reads the point-in-time values for the current window's end.
func (m *Machine) gauges() trace.Gauges {
	var g trace.Gauges
	for t, s := range m.spads {
		g.FramesOccupied += int64(s.FullFrames())
		if hw := int64(m.cores[t].InetHighWater()); hw > g.InetHighWater {
			g.InetHighWater = hw
		}
	}
	return g
}

// stepOrSkip is one iteration of the run loop: jump when the engine says
// every shard is parked, step otherwise. With a profile attached it also
// meters the ask (Ns covers every fastForward call, Ticks counts the jumps
// taken; stage time is metered inside the engine).
func (m *Machine) stepOrSkip(limit int64) {
	if m.prof == nil {
		if !m.fastForward(limit) {
			m.Step()
		}
		return
	}
	t0 := time.Now()
	skipped := m.fastForward(limit)
	m.prof.FastForward.Ns += int64(time.Since(t0))
	if skipped {
		m.prof.FastForward.Ticks++
	} else {
		m.Step()
	}
}

// heatmap is the bound machine's copy of its flight-recorder heatmap. Its
// tile rows are sized at bind and its link rows never outnumber the mesh's
// links, so refilling it allocates nothing.
type heatmap struct {
	metrics.MachineSnap
	links []string // a link's label by its index in the hop vectors
}

// bind sizes the heatmap for m, whose links carry the given labels.
func (h *heatmap) bind(m *Machine, links []string) {
	h.MeshW, h.MeshH, h.links = m.Cfg.MeshWidth, m.Cfg.MeshHeight, links
	h.Tiles = make([]metrics.TileSnap, m.Cfg.Cores)
	for t := range h.Tiles {
		h.Tiles[t] = metrics.TileSnap{Tile: t, Role: trace.RoleNames[m.roleOf[t]]}
	}
	h.Links = make([]metrics.LinkSnap, 0, 2*len(links))
}

// publish refills the heatmap from one observation — per-tile issue and
// stall counts off stats.Core, the hops of every link that carried one,
// the gauges — and copies it into the flight recorder. Runs on the run
// loop and allocates nothing.
func (m *Machine) publish(ob *observation) {
	h := &m.heat
	h.Cycle, h.FramesOccupied, h.InetHighWater = ob.now, ob.FramesOccupied, ob.InetHighWater
	for t := range h.Tiles {
		c, r := &ob.st.Cores[t], &h.Tiles[t]
		r.Issued, r.Instrs = c.Issued(), c.Instrs
		r.Frame, r.Inet = c.Stall(stats.StallFrame), c.Stall(stats.StallInet)
		r.Backpressure, r.Other = c.Stall(stats.StallBackpressure), c.Stall(stats.StallOther)
	}
	h.Links = h.Links[:0]
	for _, pl := range [...]struct {
		name string
		hops []int64
	}{{"req", ob.LinksReq}, {"resp", ob.LinksResp}} {
		for i, n := range pl.hops {
			if n > 0 && h.links[i] != "" { // an edge direction never moves
				h.Links = append(h.Links, metrics.LinkSnap{Plane: pl.name, Link: h.links[i], Hops: n})
			}
		}
	}
	m.flight.SetMachine(&h.MachineSnap)
}

// ReleaseObs frees the plane's machine slot, as Run's exit path does. The
// flight recorder keeps the last heatmap until the next machine binds.
func (m *Machine) ReleaseObs() {
	if m.obs == nil {
		return
	}
	m.obs.ReleaseMachine()
	m.obs = nil
}

// ObsBound reports whether this machine holds the plane's machine slot (tests).
func (m *Machine) ObsBound() bool { return m.obs != nil }
