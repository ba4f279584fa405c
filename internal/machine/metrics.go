package machine

import (
	"strconv"

	"rockcress/internal/metrics"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// Live-metrics glue. A machine built with Params.Obs binds to the plane at
// construction (attachObservers): every series is registered once here (the
// only allocation), and publish — called from the run loop at
// watchdog-checkpoint granularity and on every exit path — stores absolute
// counter values into the pre-registered atomic cells. HTTP scrapes, on the
// listener's goroutines, read only those cells, so a mid-run scrape is
// race-free and can never perturb simulated state: cycle counts are
// bit-identical with the plane on or off.
//
// Counters are published as absolute totals (monotone because the underlying
// simulator counters are); Prometheus rate() works on them exactly as if
// they were incremented in place.

// obsPub holds the pre-registered cells, laid out so the publish sweep is
// pure slice iteration plus atomic stores — no maps, no strings, no heap.
type obsPub struct {
	plane *metrics.Plane

	// Per tile, parallel to m.Stats.Cores.
	tileIssued []*metrics.Cell
	tileStall  []*metrics.Cell // tile*4 + (frame, inet, backpressure, other)
	tileInstrs []*metrics.Cell

	// Aggregate frame/recovery events (summed over tiles at publish).
	frames [5]*metrics.Cell // consumed, poisons, replays, retries, stale_drops

	// Per LLC bank, parallel to m.Stats.LLCs.
	llcAccesses   []*metrics.Cell
	llcMisses     []*metrics.Cell
	llcWideReqs   []*metrics.Cell
	llcRespWords  []*metrics.Cell
	llcWritebacks []*metrics.Cell

	dramReads, dramWrites, dramBusy *metrics.Cell

	// Per mesh plane (0 = req, 1 = resp).
	nocFlits [2]*metrics.Cell
	nocHops  [2]*metrics.Cell
	// Per directed link, parallel to Mesh.LinkHops() (nil at edge indexes
	// whose label is empty — those counters never increment).
	linkHops [2][]*metrics.Cell

	nocRetrans, nocDropped, nocCorrupt, remoteStores *metrics.Cell

	engineFF, engineSkipped, checkpoints *metrics.Cell

	framesOccupied, inetHighWater, cycle *metrics.Cell

	// Static context for the /debug/machine snapshot provider.
	roles      []string
	linkLabels [2][]string
	meshW      int
	meshH      int
}

var stallKinds = [4]stats.StallKind{
	stats.StallFrame, stats.StallInet, stats.StallBackpressure, stats.StallOther,
}

var stallKindNames = [4]string{"frame", "inet", "backpressure", "other"}

var planeNames = [2]string{"req", "resp"}

// newObsPub registers every series the machine publishes. Registration is
// get-or-create, so a fault ladder's second attempt reuses the first
// attempt's cells and the series stay continuous across attempts.
func newObsPub(p *metrics.Plane, m *Machine) *obsPub {
	r := p.Registry()
	o := &obsPub{
		plane:      p,
		tileIssued: make([]*metrics.Cell, m.Cfg.Cores),
		tileStall:  make([]*metrics.Cell, m.Cfg.Cores*4),
		tileInstrs: make([]*metrics.Cell, m.Cfg.Cores),
		roles:      make([]string, m.Cfg.Cores),
		meshW:      m.Cfg.MeshWidth,
		meshH:      m.Cfg.MeshHeight,
	}
	for t := 0; t < m.Cfg.Cores; t++ {
		tile := strconv.Itoa(t)
		role := trace.RoleNames[m.roleOf[t]]
		o.roles[t] = role
		o.tileIssued[t] = r.Counter("rockcress_tile_issued_cycles",
			"Cycles in which the tile issued an instruction.",
			metrics.L("tile", tile), metrics.L("role", role))
		for k, kind := range stallKindNames {
			o.tileStall[t*4+k] = r.Counter("rockcress_tile_stall_cycles",
				"Cycles the tile could not issue, by CPI-stack stall kind.",
				metrics.L("tile", tile), metrics.L("role", role), metrics.L("kind", kind))
		}
		o.tileInstrs[t] = r.Counter("rockcress_tile_instrs",
			"Instructions committed by the tile.",
			metrics.L("tile", tile), metrics.L("role", role))
	}
	frameEvents := [5]string{"consumed", "poisons", "replays", "retries", "stale_drops"}
	for i, ev := range frameEvents {
		o.frames[i] = r.Counter("rockcress_frame_events",
			"Frame-window and recovery-ladder events summed over all tiles.",
			metrics.L("event", ev))
	}
	nBanks := len(m.Stats.LLCs)
	o.llcAccesses = make([]*metrics.Cell, nBanks)
	o.llcMisses = make([]*metrics.Cell, nBanks)
	o.llcWideReqs = make([]*metrics.Cell, nBanks)
	o.llcRespWords = make([]*metrics.Cell, nBanks)
	o.llcWritebacks = make([]*metrics.Cell, nBanks)
	for b := 0; b < nBanks; b++ {
		bank := metrics.L("bank", strconv.Itoa(b))
		o.llcAccesses[b] = r.Counter("rockcress_llc_accesses", "LLC bank accesses.", bank)
		o.llcMisses[b] = r.Counter("rockcress_llc_misses", "LLC bank misses.", bank)
		o.llcWideReqs[b] = r.Counter("rockcress_llc_wide_reqs", "Vload requests served by the bank.", bank)
		o.llcRespWords[b] = r.Counter("rockcress_llc_resp_words", "Word responses generated by the bank.", bank)
		o.llcWritebacks[b] = r.Counter("rockcress_llc_writebacks", "Dirty lines written back by the bank.", bank)
	}
	o.dramReads = r.Counter("rockcress_dram_reads", "Lines read from DRAM.")
	o.dramWrites = r.Counter("rockcress_dram_writes", "Lines written to DRAM.")
	o.dramBusy = r.Counter("rockcress_dram_busy_cycles", "Cycles the DRAM channel was occupied.")
	labels := [2][]string{m.meshReq.LinkLabels(), m.meshResp.LinkLabels()}
	for pl := 0; pl < 2; pl++ {
		plane := metrics.L("plane", planeNames[pl])
		o.nocFlits[pl] = r.Counter("rockcress_noc_flits", "Flits injected, by mesh plane.", plane)
		o.nocHops[pl] = r.Counter("rockcress_noc_hops", "Link traversals, by mesh plane.", plane)
		o.linkHops[pl] = make([]*metrics.Cell, len(labels[pl]))
		o.linkLabels[pl] = labels[pl]
		for i, lbl := range labels[pl] {
			if lbl == "" {
				continue
			}
			o.linkHops[pl][i] = r.Counter("rockcress_noc_link_hops",
				"Traversals of one directed mesh link (from>to router ids).",
				plane, metrics.L("link", lbl))
		}
	}
	o.nocRetrans = r.Counter("rockcress_noc_retransmits", "Link retry-protocol retransmissions, both planes.")
	o.nocDropped = r.Counter("rockcress_noc_dropped_flits", "Flits lost in transit and retransmitted, both planes.")
	o.nocCorrupt = r.Counter("rockcress_noc_corrupt_flits", "Flits CRC-rejected and retransmitted, both planes.")
	o.remoteStores = r.Counter("rockcress_remote_stores", "Scratchpad stores delivered over the response plane.")
	o.engineFF = r.Counter("rockcress_engine_fast_forwards", "Idle fast-forward skips taken.")
	o.engineSkipped = r.Counter("rockcress_engine_skipped_cycles", "Simulated cycles covered by fast-forwards.")
	o.checkpoints = r.Counter("rockcress_checkpoints", "Consistent global-memory snapshots published.")
	o.framesOccupied = r.Gauge("rockcress_frames_occupied",
		"Completely filled, not-yet-consumed frames across every scratchpad.")
	o.inetHighWater = r.Gauge("rockcress_inet_high_water",
		"Deepest any inet input queue has ever been this run.")
	o.cycle = r.Gauge("rockcress_machine_cycle", "Current simulated cycle of the bound machine.")
	return o
}

// publish stores the counter spine into the cells: fresh totals (collect),
// the per-tile and per-bank series straight from m.Stats, the aggregate
// series from the same fold the sampler and report.json read, and the
// per-link vectors the meshes own. Runs on the run loop and allocates
// nothing.
func (o *obsPub) publish(m *Machine) {
	m.collect()
	for t := range m.Stats.Cores {
		sc := &m.Stats.Cores[t]
		o.tileIssued[t].Store(sc.Issued())
		for k, kind := range stallKinds {
			o.tileStall[t*4+k].Store(sc.Stall(kind))
		}
		o.tileInstrs[t].Store(sc.Instrs)
	}
	for b := range m.Stats.LLCs {
		l := &m.Stats.LLCs[b]
		o.llcAccesses[b].Store(l.Accesses)
		o.llcMisses[b].Store(l.Misses)
		o.llcWideReqs[b].Store(l.WideReqs)
		o.llcRespWords[b].Store(l.RespWords)
		o.llcWritebacks[b].Store(l.Writebacks)
	}
	c := trace.Fold(m.Stats, m.roleOf)
	o.frames[0].Store(c.Frames.Consumed)
	o.frames[1].Store(c.Frames.Poisons)
	o.frames[2].Store(c.Frames.Replays)
	o.frames[3].Store(c.Frames.Retries)
	o.frames[4].Store(c.Frames.StaleDrops)
	o.dramReads.Store(c.Dram.Reads)
	o.dramWrites.Store(c.Dram.Writes)
	o.dramBusy.Store(c.Dram.Busy)
	o.nocFlits[0].Store(c.Noc.FlitsReq)
	o.nocHops[0].Store(c.Noc.HopsReq)
	o.nocFlits[1].Store(c.Noc.FlitsResp)
	o.nocHops[1].Store(c.Noc.HopsResp)
	publishLinks(o.linkHops[0], m.meshReq.LinkHops())
	publishLinks(o.linkHops[1], m.meshResp.LinkHops())
	o.nocRetrans.Store(c.Noc.Retrans)
	o.nocDropped.Store(c.Noc.Dropped)
	o.nocCorrupt.Store(c.Noc.Corrupt)
	o.remoteStores.Store(c.Noc.RemoteStores)
	o.engineFF.Store(c.Engine.FastForwards)
	o.engineSkipped.Store(c.Engine.SkippedCycles)
	o.checkpoints.Store(c.Engine.Checkpoints)
	g := m.gauges()
	o.framesOccupied.Store(g.FramesOccupied)
	o.inetHighWater.Store(g.InetHighWater)
	o.cycle.Store(m.now)
}

func publishLinks(cells []*metrics.Cell, hops []int64) {
	for i, c := range cells {
		if c != nil && i < len(hops) {
			c.Store(hops[i])
		}
	}
}

// snapshot builds the /debug/machine heatmap from published cells only, so
// it is safe from any goroutine at any time (including while the machine is
// mid-cycle on another goroutine).
func (o *obsPub) snapshot() *metrics.MachineSnap {
	s := &metrics.MachineSnap{
		Cycle: o.cycle.Load(),
		MeshW: o.meshW,
		MeshH: o.meshH,
		Tiles: make([]metrics.TileSnap, len(o.tileIssued)),
	}
	for t := range s.Tiles {
		s.Tiles[t] = metrics.TileSnap{
			Tile:         t,
			Role:         o.roles[t],
			Issued:       o.tileIssued[t].Load(),
			Frame:        o.tileStall[t*4].Load(),
			Inet:         o.tileStall[t*4+1].Load(),
			Backpressure: o.tileStall[t*4+2].Load(),
			Other:        o.tileStall[t*4+3].Load(),
			Instrs:       o.tileInstrs[t].Load(),
		}
	}
	for pl := 0; pl < 2; pl++ {
		for i, c := range o.linkHops[pl] {
			if c == nil {
				continue
			}
			if h := c.Load(); h > 0 {
				s.Links = append(s.Links, metrics.LinkSnap{
					Plane: planeNames[pl], Link: o.linkLabels[pl][i], Hops: h,
				})
			}
		}
	}
	s.FramesOccupied = o.framesOccupied.Load()
	s.InetHighWater = o.inetHighWater.Load()
	return s
}
