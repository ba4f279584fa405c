package machine

import (
	"strconv"

	"rockcress/internal/metrics"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// Live-metrics glue. A machine built with Params.Obs binds to the plane at
// construction (attachObservers): every series is registered once here (the
// only allocation), and publish — handed observe's one read of the counters
// at watchdog-checkpoint granularity and on every exit path — stores
// absolute counter values into the pre-registered atomic cells. HTTP
// scrapes, on the listener's goroutines, read only those cells, so a mid-run
// scrape is race-free and can never perturb simulated state: cycle counts
// are bit-identical with the plane on or off.
//
// Counters are published as absolute totals (monotone because the underlying
// simulator counters are); Prometheus rate() works on them exactly as if
// they were incremented in place.

// A tileRow is one per-tile series family, read off the tile's stats.Core
// and labelled with the tile, its role and, for a stall row, the kind.
type tileRow struct {
	name, help, kind string
	read             func(*stats.Core) int64
}

// tileRows are registered tile by tile, in TileSnap's column order (the
// /debug/machine heatmap reads a tile's cells by position).
var tileRows = [...]tileRow{
	{"rockcress_tile_issued_cycles", "Cycles in which the tile issued an instruction.", "", (*stats.Core).Issued},
	stallRow("frame", stats.StallFrame),
	stallRow("inet", stats.StallInet),
	stallRow("backpressure", stats.StallBackpressure),
	stallRow("other", stats.StallOther),
	{"rockcress_tile_instrs", "Instructions committed by the tile.", "", func(c *stats.Core) int64 { return c.Instrs }},
}

func stallRow(kind string, k stats.StallKind) tileRow {
	return tileRow{"rockcress_tile_stall_cycles", "Cycles the tile could not issue, by CPI-stack stall kind.",
		kind, func(c *stats.Core) int64 { return c.Stall(k) }}
}

// A row is one series family after the tiles'. Its reader says what it
// fans out over: bank gives one series per LLC bank (labelled bank), links
// one per directed link of that plane's vector (labelled link, after the
// row's plane label), read one machine-wide series off the observation. A
// row with heat is a gauge the /debug/machine snapshot also carries.
type row struct {
	name, help string
	label      metrics.Label // fixed label; zero for none
	bank       func(*stats.LLC) int64
	links      func(*observation) []int64
	read       func(*observation) int64
	heat       func(*metrics.MachineSnap) *int64
}

// rows are in registration order, which is the exposition's.
var rows = []row{
	frameRow("consumed", func(o *observation) int64 { return o.Frames.Consumed }),
	frameRow("poisons", func(o *observation) int64 { return o.Frames.Poisons }),
	frameRow("replays", func(o *observation) int64 { return o.Frames.Replays }),
	frameRow("retries", func(o *observation) int64 { return o.Frames.Retries }),
	frameRow("stale_drops", func(o *observation) int64 { return o.Frames.StaleDrops }),
	{name: "rockcress_llc_accesses", help: "LLC bank accesses.", bank: func(l *stats.LLC) int64 { return l.Accesses }},
	{name: "rockcress_llc_misses", help: "LLC bank misses.", bank: func(l *stats.LLC) int64 { return l.Misses }},
	{name: "rockcress_llc_wide_reqs", help: "Vload requests served by the bank.", bank: func(l *stats.LLC) int64 { return l.WideReqs }},
	{name: "rockcress_llc_resp_words", help: "Word responses generated by the bank.", bank: func(l *stats.LLC) int64 { return l.RespWords }},
	{name: "rockcress_llc_writebacks", help: "Dirty lines written back by the bank.", bank: func(l *stats.LLC) int64 { return l.Writebacks }},
	{name: "rockcress_dram_reads", help: "Lines read from DRAM.", read: func(o *observation) int64 { return o.Dram.Reads }},
	{name: "rockcress_dram_writes", help: "Lines written to DRAM.", read: func(o *observation) int64 { return o.Dram.Writes }},
	{name: "rockcress_dram_busy_cycles", help: "Cycles the DRAM channel was occupied.", read: func(o *observation) int64 { return o.Dram.Busy }},
	nocRow("rockcress_noc_flits", "Flits injected, by mesh plane.", "req", func(o *observation) int64 { return o.Noc.FlitsReq }),
	nocRow("rockcress_noc_hops", "Link traversals, by mesh plane.", "req", func(o *observation) int64 { return o.Noc.HopsReq }),
	linkRow("req", func(o *observation) []int64 { return o.LinksReq }),
	nocRow("rockcress_noc_flits", "Flits injected, by mesh plane.", "resp", func(o *observation) int64 { return o.Noc.FlitsResp }),
	nocRow("rockcress_noc_hops", "Link traversals, by mesh plane.", "resp", func(o *observation) int64 { return o.Noc.HopsResp }),
	linkRow("resp", func(o *observation) []int64 { return o.LinksResp }),
	{name: "rockcress_noc_retransmits", help: "Link retry-protocol retransmissions, both planes.", read: func(o *observation) int64 { return o.Noc.Retrans }},
	{name: "rockcress_noc_dropped_flits", help: "Flits lost in transit and retransmitted, both planes.", read: func(o *observation) int64 { return o.Noc.Dropped }},
	{name: "rockcress_noc_corrupt_flits", help: "Flits CRC-rejected and retransmitted, both planes.", read: func(o *observation) int64 { return o.Noc.Corrupt }},
	{name: "rockcress_remote_stores", help: "Scratchpad stores delivered over the response plane.", read: func(o *observation) int64 { return o.Noc.RemoteStores }},
	{name: "rockcress_engine_fast_forwards", help: "Idle fast-forward skips taken.", read: func(o *observation) int64 { return o.Engine.FastForwards }},
	{name: "rockcress_engine_skipped_cycles", help: "Simulated cycles covered by fast-forwards.", read: func(o *observation) int64 { return o.Engine.SkippedCycles }},
	{name: "rockcress_checkpoints", help: "Consistent global-memory snapshots published.", read: func(o *observation) int64 { return o.Engine.Checkpoints }},
	{name: "rockcress_frames_occupied", help: "Completely filled, not-yet-consumed frames across every scratchpad.",
		read: func(o *observation) int64 { return o.FramesOccupied }, heat: func(s *metrics.MachineSnap) *int64 { return &s.FramesOccupied }},
	{name: "rockcress_inet_high_water", help: "Deepest any inet input queue has ever been this run.",
		read: func(o *observation) int64 { return o.InetHighWater }, heat: func(s *metrics.MachineSnap) *int64 { return &s.InetHighWater }},
	{name: "rockcress_machine_cycle", help: "Current simulated cycle of the bound machine.",
		read: func(o *observation) int64 { return o.now }, heat: func(s *metrics.MachineSnap) *int64 { return &s.Cycle }},
}

func frameRow(event string, read func(*observation) int64) row {
	return row{name: "rockcress_frame_events", help: "Frame-window and recovery-ladder events summed over all tiles.",
		label: metrics.L("event", event), read: read}
}

func nocRow(name, help, plane string, read func(*observation) int64) row {
	return row{name: name, help: help, label: metrics.L("plane", plane), read: read}
}

func linkRow(plane string, links func(*observation) []int64) row {
	return row{name: "rockcress_noc_link_hops", help: "Traversals of one directed mesh link (from>to router ids).",
		label: metrics.L("plane", plane), links: links}
}

// obsPub holds the pre-registered cells, laid out so the publish sweep is
// pure slice iteration plus atomic stores — no maps, no strings, no heap.
type obsPub struct {
	plane  *metrics.Plane
	tiles  []*metrics.Cell // tile t's tileRows at t*len(tileRows)
	series []pubSeries     // one per series of rows, in registration order

	// Static context for the /debug/machine snapshot provider.
	roles        []string
	meshW, meshH int
}

// pubSeries is one registered series of a row: its cell, and the bank or
// link index it reads (with the link's label, for the snapshot).
type pubSeries struct {
	cell *metrics.Cell
	row  *row
	i    int
	link string
}

// newObsPub registers every series the machine publishes. Registration is
// get-or-create, so a fault ladder's second attempt reuses the first
// attempt's cells and the series stay continuous across attempts.
func newObsPub(p *metrics.Plane, m *Machine) *obsPub {
	r := p.Registry()
	o := &obsPub{plane: p, roles: make([]string, m.Cfg.Cores), meshW: m.Cfg.MeshWidth, meshH: m.Cfg.MeshHeight,
		tiles: make([]*metrics.Cell, 0, m.Cfg.Cores*len(tileRows))}
	for t := range o.roles {
		o.roles[t] = trace.RoleNames[m.roleOf[t]]
		tile, role := metrics.L("tile", strconv.Itoa(t)), metrics.L("role", o.roles[t])
		for _, tr := range tileRows {
			labels := []metrics.Label{tile, role, metrics.L("kind", tr.kind)}
			if tr.kind == "" {
				labels = labels[:2]
			}
			o.tiles = append(o.tiles, r.Counter(tr.name, tr.help, labels...))
		}
	}
	// Both planes share the mesh's shape, so one label set serves both
	// (the sampler's windows use it too).
	linkLabels := m.meshReq.LinkLabels()
	for k := range rows {
		rw := &rows[k]
		add := func(i int, link string, scope metrics.Label) {
			labels := []metrics.Label{rw.label, scope}
			if scope.Key == "" {
				labels = labels[:1]
			}
			if rw.label.Key == "" {
				labels = labels[1:]
			}
			var cell *metrics.Cell
			if rw.heat != nil {
				cell = r.Gauge(rw.name, rw.help, labels...)
			} else {
				cell = r.Counter(rw.name, rw.help, labels...)
			}
			o.series = append(o.series, pubSeries{cell, rw, i, link})
		}
		switch {
		case rw.bank != nil:
			for b := range m.Stats.LLCs {
				add(b, "", metrics.L("bank", strconv.Itoa(b)))
			}
		case rw.links != nil:
			for i, lbl := range linkLabels {
				if lbl != "" { // an edge direction: the counter never moves
					add(i, lbl, metrics.L("link", lbl))
				}
			}
		default:
			add(0, "", metrics.Label{})
		}
	}
	return o
}

// publish stores one observation into the cells: per-tile series off
// stats.Core, per-bank off stats.LLC, per-link off the link vectors, the
// rest off the fold and the gauges. Runs on the run loop and allocates
// nothing.
func (o *obsPub) publish(ob *observation) {
	for t := range ob.st.Cores {
		for k, tr := range tileRows {
			o.tiles[t*len(tileRows)+k].Store(tr.read(&ob.st.Cores[t]))
		}
	}
	for _, s := range o.series {
		var v int64
		switch rw := s.row; {
		case rw.bank != nil:
			v = rw.bank(&ob.st.LLCs[s.i])
		case rw.links != nil:
			v = rw.links(ob)[s.i]
		default:
			v = rw.read(ob)
		}
		s.cell.Store(v)
	}
}

// snapshot builds the /debug/machine heatmap from published cells only, so
// it is safe from any goroutine at any time (including while the machine is
// mid-cycle on another goroutine).
func (o *obsPub) snapshot() *metrics.MachineSnap {
	s := &metrics.MachineSnap{MeshW: o.meshW, MeshH: o.meshH, Tiles: make([]metrics.TileSnap, len(o.roles))}
	for t := range s.Tiles {
		c := o.tiles[t*len(tileRows):]
		s.Tiles[t] = metrics.TileSnap{Tile: t, Role: o.roles[t], Issued: c[0].Load(),
			Frame: c[1].Load(), Inet: c[2].Load(), Backpressure: c[3].Load(), Other: c[4].Load(),
			Instrs: c[5].Load()}
	}
	for _, ps := range o.series {
		switch v := ps.cell.Load(); {
		case ps.row.heat != nil:
			*ps.row.heat(s) = v
		case ps.row.links != nil && v > 0:
			s.Links = append(s.Links, metrics.LinkSnap{Plane: ps.row.label.Value, Link: ps.link, Hops: v})
		}
	}
	return s
}
