package trace

import (
	"rockcress/internal/config"
	"rockcress/internal/stats"
)

// Roles builds the static tile -> Role map of a group layout: each group's
// scalar and expander tiles, its remaining lanes, and ungrouped MIMD tiles.
// The map is fixed for a run; a group broken mid-run keeps attributing to
// its original roles (conservation sums over all roles regardless).
func Roles(nCores int, groups []*config.Group) []Role {
	roles := make([]Role, nCores)
	for i := range roles {
		roles[i] = RoleMimd
	}
	for _, g := range groups {
		roles[g.Scalar] = RoleScalar
		for _, t := range g.Lanes {
			roles[t] = RoleLane
		}
		roles[g.Expander] = RoleExpander
	}
	return roles
}

// Fold sums a run's counters into the schema-1 groups: cores by role, banks
// into one LLC total, and the machine-wide DRAM, NoC and engine counters.
// It is the one place that mapping is written down — telemetry windows,
// report.json and the aggregate metric cells all read its result — so st
// must hold fresh totals (the machine's collect() runs first).
// Allocation-free; the per-link slices stay nil.
func Fold(st *stats.Machine, roles []Role) Cum {
	var c Cum
	for t := range st.Cores {
		sc := &st.Cores[t]
		r := &c.Roles[roles[t]]
		r.Issued += sc.Issued()
		r.Frame += sc.Stall(stats.StallFrame)
		r.Inet += sc.Stall(stats.StallInet)
		r.Backpressure += sc.Stall(stats.StallBackpressure)
		r.Other += sc.Stall(stats.StallOther)
		r.Instrs += sc.Instrs

		c.Frames.Consumed += sc.FramesConsumed
		c.Frames.Poisons += sc.FramePoisons
		c.Frames.Replays += sc.FrameReplays
		c.Frames.Retries += sc.ReplayRetries
		c.Frames.StaleDrops += sc.ReplayStaleDrops
	}
	for b := range st.LLCs {
		l := &st.LLCs[b]
		c.LLC.Accesses += l.Accesses
		c.LLC.Misses += l.Misses
		c.LLC.WideReqs += l.WideReqs
		c.LLC.RespWords += l.RespWords
		c.LLC.Writebacks += l.Writebacks
		c.LLCStoreHits += l.StoreHits
		c.LLCStoreMisses += l.StoreMisses
	}
	c.Dram = DramCounters{Reads: st.DramReads, Writes: st.DramWrites, Busy: st.DramBusy}
	c.Noc = NocCounters{
		FlitsReq: st.NocReqFlits, HopsReq: st.NocReqHops,
		FlitsResp: st.NocRespFlits, HopsResp: st.NocRespHops,
		Retrans: st.NocRetrans, Dropped: st.NocDropped, Corrupt: st.NocCorrupt,
		RemoteStores: st.RemoteStores,
	}
	c.Engine = EngineCounters{
		FastForwards: st.FastForwards, SkippedCycles: st.SkippedCycles,
		Checkpoints: st.Checkpoints,
	}
	return c
}
