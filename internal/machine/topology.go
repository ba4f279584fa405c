// Permanent topology faults: cut mesh links, dead routers, decommissioned
// LLC banks, and degraded DRAM. The network-side rerouting lives in
// internal/noc (up*/down* route recomputation); this file owns the machine
// side of a topology transition — harvesting in-flight flits before the
// mutation, re-injecting them on the new tables, failing LLC address slices
// over to surviving banks, and keeping every piece of bookkeeping (barrier,
// wakers, stats, fault report) consistent. All of it runs in the fault step
// of the mem prologue with the engine synced.
package machine

import (
	"fmt"

	"rockcress/internal/fault"
	"rockcress/internal/msg"
	"rockcress/internal/noc"
	"rockcress/internal/trace"
)

// deadDstPolicy is the mesh planes' unreachable-destination policy on a
// degraded topology: stale LLC destinations fail over to the bank that now
// owns the slice, responses owed to a dead core are dropped (nothing is
// waiting for them), and anything else is a genuine partition. Called from
// TrySend.
func (m *Machine) deadDstPolicy(f *msg.Message) noc.DeadDstAction {
	dst := int(f.Dst)
	if bank, ok := m.space.IsLLC(dst); ok {
		if nb := m.bankMap[bank]; nb != bank {
			f.Dst = msg.Node(m.space.LLCNode(nb))
			m.bankFailovers++
			return noc.DeadDstRetarget
		}
		return noc.DeadDstFail
	}
	if dst >= 0 && dst < len(m.cores) && m.cores[dst].Dead() {
		m.journeys.Free(f.Journey)
		return noc.DeadDstDrop
	}
	return noc.DeadDstFail
}

// harvestPlanes pulls every queued flit off the selected mesh planes ahead
// of a topology mutation. The flits re-inject from reinjectQ once the new
// route tables are up — in-place re-steering is unsound under up*/down*
// (a flit that already descended may have no down-only path on the new
// table), so transitions are epoch-style: drain, mutate, re-inject.
func (fs *faultStack) harvestPlanes(req, resp bool) {
	n := len(fs.reinjectQ)
	if req {
		fs.reinjectQ = append(fs.reinjectQ, fs.meshReq.HarvestAll()...)
	}
	if resp {
		fs.reinjectQ = append(fs.reinjectQ, fs.meshResp.HarvestAll()...)
	}
	fs.reroutedFlits += int64(len(fs.reinjectQ) - n)
}

// drainReinject re-injects harvested and bank-drained flits, in order,
// keeping whatever the network refuses (full injection queue, busy bank)
// for the next cycle. Runs in the mem prologue.
func (fs *faultStack) drainReinject() {
	q := fs.reinjectQ[:0]
	for _, f := range fs.reinjectQ {
		if !fs.tryReinject(f) {
			q = append(q, f)
		}
	}
	fs.reinjectQ = q
}

// tryReinject attempts one re-injection on f's plane. Destinations are
// re-resolved at drain time: flits bound for a decommissioned bank go to its
// failover owner, flits owed to a dead core are dropped, and flits whose
// source router died deliver directly (their injection port no longer
// exists, but the payload — e.g. a decommissioned bank's final responses —
// must still land; decided here, so a later router death still reroutes
// flits queued before it).
func (fs *faultStack) tryReinject(f msg.Message) bool {
	if bank, ok := fs.space.IsLLC(int(f.Dst)); ok && fs.bankMap[bank] != bank {
		f.Dst = msg.Node(fs.space.LLCNode(fs.bankMap[bank]))
		fs.bankFailovers++
	}
	if dst := int(f.Dst); dst >= 0 && dst < len(fs.cores) && fs.cores[dst].Dead() {
		fs.journeys.Free(f.Journey)
		return true // owed to a dead core: drop
	}
	mesh := fs.plane(f.Kind)
	if mesh.RouterDead(mesh.AttachRouter(int(f.Src))) {
		return fs.deliver(int(f.Dst), &f)
	}
	return mesh.TrySend(&f)
}

// cutLink severs one mesh link (both directions) on the planes the event
// names and rebuilds their route tables. Runs with the engine synced.
func (fs *faultStack) cutLink(now int64, e fault.Event) {
	req := e.Plane == fault.PlaneBoth || e.Plane == fault.PlaneReq
	resp := e.Plane == fault.PlaneBoth || e.Plane == fault.PlaneResp
	fs.harvestPlanes(req, resp)
	if req {
		if err := fs.meshReq.CutLink(e.From, e.To); err != nil {
			fs.Error(err)
			return
		}
	}
	if resp {
		if err := fs.meshResp.CutLink(e.From, e.To); err != nil {
			fs.Error(err)
			return
		}
	}
	label := fmt.Sprintf("%d>%d", e.From, e.To)
	if e.Plane != fault.PlaneBoth {
		label += ":" + e.Plane.String()
	}
	fs.report.CutLinks = append(fs.report.CutLinks, label)
	fs.announce(trace.EvFaultCutLink, now, int64(e.From), int64(e.Plane), int64(e.To))
	fs.meshWaker.Wake()
}

// killRouter powers router r off: both planes route around the hole, the
// attached core dies exactly as a killed tile, and any LLC bank hanging off
// the router fails over to the survivors.
func (fs *faultStack) killRouter(now int64, r int) {
	if fs.meshReq.RouterDead(r) {
		return
	}
	fs.harvestPlanes(true, true)
	if err := fs.meshReq.KillRouter(r); err != nil {
		fs.Error(err)
		return
	}
	if err := fs.meshResp.KillRouter(r); err != nil {
		fs.Error(err)
		return
	}
	fs.report.DeadRouters = append(fs.report.DeadRouters, r)
	fs.announce(trace.EvFaultKillRouter, now, int64(r))
	fs.killTile(now, r)
	for b := range fs.llcs {
		if fs.meshResp.AttachRouter(fs.space.LLCNode(b)) == r {
			fs.killBank(now, b)
		}
	}
	fs.meshWaker.Wake()
}

// killBank decommissions LLC bank b: dirty lines flush to the global
// store, every owed response and unserved request drains into reinjectQ,
// and the bank's address slice remaps to the next live bank. The mesh is
// untouched (the bank's router still routes); in-flight flits addressed to
// the dead bank are absorbed by the failover owner at delivery. Killing
// the last live bank is fatal — there is nowhere left to put the LLC.
func (fs *faultStack) killBank(now int64, b int) {
	if fs.bankMap[b] != b {
		return // already dead
	}
	owner := fs.nextLiveBank(b)
	if owner == b {
		fs.Error(fmt.Errorf("machine: killbank %d: last live LLC bank, nothing to fail over to", b))
		return
	}
	for x := range fs.bankMap {
		if fs.bankMap[x] == b {
			fs.bankMap[x] = owner
		}
	}
	fs.report.DeadBanks = append(fs.report.DeadBanks, b)
	fs.announce(trace.EvFaultKillBank, now, fs.tidLLC(b), int64(owner))
	// Dead-bank DRAM fills are dropped in preMem; the owner re-fetches any
	// line it needs. The drained messages re-resolve their destinations in
	// tryReinject, so requests the bank had absorbed land at the owner.
	fs.llcs[b].Decommission(func(f msg.Message) {
		fs.reinjectQ = append(fs.reinjectQ, f)
	})
	fs.bankWakers[owner].Wake()
}

// nextLiveBank returns the first live bank scanning upward from b+1
// (wrapping) — the deterministic failover owner — or b itself when no other
// bank is live.
func (fs *faultStack) nextLiveBank(b int) int {
	n := fs.Cfg.LLCBanks
	for i := 1; i < n; i++ {
		c := (b + i) % n
		if fs.bankMap[c] == c {
			return c
		}
	}
	return b
}
