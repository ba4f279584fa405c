// Permanent topology faults: cut mesh links, dead routers, decommissioned
// LLC banks, and degraded DRAM. The network-side rerouting lives in
// internal/noc (up*/down* route recomputation); this file owns the machine
// side of a topology transition — harvesting in-flight flits before the
// mutation, re-injecting them on the new tables, failing LLC address slices
// over to surviving banks, and keeping every piece of bookkeeping (barrier,
// wakers, stats, fault report) consistent. All of it runs in the serial
// fault step with the engine synced, so cycle counts stay bit-identical for
// every worker count.
package machine

import (
	"fmt"

	"rockcress/internal/fault"
	"rockcress/internal/msg"
	"rockcress/internal/noc"
	"rockcress/internal/trace"
)

// reinjectFlit is one harvested (or bank-drained) message waiting to
// re-enter the network after a topology transition. resp selects the mesh
// plane; flits whose source attaches to a dead router bypass the mesh and
// deliver directly (decided at drain time, so a later router death still
// reroutes flits queued before it).
type reinjectFlit struct {
	resp bool
	f    msg.Message
}

// respPlane maps a message kind to its mesh plane: responses and
// core-to-core stores ride the response plane, requests the request plane
// (mirrors Machine.TrySend and the LLC banks' wiring).
func respPlane(k msg.Kind) bool {
	switch k {
	case msg.KindLoadResp, msg.KindSpadWord, msg.KindRemoteStore:
		return true
	}
	return false
}

// ensureBankState allocates the bank-failover indirection on the first
// topology event that needs it; until then LLCNodeFor runs the unmapped
// modulo stripe untouched.
func (m *Machine) ensureBankState() {
	if m.bankMap == nil {
		m.bankMap = make([]int, m.Cfg.LLCBanks)
		for i := range m.bankMap {
			m.bankMap[i] = i
		}
		m.deadBanks = make([]bool, m.Cfg.LLCBanks)
		m.liveBanks = m.Cfg.LLCBanks
	}
}

// deadDstPolicy is the mesh planes' unreachable-destination policy on a
// degraded topology: stale LLC destinations fail over to the bank that now
// owns the slice, responses owed to a dead core are dropped (nothing is
// waiting for them), and anything else is a genuine partition. Called from
// TrySend, possibly from concurrent core shards — it only reads state that
// mutates in the serial fault step and counts through an atomic.
func (m *Machine) deadDstPolicy(f *msg.Message) noc.DeadDstAction {
	if bank, ok := m.space.IsLLC(f.Dst); ok {
		if m.bankMap != nil {
			if nb := m.bankMap[bank]; nb != bank {
				f.Dst = m.space.LLCNode(nb)
				m.bankFailovers.Add(1)
				return noc.DeadDstRetarget
			}
		}
		return noc.DeadDstFail
	}
	if f.Dst >= 0 && f.Dst < len(m.cores) && m.cores[f.Dst].Dead() {
		return noc.DeadDstDrop
	}
	return noc.DeadDstFail
}

// harvestPlanes pulls every queued flit off the selected mesh planes ahead
// of a topology mutation. The flits re-inject from reinjectQ once the new
// route tables are up — in-place re-steering is unsound under up*/down*
// (a flit that already descended may have no down-only path on the new
// table), so transitions are epoch-style: drain, mutate, re-inject.
func (m *Machine) harvestPlanes(req, resp bool) {
	if req {
		for _, f := range m.meshReq.HarvestAll() {
			m.reinjectQ = append(m.reinjectQ, reinjectFlit{resp: false, f: f})
			m.reroutedFlits++
		}
	}
	if resp {
		for _, f := range m.meshResp.HarvestAll() {
			m.reinjectQ = append(m.reinjectQ, reinjectFlit{resp: true, f: f})
			m.reroutedFlits++
		}
	}
}

// drainReinject re-injects harvested and bank-drained flits, in order,
// keeping whatever the network refuses (full injection queue, busy bank)
// for the next cycle. Runs in the serial mem prologue.
func (m *Machine) drainReinject() {
	q := m.reinjectQ[:0]
	for _, rf := range m.reinjectQ {
		if !m.tryReinject(rf) {
			q = append(q, rf)
		}
	}
	m.reinjectQ = q
}

// tryReinject attempts one re-injection. Destinations are re-resolved at
// drain time: flits bound for a decommissioned bank go to its failover
// owner, flits owed to a dead core are dropped, and flits whose source
// router died deliver directly (their injection port no longer exists, but
// the payload — e.g. a decommissioned bank's final responses — must still
// land).
func (m *Machine) tryReinject(rf reinjectFlit) bool {
	f := rf.f
	if bank, ok := m.space.IsLLC(f.Dst); ok && m.deadBanks != nil && m.deadBanks[bank] {
		f.Dst = m.space.LLCNode(m.bankMap[bank])
		m.bankFailovers.Add(1)
	}
	if f.Dst >= 0 && f.Dst < len(m.cores) && m.cores[f.Dst].Dead() {
		return true // owed to a dead core: drop
	}
	mesh := m.meshReq
	if rf.resp {
		mesh = m.meshResp
	}
	if mesh.RouterDead(mesh.AttachRouter(f.Src)) {
		return m.deliver(f.Dst, &f)
	}
	return mesh.TrySend(f)
}

// cutLink severs one mesh link (both directions) on the planes the event
// names and rebuilds their route tables. Runs with the engine synced.
func (m *Machine) cutLink(now int64, e fault.Event) {
	req := e.Plane == fault.PlaneBoth || e.Plane == fault.PlaneReq
	resp := e.Plane == fault.PlaneBoth || e.Plane == fault.PlaneResp
	m.harvestPlanes(req, resp)
	if req {
		if err := m.meshReq.CutLink(e.From, e.To); err != nil {
			m.Error(err)
			return
		}
	}
	if resp {
		if err := m.meshResp.CutLink(e.From, e.To); err != nil {
			m.Error(err)
			return
		}
	}
	label := fmt.Sprintf("%d>%d", e.From, e.To)
	if e.Plane != fault.PlaneBoth {
		label += ":" + e.Plane.String()
	}
	m.report.CutLinks = append(m.report.CutLinks, label)
	if m.rec != nil {
		m.rec.Instant(trace.EvFaultCutLink, now, int64(e.From), int64(e.Plane), int64(e.To))
	}
	m.flight.Note(now, "fault.cutlink", "link "+label+" cut")
	m.meshWaker.Wake()
}

// killRouter powers router r off: both planes route around the hole, the
// attached core dies exactly as a killed tile, and any LLC bank hanging off
// the router fails over to the survivors.
func (m *Machine) killRouter(now int64, r int) {
	if m.meshReq.RouterDead(r) {
		return
	}
	m.harvestPlanes(true, true)
	if err := m.meshReq.KillRouter(r); err != nil {
		m.Error(err)
		return
	}
	if err := m.meshResp.KillRouter(r); err != nil {
		m.Error(err)
		return
	}
	m.report.DeadRouters = append(m.report.DeadRouters, r)
	if m.rec != nil {
		m.rec.Instant(trace.EvFaultKillRouter, now, int64(r))
	}
	m.flight.Note(now, "fault.killrouter", fmt.Sprintf("router %d powered off", r))
	m.killTile(now, r)
	for b := range m.llcs {
		if m.meshResp.AttachRouter(m.space.LLCNode(b)) == r {
			m.killBank(now, b)
		}
	}
	m.meshWaker.Wake()
}

// killBank decommissions LLC bank b: dirty lines flush to the global
// store, every owed response and unserved request drains into reinjectQ,
// and the bank's address slice remaps to the next live bank. The mesh is
// untouched (the bank's router still routes); in-flight flits addressed to
// the dead bank are absorbed by the failover owner at delivery. Killing
// the last live bank is fatal — there is nowhere left to put the LLC.
func (m *Machine) killBank(now int64, b int) {
	m.ensureBankState()
	if m.deadBanks[b] {
		return
	}
	if m.liveBanks == 1 {
		m.Error(fmt.Errorf("machine: killbank %d: last live LLC bank, nothing to fail over to", b))
		return
	}
	m.deadBanks[b] = true
	m.liveBanks--
	owner := m.nextLiveBank(b)
	for x := range m.bankMap {
		if m.bankMap[x] == b {
			m.bankMap[x] = owner
		}
	}
	m.report.DeadBanks = append(m.report.DeadBanks, b)
	if m.rec != nil {
		m.rec.Instant(trace.EvFaultKillBank, now, m.tidLLC(b), int64(owner))
	}
	m.flight.Note(now, "fault.killbank",
		fmt.Sprintf("llc bank %d decommissioned, slice fails over to bank %d", b, owner))
	// Dead-bank DRAM fills are dropped in preMem; the owner re-fetches any
	// line it needs. The drained messages re-resolve their destinations in
	// tryReinject, so requests the bank had absorbed land at the owner.
	m.llcs[b].Decommission(func(f msg.Message) {
		m.reinjectQ = append(m.reinjectQ, reinjectFlit{resp: respPlane(f.Kind), f: f})
	})
	m.bankWakers[owner].Wake()
}

// nextLiveBank returns the first live bank scanning upward from b+1
// (wrapping) — the deterministic failover owner.
func (m *Machine) nextLiveBank(b int) int {
	n := m.Cfg.LLCBanks
	for i := 1; i < n; i++ {
		c := (b + i) % n
		if !m.deadBanks[c] {
			return c
		}
	}
	return b
}

// dramDegrade arms the DRAM latency-degradation window.
func (m *Machine) dramDegrade(now int64, e fault.Event) {
	m.dram.Degrade(e.Cycle, e.Until, e.Factor)
	if m.rec != nil {
		m.rec.Instant(trace.EvFaultDramDegrade, now, m.tidMachine(), int64(e.Factor*100), e.Until)
	}
	m.flight.Note(now, "fault.dramdegrade",
		fmt.Sprintf("dram latency x%.2f until cycle %d", e.Factor, e.Until))
}
