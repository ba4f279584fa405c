// Fault-aware rerouting: permanent link cuts and router deaths rewrite the
// mesh's route table, in place, from XY routes to up*/down* routes.
//
// Up*/down* (Autonet) is the classic irregular-topology escape routing:
// pick a root per connected component, orient every live link "up" (toward
// the root, by (BFS level, router id) order) or "down", and restrict every
// path to zero or more up moves followed by zero or more down moves. The
// orientation is acyclic, and a down->up turn never occurs, so the channel
// dependency graph is cycle-free — deadlock freedom on any connected
// remnant of the mesh, which turn models fixed to mesh axes (west-first,
// odd-even) cannot promise once links are missing. Reachability holds for
// every connected pair: climb BFS-parent links to the root, then descend
// the BFS tree. A packet's routing state is one bit — "has it gone down
// yet" — and that bit is fully determined by the input port it arrived on,
// so the table is indexed (router, inPort, dst) and flits need no extra
// header state.
//
// Topology transitions are epoch-style: the machine harvests every queued
// flit, applies the mutation, and re-injects the survivors as fresh
// injections (phase 0). In-place re-steering is unsound — a flit that
// already descended may sit on a queue from which the new table has no
// down-only path — and reconfiguring an empty network is exactly how real
// up*/down* deployments handle it.
package noc

import (
	"fmt"
	"math"

	"rockcress/internal/msg"
)

// DeadDstAction is a DeadDstHandler's decision for a flit whose destination
// the degraded topology cannot reach.
type DeadDstAction uint8

const (
	// DeadDstFail latches a partitioned-mesh error (the default).
	DeadDstFail DeadDstAction = iota
	// DeadDstDrop silently discards the flit (destination node is dead and
	// nothing is owed an answer — e.g. a response to a killed core).
	DeadDstDrop
	// DeadDstRetarget retries the route lookup after the handler rewrote
	// the message's Dst (e.g. LLC bank failover redirecting a stale
	// destination to the surviving bank that now owns the address).
	DeadDstRetarget
)

// DeadDstHandler decides what happens to a flit injected toward an
// unreachable destination. It may rewrite the message (DeadDstRetarget).
type DeadDstHandler func(f *msg.Message) DeadDstAction

// SetDeadDstHandler installs the unreachable-destination policy. Without a
// handler every unreachable destination latches a partition error.
func (m *Mesh) SetDeadDstHandler(h DeadDstHandler) { m.deadDst = h }

// resolveDeadDst is TrySend's unreachable-destination slow path: it may
// retarget f. It returns the output port; out == portDead means the
// injection is finished, with accepted reporting whether the flit was
// consumed (dropped on purpose) or refused (partition latched).
func (m *Mesh) resolveDeadDst(f *msg.Message, tile int, p port) (out port, accepted bool) {
	if m.deadDst != nil {
		switch m.deadDst(f) {
		case DeadDstDrop:
			m.DroppedDead++
			return portDead, true
		case DeadDstRetarget:
			if out = m.routeAt(tile, p, int(f.Dst)); out != portDead {
				return out, true
			}
		}
	}
	m.fail("mesh partitioned: node %d cannot reach node %d", f.Src, f.Dst)
	return portDead, false
}

// RouterDead reports whether router r has been powered off (always false
// on a healthy mesh).
func (m *Mesh) RouterDead(r int) bool { return m.routerDead != nil && m.routerDead[r] }

// ensureTopo allocates the permanent-fault state on the first topology
// event; until then the route table holds XY routes.
func (m *Mesh) ensureTopo() {
	if m.linkDead == nil {
		m.linkDead = make([]bool, m.w*m.h*4)
		m.routerDead = make([]bool, m.w*m.h)
	}
}

// CutLink permanently severs the physical link between adjacent routers a
// and b — both directions; a cut wire has no working side — and rebuilds
// the route table around it. Call only between cycles with the mesh
// harvested (see HarvestAll); cutting an already-cut link is a no-op.
func (m *Mesh) CutLink(a, b int) error {
	m.ensureTopo()
	out := -1
	for o := 0; o < 4; o++ {
		if int(m.nbrTab[a*4+o]) == b {
			out = o
			break
		}
	}
	if out < 0 {
		return fmt.Errorf("noc: cutlink %d>%d: routers are not mesh-adjacent", a, b)
	}
	m.linkDead[a*4+out] = true
	m.linkDead[b*4+int(oppTab[out])] = true
	m.rebuildRoutes()
	return nil
}

// KillRouter powers router r off: all four of its links are cut and no
// flit may enter or leave it. The machine is responsible for what hangs
// off the router (core, LLC bank); the mesh only reroutes around the hole.
func (m *Mesh) KillRouter(r int) error {
	if r < 0 || r >= m.w*m.h {
		return fmt.Errorf("noc: killrouter %d: outside %dx%d mesh", r, m.w, m.h)
	}
	m.ensureTopo()
	m.routerDead[r] = true
	for o := 0; o < 4; o++ {
		if nbr := int(m.nbrTab[r*4+o]); nbr >= 0 {
			m.linkDead[r*4+o] = true
			m.linkDead[nbr*4+int(oppTab[o])] = true
		}
	}
	m.rebuildRoutes()
	return nil
}

// HarvestAll removes every queued flit from the mesh and returns the
// messages in deterministic order (ascending router, ascending port, FIFO
// within a queue). The machine calls it before a topology mutation and
// re-injects the survivors afterward; the arena slots are freed here.
func (m *Mesh) HarvestAll() []msg.Message {
	var out []msg.Message
	for qi := range m.queues {
		for m.queues[qi].n > 0 {
			e := m.headEntry(qi)
			out = append(out, m.flits[e.idx])
			m.free(e.idx)
			m.dropQ(qi)
		}
	}
	if len(out) == 0 {
		return nil
	}
	for i := range m.occMask {
		m.occMask[i] = 0
	}
	for i := range m.busy {
		m.busy[i] = 0
	}
	m.queued -= int64(len(out))
	return out
}

// rebuildRoutes rewrites the route table in place for the current
// dead-link/dead-router state. Runs once per topology event (serial, mesh
// empty), so clarity beats constant factors here.
func (m *Mesh) rebuildRoutes() {
	n := m.w * m.h
	if m.detourTab == nil {
		m.detourTab = make([]int32, n*m.nodes)
	}
	m.RouteRebuilds++
	set := func(r, in, dn int, p port) { m.routes[(r*int(numPorts)+in)*m.nodes+dn] = int8(p) }

	// Connected components of the live topology, each rooted at its
	// lowest-id live router; level = BFS distance from the root.
	level := make([]int32, n)
	comp := make([]int32, n)
	for i := range comp {
		comp[i], level[i] = -1, -1
	}
	bfs := make([]int32, 0, n)
	for root := 0; root < n; root++ {
		if m.routerDead[root] || comp[root] >= 0 {
			continue
		}
		comp[root], level[root] = int32(root), 0
		bfs = append(bfs[:0], int32(root))
		for head := 0; head < len(bfs); head++ {
			cur := int(bfs[head])
			for o := 0; o < 4; o++ {
				nbr := int(m.nbrTab[cur*4+o])
				if nbr < 0 || m.linkDead[cur*4+o] || m.routerDead[nbr] || comp[nbr] >= 0 {
					continue
				}
				comp[nbr], level[nbr] = int32(root), level[cur]+1
				bfs = append(bfs, int32(nbr))
			}
		}
	}
	// up reports whether traversing a->b climbs toward the component root:
	// strictly lower level, or same level with the lower router id. The
	// (level, id) order is total, so the orientation is acyclic.
	up := func(a, b int) bool {
		return level[b] < level[a] || (level[b] == level[a] && b < a)
	}

	// Destination attach points, grouped so the per-router BFS below runs
	// once per destination router even when several nodes share it (an
	// edge router hosts its core and possibly an LLC bank).
	attachR := make([]int32, m.nodes)
	attachP := make([]port, m.nodes)
	for dn := 0; dn < m.nodes; dn++ {
		t, p := m.attachTile(dn)
		attachR[dn], attachP[dn] = int32(t), p
	}

	const inf = int32(math.MaxInt32)
	dist := make([]int32, 2*n) // (router, phase) -> hops to the current dst
	sq := make([]int32, 0, 2*n)
	for dstR := 0; dstR < n; dstR++ {
		first := true
		for dn := 0; dn < m.nodes; dn++ {
			if int(attachR[dn]) != dstR {
				continue
			}
			if m.routerDead[dstR] {
				for r := 0; r < n; r++ {
					for in := 0; in < int(numPorts); in++ {
						set(r, in, dn, portDead)
					}
					m.detourTab[r*m.nodes+dn] = 0
				}
				continue
			}
			if first {
				first = false
				// Backward BFS over (router, phase) states from the
				// destination router. Phase 0 = may still go up; a down
				// move lands in phase 1 and is legal from either phase,
				// an up move keeps phase 0 and is legal only there.
				for i := range dist {
					dist[i] = inf
				}
				dist[dstR*2], dist[dstR*2+1] = 0, 0
				sq = append(sq[:0], int32(dstR*2), int32(dstR*2+1))
				for head := 0; head < len(sq); head++ {
					st := int(sq[head])
					r, phase := st>>1, st&1
					for o := 0; o < 4; o++ {
						pr := int(m.nbrTab[r*4+o])
						if pr < 0 || m.linkDead[r*4+o] || m.routerDead[pr] {
							continue
						}
						if up(pr, r) {
							// pr->r is an up move: it lands in phase 0 and
							// only a phase-0 packet may take it.
							if phase != 0 {
								continue
							}
							if dist[pr*2] == inf {
								dist[pr*2] = dist[st] + 1
								sq = append(sq, int32(pr*2))
							}
						} else {
							// pr->r is a down move: it lands in phase 1,
							// from either phase at pr.
							if phase != 1 {
								continue
							}
							for pp := 0; pp < 2; pp++ {
								if dist[pr*2+pp] == inf {
									dist[pr*2+pp] = dist[st] + 1
									sq = append(sq, int32(pr*2+pp))
								}
							}
						}
					}
				}
			}
			for r := 0; r < n; r++ {
				if m.routerDead[r] || comp[r] != comp[dstR] {
					for in := 0; in < int(numPorts); in++ {
						set(r, in, dn, portDead)
					}
					m.detourTab[r*m.nodes+dn] = 0
					continue
				}
				if r == dstR {
					for in := 0; in < int(numPorts); in++ {
						set(r, in, dn, attachP[dn])
					}
					m.detourTab[r*m.nodes+dn] = 0
					continue
				}
				for in := 0; in < int(numPorts); in++ {
					// The arrival port determines the phase: injection
					// ports start at 0; a link port inherits the phase of
					// the traversal that delivered the flit.
					phase := 0
					if in < 4 {
						pr := int(m.nbrTab[r*4+in])
						if pr < 0 {
							set(r, in, dn, portDead)
							continue
						}
						if !up(pr, r) {
							phase = 1
						}
					}
					d := dist[r*2+phase]
					if d == inf {
						set(r, in, dn, portDead)
						continue
					}
					sel := portDead
					for o := 0; o < 4; o++ {
						nbr := int(m.nbrTab[r*4+o])
						if nbr < 0 || m.linkDead[r*4+o] || m.routerDead[nbr] {
							continue
						}
						var nd int32
						if up(r, nbr) {
							if phase == 1 {
								continue // no up moves after a down move
							}
							nd = dist[nbr*2]
						} else {
							nd = dist[nbr*2+1]
						}
						if nd == d-1 {
							sel = port(o)
							break
						}
					}
					set(r, in, dn, sel)
				}
				if d0 := dist[r*2]; d0 != inf {
					dx := r%m.w - dstR%m.w
					if dx < 0 {
						dx = -dx
					}
					dy := r/m.w - dstR/m.w
					if dy < 0 {
						dy = -dy
					}
					m.detourTab[r*m.nodes+dn] = d0 - int32(dx+dy)
				} else {
					m.detourTab[r*m.nodes+dn] = 0
				}
			}
		}
	}
}
