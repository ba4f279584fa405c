package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"rockcress/internal/msg"
)

// liveComponents labels each live router with its connected component under
// the mesh's current dead-link/dead-router state, independently of the
// route table under test.
func liveComponents(m *Mesh) []int {
	n := m.w * m.h
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int
	for r := 0; r < n; r++ {
		if comp[r] >= 0 || (m.routerDead != nil && m.routerDead[r]) {
			continue
		}
		comp[r] = r
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for o := 0; o < 4; o++ {
				nbr := int(m.nbrTab[cur*4+o])
				if nbr < 0 || m.linkDead[cur*4+o] || m.routerDead[nbr] || comp[nbr] >= 0 {
					continue
				}
				comp[nbr] = r
				stack = append(stack, nbr)
			}
		}
	}
	return comp
}

// walkRoute follows the rerouted table from src to dst, checking every
// traversed link is alive, and returns the hop count (-1 if the walk
// doesn't terminate at dst within the bound).
func walkRoute(t *testing.T, m *Mesh, src, dst int) int {
	t.Helper()
	tile, p := m.attachTile(src)
	in := p
	hops := 0
	bound := 4 * m.w * m.h
	for {
		out := m.routeAt(tile, in, dst)
		if out == portDead {
			t.Fatalf("route %d->%d: dead port at router %d input %d after %d hops", src, dst, tile, in, hops)
		}
		if out == portLocal || out == portLLC {
			dr, dp := m.attachTile(dst)
			if tile != dr || out != dp {
				t.Fatalf("route %d->%d: ejected at router %d port %d, want router %d port %d",
					src, dst, tile, out, dr, dp)
			}
			return hops
		}
		if m.linkDead[tile*4+int(out)] {
			t.Fatalf("route %d->%d: router %d forwards over dead link via port %d", src, dst, tile, out)
		}
		nbr := int(m.nbrTab[tile*4+int(out)])
		if nbr < 0 || m.routerDead[nbr] {
			t.Fatalf("route %d->%d: router %d forwards off-mesh or into dead router via port %d", src, dst, tile, out)
		}
		tile, in = nbr, oppTab[out]
		hops++
		if hops > bound {
			return -1
		}
	}
}

// checkNoDependencyCycle asserts the channel dependency graph induced by
// the rerouted table is acyclic: an edge joins directional link L1 (into
// router r) to directional link L2 (out of r) when some (input, dst) table
// entry forwards L1's traffic onto L2. A cycle would admit deadlock.
func checkNoDependencyCycle(t *testing.T, m *Mesh) {
	t.Helper()
	n := m.w * m.h
	// Directional link id: r*4+out. adj[l1] = set of l2.
	adj := make([][]int, n*4)
	seen := make(map[[2]int]bool)
	for r := 0; r < n; r++ {
		for in := 0; in < 4; in++ {
			pr := int(m.nbrTab[r*4+in])
			if pr < 0 {
				continue
			}
			l1 := pr*4 + int(oppTab[in]) // the link delivering into (r, in)
			for dst := 0; dst < m.nodes; dst++ {
				out := m.routeAt(r, port(in), dst)
				if out < 0 || out > portW {
					continue
				}
				l2 := r*4 + int(out)
				key := [2]int{l1, l2}
				if !seen[key] {
					seen[key] = true
					adj[l1] = append(adj[l1], l2)
				}
			}
		}
	}
	// DFS cycle check: 0 unvisited, 1 on stack, 2 done.
	state := make([]int8, n*4)
	var visit func(l int) bool
	visit = func(l int) bool {
		state[l] = 1
		for _, nx := range adj[l] {
			switch state[nx] {
			case 1:
				return false
			case 0:
				if !visit(nx) {
					return false
				}
			}
		}
		state[l] = 2
		return true
	}
	for l := range adj {
		if state[l] == 0 && !visit(l) {
			t.Fatal("channel dependency cycle: the rerouted table admits deadlock")
		}
	}
}

// TestRerouteProperty is the up*/down* contract under random permanent cut
// sets: whenever the cuts leave the mesh connected, every live node pair
// stays routable over live links only, and the channel dependency graph
// stays acyclic; when the mesh partitions, cross-component lookups read
// portDead (the machine's structured-failure signal) instead of routing
// anywhere.
func TestRerouteProperty(t *testing.T) {
	const w, h, banks = 8, 8, 16
	rng := rand.New(rand.NewSource(0xF4B12C))
	for trial := 0; trial < 40; trial++ {
		m, err := New(w, h, banks, 4, func(int, *msg.Message) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		// Random cut campaign: up to 10 links, occasionally a dead router.
		cuts := 1 + rng.Intn(10)
		for i := 0; i < cuts; i++ {
			r := rng.Intn(w * h)
			o := rng.Intn(4)
			nbr := int(m.nbrTab[r*4+o])
			if nbr < 0 {
				continue
			}
			if err := m.CutLink(r, nbr); err != nil {
				t.Fatal(err)
			}
		}
		if trial%3 == 0 {
			if err := m.KillRouter(rng.Intn(w * h)); err != nil {
				t.Fatal(err)
			}
		}
		comp := liveComponents(m)
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			for src := 0; src < m.nodes; src++ {
				sr, _ := m.attachTile(src)
				for dst := 0; dst < m.nodes; dst++ {
					dr, _ := m.attachTile(dst)
					srcLive := comp[sr] >= 0
					dstLive := comp[dr] >= 0
					tile, p := m.attachTile(src)
					entry := m.routeAt(tile, p, dst)
					if !srcLive || !dstLive || comp[sr] != comp[dr] {
						if entry != portDead {
							t.Fatalf("route %d->%d crosses a partition (entry %d)", src, dst, entry)
						}
						continue
					}
					if hops := walkRoute(t, m, src, dst); hops < 0 {
						t.Fatalf("route %d->%d does not terminate", src, dst)
					}
				}
			}
			checkNoDependencyCycle(t, m)
		})
	}
}

// TestReroutePreservesInFlight pins the harvest contract: flits buffered
// across a topology event are returned exactly once, in deterministic
// order, and the emptied mesh reports quiescent.
func TestReroutePreservesInFlight(t *testing.T) {
	// The deliver callback refuses while the test stages traffic, so every
	// sent flit is still buffered when the harvest runs.
	accept := false
	m, err := New(4, 4, 8, 4, func(int, *msg.Message) bool { return accept })
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int{}
	sent := 0
	for i := 0; i < 20; i++ {
		f := msg.Message{Src: i % 16, Dst: (i*7 + 3) % 16, Kind: msg.KindRemoteStore, Addr: uint32(i)}
		if m.TrySend(f) {
			want[uint64(f.Addr)]++
			sent++
		}
	}
	for i := 0; i < 3; i++ {
		m.Tick(0)
	}
	got := m.HarvestAll()
	if len(got) != sent {
		t.Fatalf("harvested %d flits, sent %d", len(got), sent)
	}
	for _, f := range got {
		if want[uint64(f.Addr)] == 0 {
			t.Fatalf("harvested unknown flit addr %d", f.Addr)
		}
		want[uint64(f.Addr)]--
	}
	if m.Busy() {
		t.Fatal("mesh busy after harvest")
	}
	if err := m.CutLink(0, 1); err != nil {
		t.Fatal(err)
	}
	// Harvested flits re-inject cleanly on the rebuilt table.
	accept = true
	for _, f := range got {
		if !m.TrySend(f) {
			t.Fatalf("reinjection refused for %v", f)
		}
	}
	for m.Busy() {
		m.Tick(0)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReroutePartitionFailsStructured cuts a router's every link and then
// checks an injection toward it latches the partition error instead of
// hanging in a retry loop.
func TestReroutePartitionFailsStructured(t *testing.T) {
	m, err := New(4, 4, 8, 4, func(int, *msg.Message) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	// Corner router 0 has exactly two links: east to 1, south to 4.
	if err := m.CutLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.CutLink(0, 4); err != nil {
		t.Fatal(err)
	}
	if m.TrySend(msg.Message{Src: 5, Dst: 0, Kind: msg.KindLoadResp}) {
		t.Fatal("send into a partitioned corner accepted")
	}
	if err := m.Err(); err == nil {
		t.Fatal("no partition error latched")
	}
	// Traffic between still-connected nodes keeps flowing.
	if !m.TrySend(msg.Message{Src: 5, Dst: 10, Kind: msg.KindLoadResp}) {
		t.Fatal("live-pair send refused on degraded mesh")
	}
	for m.QueuedFlits() > 0 {
		m.Tick(0)
	}
}

// TestRerouteDeadDstHandler checks the drop and retarget policies.
func TestRerouteDeadDstHandler(t *testing.T) {
	delivered := map[int]int{}
	m, err := New(4, 4, 8, 4, func(node int, f *msg.Message) bool {
		delivered[node]++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.KillRouter(15); err != nil {
		t.Fatal(err)
	}
	drops := 0
	m.SetDeadDstHandler(func(f *msg.Message) DeadDstAction {
		if f.Dst == 15 {
			drops++
			return DeadDstDrop
		}
		if _, ok := m.space.IsLLC(f.Dst); ok {
			f.Dst = m.space.LLCNode(0) // failover bank
			return DeadDstRetarget
		}
		return DeadDstFail
	})
	if !m.TrySend(msg.Message{Src: 5, Dst: 15, Kind: msg.KindLoadResp}) {
		t.Fatal("drop policy should report the flit consumed")
	}
	if drops != 1 || m.DroppedDead != 1 {
		t.Fatalf("drops=%d DroppedDead=%d, want 1/1", drops, m.DroppedDead)
	}
	// Bank 12 sits below the bottom row on column 15's router... use the
	// bank attached to the dead router's column edge: banks 4..7 attach to
	// the bottom row (routers 12..15), so bank 7 attaches to router 15.
	deadBank := m.space.LLCNode(7)
	if !m.TrySend(msg.Message{Src: 5, Dst: deadBank, Kind: msg.KindLoadReq}) {
		t.Fatal("retarget policy refused")
	}
	for m.QueuedFlits() > 0 {
		m.Tick(0)
	}
	if delivered[m.space.LLCNode(0)] != 1 {
		t.Fatalf("retargeted flit not delivered to failover bank: %v", delivered)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}
