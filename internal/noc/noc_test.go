package noc

import (
	"math/rand"
	"testing"

	"rockcress/internal/msg"
)

type collector struct {
	got    map[int][]msg.Message
	refuse func(node int) bool
}

func newCollector() *collector { return &collector{got: map[int][]msg.Message{}} }

func (c *collector) deliver(node int, m *msg.Message) bool {
	if c.refuse != nil && c.refuse(node) {
		return false
	}
	c.got[node] = append(c.got[node], *m)
	return true
}

// drain ticks m from cycle 0 until it is empty or maxTicks cycles pass.
func drain(m *Mesh, maxTicks int) {
	for i := 0; i < maxTicks && m.Busy(); i++ {
		m.Tick(int64(i))
	}
}

func newMesh(t *testing.T, w, h, banks, queueCap int, deliver Deliver) *Mesh {
	t.Helper()
	m, err := New(w, h, banks, queueCap, deliver)
	if err != nil {
		t.Fatalf("noc.New: %v", err)
	}
	return m
}

func TestDelivery(t *testing.T) {
	c := newCollector()
	m := newMesh(t, 8, 8, 16, 4, c.deliver)
	f := msg.Message{Kind: msg.KindRemoteStore, Src: 0, Dst: 63, Vals: [msg.MaxWords]uint32{42}, Words: 1}
	if !m.TrySend(&f) {
		t.Fatal("inject failed")
	}
	drain(m, 100)
	if len(c.got[63]) != 1 || c.got[63][0].Vals[0] != 42 {
		t.Fatalf("flit not delivered: %+v", c.got)
	}
	// Manhattan distance 0->63 on an 8x8 mesh is 14 hops.
	if m.Hops != 14 {
		t.Fatalf("hops %d, want 14 (XY route)", m.Hops)
	}
}

// TestRoutesAreXYUntilFirstFault: on a healthy mesh every input port's row
// of the one route table holds the XY route, and no detour table exists.
func TestRoutesAreXYUntilFirstFault(t *testing.T) {
	for _, sz := range []struct{ w, h, banks int }{{8, 8, 16}, {4, 4, 8}, {4, 1, 8}, {1, 1, 2}} {
		m := newMesh(t, sz.w, sz.h, sz.banks, 4, newCollector().deliver)
		for tile := 0; tile < sz.w*sz.h; tile++ {
			for in := port(0); in < numPorts; in++ {
				for dst := 0; dst < m.nodes; dst++ {
					if got, want := m.routeAt(tile, in, dst), m.route(tile, dst); got != want {
						t.Fatalf("%dx%d/%d: router %d input %d -> node %d routes via port %d, want XY port %d",
							sz.w, sz.h, sz.banks, tile, in, dst, got, want)
					}
				}
			}
		}
		if m.detourTab != nil {
			t.Fatalf("%dx%d/%d: detour table allocated before any topology fault", sz.w, sz.h, sz.banks)
		}
	}
}

func TestLLCAttachment(t *testing.T) {
	c := newCollector()
	m := newMesh(t, 8, 8, 16, 4, c.deliver)
	// Bank 3 hangs above router (0,3); bank 11 below router (7,3).
	for _, bank := range []int{3, 11} {
		node := m.Space().LLCNode(bank)
		if !m.TrySend(&msg.Message{Kind: msg.KindLoadReq, Src: 27, Dst: msg.Node(node), Words: 1}) {
			t.Fatal("inject failed")
		}
	}
	drain(m, 100)
	for _, bank := range []int{3, 11} {
		node := m.Space().LLCNode(bank)
		if len(c.got[node]) != 1 {
			t.Fatalf("bank %d got %d flits", bank, len(c.got[node]))
		}
	}
}

func TestBackpressure(t *testing.T) {
	c := newCollector()
	m := newMesh(t, 4, 4, 0, 2, c.deliver)
	blocked := true
	c.refuse = func(node int) bool { return node == 5 && blocked }
	// Flood toward one refusing node: queues fill, injection eventually fails.
	sent := 0
	for i := 0; i < 100; i++ {
		if m.TrySend(&msg.Message{Kind: msg.KindRemoteStore, Src: 4, Dst: 5, Vals: [msg.MaxWords]uint32{1}, Words: 1}) {
			sent++
		}
		m.Tick(0)
	}
	if sent == 100 {
		t.Fatal("no backpressure: all 100 flits injected against a blocked sink")
	}
	blocked = false
	drain(m, 1000)
	if len(c.got[5]) != sent {
		t.Fatalf("delivered %d, sent %d", len(c.got[5]), sent)
	}
}

// TestPairwiseFIFO: flits between one (src,dst) pair arrive in order — the
// property stores rely on for same-address ordering.
func TestPairwiseFIFO(t *testing.T) {
	c := newCollector()
	m := newMesh(t, 8, 8, 16, 4, c.deliver)
	r := rand.New(rand.NewSource(5))
	type pair struct{ src, dst int }
	pairs := []pair{{0, 63}, {7, 56}, {12, 34}, {40, 3}}
	next := map[pair]uint32{}
	sent := map[pair][]uint32{}
	for tick := 0; tick < 3000; tick++ {
		if tick < 2000 {
			p := pairs[r.Intn(len(pairs))]
			f := msg.Message{Kind: msg.KindRemoteStore, Src: msg.Node(p.src), Dst: msg.Node(p.dst),
				Vals: [msg.MaxWords]uint32{next[p]}, Words: 1, SpadOff: uint32(p.src)}
			if m.TrySend(&f) {
				sent[p] = append(sent[p], next[p])
				next[p]++
			}
		}
		m.Tick(0)
	}
	drain(m, 5000)
	for _, p := range pairs {
		var got []uint32
		for _, f := range c.got[p.dst] {
			if int(f.SpadOff) == p.src {
				got = append(got, f.Vals[0])
			}
		}
		if len(got) != len(sent[p]) {
			t.Fatalf("pair %v: delivered %d of %d", p, len(got), len(sent[p]))
		}
		for i := range got {
			if got[i] != sent[p][i] {
				t.Fatalf("pair %v: out of order at %d: %d != %d", p, i, got[i], sent[p][i])
			}
		}
	}
}

// TestAllToAllDelivery: every flit injected is eventually delivered exactly
// once under random all-to-all traffic.
func TestAllToAllDelivery(t *testing.T) {
	c := newCollector()
	m := newMesh(t, 8, 8, 16, 4, c.deliver)
	r := rand.New(rand.NewSource(11))
	injected := 0
	for tick := 0; tick < 2000; tick++ {
		for k := 0; k < 4; k++ {
			src := r.Intn(64)
			dst := r.Intn(64)
			if src == dst {
				continue
			}
			if m.TrySend(&msg.Message{Kind: msg.KindRemoteStore, Src: msg.Node(src), Dst: msg.Node(dst),
				Vals: [msg.MaxWords]uint32{uint32(injected)}, Words: 1}) {
				injected++
			}
		}
		m.Tick(0)
	}
	drain(m, 20000)
	if m.Busy() {
		t.Fatal("mesh did not drain")
	}
	total := 0
	for _, fs := range c.got {
		total += len(fs)
	}
	if total != injected {
		t.Fatalf("delivered %d of %d", total, injected)
	}
	if m.QueuedFlits() != 0 {
		t.Fatal("queued flits after drain")
	}
}

// TestLinkRetry: a judge that drops the first few traversals of one link
// delays the flit but never loses it — the retry protocol retransmits and
// the flit arrives intact.
func TestLinkRetry(t *testing.T) {
	c := newCollector()
	m := newMesh(t, 4, 4, 0, 4, c.deliver)
	fails := 3
	m.SetLinkJudge(func(now int64, from, to int) LinkVerdict {
		if from == 0 && to == 1 && fails > 0 {
			fails--
			return LinkDrop
		}
		return LinkOK
	})
	if !m.TrySend(&msg.Message{Kind: msg.KindRemoteStore, Src: 0, Dst: 3, Vals: [msg.MaxWords]uint32{7}, Words: 1}) {
		t.Fatal("inject failed")
	}
	drain(m, 500)
	if err := m.Err(); err != nil {
		t.Fatalf("unexpected link error: %v", err)
	}
	if len(c.got[3]) != 1 || c.got[3][0].Vals[0] != 7 {
		t.Fatalf("flit lost despite retry protocol: %+v", c.got)
	}
	if m.Retransmits != 3 || m.Dropped != 3 {
		t.Fatalf("retransmits=%d dropped=%d, want 3/3", m.Retransmits, m.Dropped)
	}
}

// TestLinkCorruptRetry: corrupt verdicts are counted separately but repaired
// the same way.
func TestLinkCorruptRetry(t *testing.T) {
	c := newCollector()
	m := newMesh(t, 4, 4, 0, 4, c.deliver)
	fails := 2
	m.SetLinkJudge(func(now int64, from, to int) LinkVerdict {
		if from == 0 && to == 1 && fails > 0 {
			fails--
			return LinkCorrupt
		}
		return LinkOK
	})
	if !m.TrySend(&msg.Message{Kind: msg.KindRemoteStore, Src: 0, Dst: 1, Vals: [msg.MaxWords]uint32{9}, Words: 1}) {
		t.Fatal("inject failed")
	}
	drain(m, 200)
	if len(c.got[1]) != 1 || c.got[1][0].Vals[0] != 9 {
		t.Fatalf("flit lost: %+v", c.got)
	}
	if m.Corrupt != 2 || m.Dropped != 0 {
		t.Fatalf("corrupt=%d dropped=%d, want 2/0", m.Corrupt, m.Dropped)
	}
}

// TestLinkDead: a link that never recovers exceeds MaxLinkRetries and
// latches a structured error instead of spinning forever.
func TestLinkDead(t *testing.T) {
	c := newCollector()
	m := newMesh(t, 4, 4, 0, 4, c.deliver)
	m.SetLinkJudge(func(now int64, from, to int) LinkVerdict {
		if from == 0 && to == 1 {
			return LinkDrop
		}
		return LinkOK
	})
	if !m.TrySend(&msg.Message{Kind: msg.KindRemoteStore, Src: 0, Dst: 1, Vals: [msg.MaxWords]uint32{1}, Words: 1}) {
		t.Fatal("inject failed")
	}
	for i := 0; i < 2000 && m.Err() == nil; i++ {
		m.Tick(int64(i))
	}
	if m.Err() == nil {
		t.Fatalf("dead link not detected after %d retransmits", m.Retransmits)
	}
	if len(c.got[1]) != 0 {
		t.Fatal("flit delivered across a dead link")
	}
}

// TestNilJudgeZeroCost: installing then clearing a judge leaves the mesh
// fault-free, and a nil judge changes no delivery behavior.
func TestNilJudgeZeroCost(t *testing.T) {
	c := newCollector()
	m := newMesh(t, 8, 8, 16, 4, c.deliver)
	m.SetLinkJudge(nil)
	if !m.TrySend(&msg.Message{Kind: msg.KindRemoteStore, Src: 0, Dst: 63, Vals: [msg.MaxWords]uint32{5}, Words: 1}) {
		t.Fatal("inject failed")
	}
	drain(m, 100)
	if len(c.got[63]) != 1 {
		t.Fatal("flit not delivered")
	}
	if m.Retransmits != 0 || m.Dropped != 0 || m.Corrupt != 0 {
		t.Fatal("fault stats counted with nil judge")
	}
}
