package noc

import (
	"math/rand"
	"testing"

	"rockcress/internal/msg"
)

// TestFlitConservation drives random traffic through a 4x4 mesh whose
// endpoints refuse a quarter of deliveries, and after every Tick holds the
// flit books: queued equals the ring occupancy, the free list holds exactly
// the arena slots no ring entry references, and Flits counts accepted
// injections. The cutlink run also harvests mid-flight, reroutes around a
// cut link and re-injects the survivors.
func TestFlitConservation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cutAt int // cycle of the harvest + cutlink; -1 never
	}{{"xy", -1}, {"cutlink", 150}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var refusedDeliveries, refusedSends int
			m, err := New(4, 4, 8, 2, func(int, *msg.Message) bool {
				if rng.Intn(4) == 0 {
					refusedDeliveries++
					return false
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes := m.Space().Nodes()
			var accepted int64
			var pending []msg.Message // harvested, waiting to re-enter
			send := func(f msg.Message) bool {
				if m.TrySend(&f) {
					accepted++
					return true
				}
				refusedSends++
				return false
			}
			retry := func() {
				q := pending[:0]
				for _, f := range pending {
					if !send(f) {
						q = append(q, f)
					}
				}
				pending = q
			}
			for now := 0; now < 400; now++ {
				if now == tc.cutAt {
					pending = append(pending, m.HarvestAll()...)
					checkFlitBooks(t, m, accepted)
					if m.Busy() {
						t.Fatal("mesh busy after harvest")
					}
					if err := m.CutLink(5, 6); err != nil {
						t.Fatal(err)
					}
				}
				retry()
				for k := 0; k < 6; k++ {
					src, dst := rng.Intn(nodes), rng.Intn(nodes)
					if src != dst {
						send(msg.Message{Src: msg.Node(src), Dst: msg.Node(dst), Kind: msg.KindLoadResp, Addr: uint32(now)})
					}
				}
				m.Tick(int64(now))
				checkFlitBooks(t, m, accepted)
			}
			if refusedDeliveries == 0 || refusedSends == 0 {
				t.Fatalf("no backpressure exercised: %d refused deliveries, %d refused sends",
					refusedDeliveries, refusedSends)
			}
			if tc.cutAt >= 0 && m.RouteRebuilds == 0 {
				t.Fatal("cutlink run never rerouted")
			}
			// Drain: every flit leaves and every slot returns.
			for i := 0; i < 10_000 && (m.Busy() || len(pending) > 0); i++ {
				retry()
				m.Tick(0)
				checkFlitBooks(t, m, accepted)
			}
			if m.Busy() || len(pending) > 0 {
				t.Fatalf("mesh did not drain: %d flits queued, %d waiting", m.QueuedFlits(), len(pending))
			}
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checkFlitBooks asserts the mesh's flit accounting against its rings and
// arena: see TestFlitConservation.
func checkFlitBooks(t *testing.T, m *Mesh, accepted int64) {
	t.Helper()
	const (
		unseen = iota
		inRing
		inFree
	)
	slot := make([]uint8, len(m.flits))
	var held int64
	for qi, r := range m.queues {
		held += int64(r.n)
		for k := int32(0); k < r.n; k++ {
			i := r.head + k
			if end := int32((qi + 1) * m.cap); i >= end {
				i -= int32(m.cap)
			}
			idx := m.bufs[i].idx
			if slot[idx] != unseen {
				t.Fatalf("arena slot %d referenced by two ring entries", idx)
			}
			slot[idx] = inRing
		}
	}
	if m.queued != held {
		t.Fatalf("queued = %d, rings hold %d", m.queued, held)
	}
	free := 0
	for s := m.freeHead; s >= 0; s = m.next[s] {
		switch slot[s] {
		case inRing:
			t.Fatalf("arena slot %d is both free and queued", s)
		case inFree:
			t.Fatalf("arena slot %d is on the free list twice", s)
		}
		slot[s] = inFree
		free++
	}
	if want := len(m.flits) - int(m.queued); free != want {
		t.Fatalf("free list holds %d slots, want arena %d - queued %d = %d",
			free, len(m.flits), m.queued, want)
	}
	if m.Flits != accepted {
		t.Fatalf("Flits = %d, accepted sends = %d", m.Flits, accepted)
	}
}
