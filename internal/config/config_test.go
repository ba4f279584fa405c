package config

import (
	"errors"
	"testing"

	"rockcress/internal/msg"
)

// TestValidateRefusesOverflowingFabric holds Validate to the 64-byte flit's
// field widths: a fabric with more nodes than a msg.Node can name, or more
// load-queue entries than an LQSlot can index, is refused with a
// *RangeError. Only config values are checked; no fabric is built.
func TestValidateRefusesOverflowingFabric(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mod   func(*Manycore)
		what  string
		nodes int
	}{
		{"nodes", func(m *Manycore) {
			m.MeshWidth, m.MeshHeight = 256, 128
			m.Cores = m.MeshWidth * m.MeshHeight
		}, "nodes", 256*128 + 16},
		{"load queue", func(m *Manycore) { m.LoadQueueEntries = msg.MaxLQSlots + 1 }, "load queue entries", msg.MaxLQSlots + 1},
	} {
		m := ManycoreDefault()
		tc.mod(&m)
		var re *RangeError
		if err := m.Validate(); !errors.As(err, &re) {
			t.Errorf("%s: Validate() = %v, want a *RangeError", tc.name, err)
		} else if re.What != tc.what || re.N != tc.nodes {
			t.Errorf("%s: RangeError %+v, want %s = %d", tc.name, re, tc.what, tc.nodes)
		}
	}
	// The largest fabric whose node ids fit still validates.
	m := ManycoreDefault()
	m.MeshWidth, m.MeshHeight, m.LLCBanks = 128, 254, 256
	m.Cores = m.MeshWidth * m.MeshHeight
	m.LLCBytes = m.LLCBanks * 16 * 1024
	if n := m.Cores + m.LLCBanks; n != msg.MaxNodes {
		t.Fatalf("edge fabric has %d nodes, want %d", n, msg.MaxNodes)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("a %d-node fabric: %v", msg.MaxNodes, err)
	}
}

// TestParkedFabricValidates keeps the parked 16x31 shape (bsg_manycore's
// shipped array: 496 tiles, 32 LLC banks) inside the flit's id range.
func TestParkedFabricValidates(t *testing.T) {
	m := ManycoreDefault()
	m.MeshWidth, m.MeshHeight, m.LLCBanks = 16, 31, 32
	m.Cores = m.MeshWidth * m.MeshHeight
	m.LLCBytes = m.LLCBanks * 16 * 1024
	if err := m.Validate(); err != nil {
		t.Errorf("16x31 with 32 banks: %v", err)
	}
}
