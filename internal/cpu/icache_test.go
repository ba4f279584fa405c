package cpu

import "testing"

// newICache builds a lone 4 kB 2-way cache of 64 B lines.
func newICache() *ICache {
	cs, _ := NewICaches(1, 4096, 2, 64)
	return &cs[0]
}

func TestICacheHitAfterFill(t *testing.T) {
	c := newICache()
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) || !c.Access(60) {
		t.Fatal("same line missed after fill")
	}
	if c.Access(64) {
		t.Fatal("next line hit cold")
	}
}

func TestICacheAssociativity(t *testing.T) {
	c := newICache()
	// 4kB 2-way 64B lines = 32 sets; addresses 0, 2048, 4096 share set 0.
	c.Access(0)
	c.Access(2048)
	if !c.Access(0) || !c.Access(2048) {
		t.Fatal("two ways should both hold their lines")
	}
	c.Access(4096) // evicts the LRU way (line 0)
	if c.Access(0) {
		t.Fatal("line 0 should have been evicted")
	}
	// The probe above refilled line 0, evicting the then-LRU 2048.
	if !c.Access(4096) || !c.Access(0) {
		t.Fatal("recent lines evicted instead of LRU")
	}
}

func TestICacheLoopResidency(t *testing.T) {
	c := newICache()
	// A 512-instruction loop (2 kB) fits: after one warm pass every
	// access hits.
	for pc := uint32(0); pc < 512; pc++ {
		c.Access(pc * 4)
	}
	for pc := uint32(0); pc < 512; pc++ {
		if !c.Access(pc * 4) {
			t.Fatalf("pc %d missed in steady state", pc)
		}
	}
}
