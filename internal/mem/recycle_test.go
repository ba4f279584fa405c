package mem

import (
	"reflect"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/msg"
	"rockcress/internal/stats"
)

// fill sets every element of a slab to v.
func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// zeroed reports whether every element of a slab is the zero value.
func zeroed[T any](s []T) bool { return reflect.DeepEqual(s, make([]T, len(s))) }

// checkZeroed fails t for every named slab that is not all zero.
func checkZeroed(t *testing.T, who string, slabs map[string]bool) {
	t.Helper()
	for name, ok := range slabs {
		if !ok {
			t.Errorf("%s parked its %s slab uncleared", who, name)
		}
	}
}

// TestRecycleParksClearedSlabs: whatever a machine left in its LLC and
// scratchpad slabs, the sets RecycleLLCBanks and RecycleScratchpads park
// are all zero, so the next build of the shape starts where a cold one
// does. Every slab is scribbled first, so a recycle that skips any one
// slab's clear fails here, including slabs a constructor rewrites whole.
func TestRecycleParksClearedSlabs(t *testing.T) {
	cfg := config.ManycoreDefault()
	g, _ := NewGlobal(1 << 20)
	defer g.Recycle()
	d, _ := NewDRAM(cfg.DRAMLatency, cfg.DRAMBandwidth, cfg.LLCBanks)
	banks, err := NewLLCBanks(cfg, msg.NodeSpace{Cores: cfg.Cores, Banks: cfg.LLCBanks}, &sink{}, d, g,
		nolanes{}, make([]stats.LLC, cfg.LLCBanks))
	if err != nil {
		t.Fatal(err)
	}
	ls := banks[0].slabs
	fill(ls.lines, llcLine{valid: true, dirty: true, addr: 64})
	fill(ls.data, 7)
	fill(ls.plru, 1)
	fill(ls.mshr, llcMSHR{busy: true, first: 2})
	fill(ls.reqQ, msg.Message{Addr: 4})
	fill(ls.events, mshrEvent{next: 3})
	fill(ls.jobs, respJob{n: 1})
	fill(ls.words, 9)
	RecycleLLCBanks(banks)
	if got, ok := llcPool.Get(ls.shape); !ok || got != ls {
		t.Fatal("RecycleLLCBanks parked nothing")
	}
	checkZeroed(t, "RecycleLLCBanks", map[string]bool{
		"bank": zeroed(ls.banks), "bank pointer": zeroed(ls.ptrs), "line": zeroed(ls.lines),
		"data": zeroed(ls.data), "PLRU": zeroed(ls.plru), "MSHR": zeroed(ls.mshr),
		"request": zeroed(ls.reqQ), "event": zeroed(ls.events), "job": zeroed(ls.jobs),
		"word": zeroed(ls.words),
	})

	spads, err := NewScratchpads(cfg.SpadBytes, cfg.FrameCounters, make([]stats.Core, 4))
	if err != nil {
		t.Fatal(err)
	}
	EnableIntegrity(spads)
	ss := spads[0].slabs
	fill(ss.words, 5)
	fill(ss.counters, 1)
	fill(ss.parity, 2)
	fill(ss.pending, 3)
	fill(ss.fillStart, 4)
	fill(ss.openAt, 6)
	fill(ss.recs, FrameSeg{Off: 8, Words: 1})
	RecycleScratchpads(spads)
	if got, ok := spadPool.Get(ss.shape); !ok || got != ss {
		t.Fatal("RecycleScratchpads parked nothing")
	}
	checkZeroed(t, "RecycleScratchpads", map[string]bool{
		"scratchpad": zeroed(ss.spads), "scratchpad pointer": zeroed(ss.ptrs), "word": zeroed(ss.words),
		"counter": zeroed(ss.counters), "parity": zeroed(ss.parity), "record list": zeroed(ss.segs),
		"pending": zeroed(ss.pending), "fill-start": zeroed(ss.fillStart), "open-at": zeroed(ss.openAt),
		"delivery record": zeroed(ss.recs),
	})
}
