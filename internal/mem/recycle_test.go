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
	// Bank 1 grew each ring past its piece during the run.
	b1 := banks[1]
	b1.growJobs(4 * len(b1.jobs))
	b1.growWords(4 * len(b1.words))
	b1.events = append(b1.events[:cap(b1.events)], mshrEvent{next: 5})[:1]
	grownJobs, grownWords, grownEvents := b1.jobs, b1.words, b1.events[:cap(b1.events)]
	fill(grownJobs, respJob{n: 2})
	fill(grownWords, 11)
	fill(grownEvents, mshrEvent{next: 4})
	fill(ls.lines, llcLine{valid: true, dirty: true, addr: 64})
	fill(ls.data, 7)
	fill(ls.plru, 1)
	fill(ls.mshr, llcMSHR{busy: true, first: 2})
	fill(ls.reqQ, msg.Message{Addr: 4})
	fill(ls.events, mshrEvent{next: 3})
	fill(ls.jobs, respJob{n: 1})
	fill(ls.words, 9)
	RecycleLLCBanks(banks)
	got, ok := llcPool.Get(ls.shape)
	if !ok || got != ls {
		t.Fatal("RecycleLLCBanks parked nothing")
	}
	checkZeroed(t, "RecycleLLCBanks", map[string]bool{
		"bank": zeroed(ls.banks), "bank pointer": zeroed(ls.ptrs), "line": zeroed(ls.lines),
		"data": zeroed(ls.data), "PLRU": zeroed(ls.plru), "MSHR": zeroed(ls.mshr),
		"request": zeroed(ls.reqQ), "event": zeroed(ls.events), "job": zeroed(ls.jobs),
		"word":           zeroed(ls.words),
		"grown job ring": zeroed(grownJobs), "grown word ring": zeroed(grownWords),
		"grown event": zeroed(grownEvents),
	})
	g1 := got.grown[1]
	if &g1.jobs[0] != &grownJobs[0] || &g1.words[0] != &grownWords[0] || len(g1.events) != 0 ||
		&g1.events[:1][0] != &grownEvents[0] || got.grown[0].jobs != nil {
		t.Error("RecycleLLCBanks did not park bank 1's grown rings, and only those, for bank 1")
	}
	llcPool.Put(ls.shape, got)
	again, err := NewLLCBanks(cfg, msg.NodeSpace{Cores: cfg.Cores, Banks: cfg.LLCBanks}, &sink{}, d, g,
		nolanes{}, make([]stats.LLC, cfg.LLCBanks))
	if err != nil {
		t.Fatal(err)
	}
	if &again[1].jobs[0] != &grownJobs[0] || len(again[1].words) != len(grownWords) || cap(again[1].events) != len(grownEvents) {
		t.Error("the next build's bank 1 did not start on the rings its predecessor grew")
	}
	RecycleLLCBanks(again)

	// Two writebacks complete, one is in flight when the run stops: both
	// payload buffers are parked.
	d.Write(0, 64, []uint32{1, 2}, 0)
	d.Write(0, 128, []uint32{1, 2}, 0)
	d.Read(0, 192, 64, 1)
	d.Completed(1<<20, g)
	d.Write(1<<20, 64, []uint32{3, 4}, 0)
	ds := d.dramSlabs
	inflight := ds.inFlight[0].data
	fill(ds.inFlight[:cap(ds.inFlight)], dramOp{doneAt: 9, lineAddr: 64, bank: 1, write: true})
	ds.inFlight[0].data = inflight
	fill(ds.done[:cap(ds.done)], dramOp{doneAt: 8})
	fill(ds.fills[:cap(ds.fills)], Fill{LineAddr: 64, Bank: 2})
	for _, buf := range ds.dataPool {
		fill(buf[:cap(buf)], 13)
	}
	fill(ds.inFlight[0].data, 13)
	d.Recycle()
	d.Recycle()
	dp, ok := dramPool.Get(cfg.LLCBanks)
	if !ok || &dp.done[:1][0] != &ds.done[:1][0] {
		t.Fatal("DRAM.Recycle parked nothing")
	}
	if again, ok := dramPool.Get(cfg.LLCBanks); ok && &again.done[:1][0] == &ds.done[:1][0] {
		t.Error("a second DRAM.Recycle parked the same queues again")
	}
	buffers := len(dp.dataPool) == 2
	for _, buf := range dp.dataPool {
		buffers = buffers && zeroed(buf[:cap(buf)])
	}
	checkZeroed(t, "DRAM.Recycle", map[string]bool{
		"in-flight": len(dp.inFlight) == 0 && zeroed(dp.inFlight[:cap(dp.inFlight)]),
		"done":      len(dp.done) == 0 && zeroed(dp.done[:cap(dp.done)]),
		"fill":      len(dp.fills) == 0 && zeroed(dp.fills[:cap(dp.fills)]),
		"writeback buffer (both, the in-flight one too)": buffers,
	})

	spads, err := NewScratchpads(cfg.SpadBytes, cfg.FrameCounters, make([]stats.Core, 4))
	if err != nil {
		t.Fatal(err)
	}
	EnableIntegrity(spads)
	spads[0].Configure(cfg.SpadBytes/4/cfg.FrameCounters, cfg.FrameCounters)
	ss := spads[0].slabs
	if len(ss.recs) != len(ss.words) || cap(spads[0].segs[0]) != spads[0].FrameWords() {
		t.Fatalf("%d delivery-record segments for %d scratchpad words, %d per %d-word frame; want one per word",
			len(ss.recs), len(ss.words), cap(spads[0].segs[0]), spads[0].FrameWords())
	}
	fill(ss.words, 5)
	fill(ss.counters, 1)
	fill(ss.parity, 2)
	fill(ss.pending, 3)
	fill(ss.fillStart, 4)
	fill(ss.openAt, 6)
	// A run writes only records Configure carved: tile 0's frames.
	fill(part(ss.recs, 0, ss.shape.words)[:spads[0].NumFrames()*spads[0].FrameWords()], FrameSeg{Off: 8, Words: 1})
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
