package cpu

import (
	"reflect"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/inet"
	"rockcress/internal/isa"
	"rockcress/internal/mem"
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

// TestRecycleParksClearedSlabs: whatever a run left in the cores' and
// I-caches' slabs, the sets RecycleCores parks are all zero, so the next
// build of the shape starts where a cold one does. Every slab is scribbled
// first, so a recycle that skips any one slab's clear fails here.
func TestRecycleParksClearedSlabs(t *testing.T) {
	cfg := config.ManycoreDefault()
	st := make([]stats.Core, 4)
	spads, err := mem.NewScratchpads(cfg.SpadBytes, cfg.FrameCounters, st)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.RecycleScratchpads(spads)
	low := LowerProgram(&isa.Program{Name: "rows", Code: allRows(t)}, cfg)
	cores, err := NewCores(cfg, low, nil, st, spads, nil, inet.Net{})
	if err != nil {
		t.Fatal(err)
	}
	cs := cores[0].slabs
	is := cs.icaches[0].slabs
	fill(cs.lq, lqEntry{busy: true, reg: 3})
	fill(cs.vec, 1.5)
	fill(is.tags, 7)
	fill(is.valid, true)
	fill(is.mru, 1)
	RecycleCores(cores)
	if got, ok := corePool.Get(cs.shape); !ok || got != cs {
		t.Fatal("RecycleCores parked no cores")
	}
	if got, ok := icachePool.Get(is.shape); !ok || got != is {
		t.Fatal("RecycleCores parked no I-caches")
	}
	for name, ok := range map[string]bool{
		"core": zeroed(cs.cores), "core pointer": zeroed(cs.ptrs), "load-queue": zeroed(cs.lq),
		"vector-register": zeroed(cs.vec), "I-cache list": cs.icaches == nil,
		"I-cache": zeroed(is.caches), "tag": zeroed(is.tags), "valid": zeroed(is.valid), "MRU": zeroed(is.mru),
	} {
		if !ok {
			t.Errorf("RecycleCores parked the %s slab uncleared", name)
		}
	}
}
