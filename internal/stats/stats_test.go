package stats

import "testing"

func TestCPIStack(t *testing.T) {
	m := New(2, 1)
	c0 := &m.Cores[0]
	c0.StallCycles[StallNone] = 100
	c0.StallCycles[StallFrame] = 50
	c0.StallCycles[StallOther] = 25
	c1 := &m.Cores[1]
	c1.StallCycles[StallNone] = 100
	c1.StallCycles[StallInet] = 300
	st := m.CPIStackFor([]int{0})
	if st.Issued != 1 || st.Frame != 0.5 || st.Other != 0.25 || st.Total() != 1.75 {
		t.Fatalf("bad stack: %+v", st)
	}
	both := m.CPIStackFor([]int{0, 1})
	if both.Inet != 1.5 {
		t.Fatalf("aggregate inet %g, want 1.5", both.Inet)
	}
}

func TestCPIStackNoIssues(t *testing.T) {
	m := New(1, 1)
	st := m.CPIStackFor([]int{0})
	if st.Total() != 0 {
		t.Fatal("empty core produced a stack")
	}
}

func TestStallFractionByHop(t *testing.T) {
	m := New(3, 1)
	m.Cores[0].Hop = -1 // not in a group: skipped
	m.Cores[0].StallCycles[StallInet] = 999
	m.Cores[1].Hop = 1
	m.Cores[1].StallCycles[StallInet] = 30
	m.Cores[1].StallCycles[StallNone] = 70
	m.Cores[2].Hop = 2
	m.Cores[2].StallCycles[StallInet] = 50
	m.Cores[2].StallCycles[StallNone] = 50
	frac := m.StallFractionByHop(StallInet)
	if len(frac) != 2 {
		t.Fatalf("hops reported: %v", frac)
	}
	if frac[1] != 0.3 || frac[2] != 0.5 {
		t.Fatalf("fractions: %v", frac)
	}
}

func TestAggregates(t *testing.T) {
	m := New(2, 2)
	m.Cores[0].ICacheAccesses = 10
	m.Cores[1].ICacheAccesses = 5
	if m.TotalICacheAccesses() != 15 {
		t.Fatal("icache total wrong")
	}
	m.LLCs[0].Accesses = 10
	m.LLCs[0].Misses = 5
	m.LLCs[1].Accesses = 10
	m.LLCs[1].Misses = 1
	if got := m.LLCMissRate(); got != 0.3 {
		t.Fatalf("miss rate %g, want 0.3", got)
	}
	m.Cores[0].CountClass(3)
	m.Cores[0].CountClass(3)
	if m.TotalInstrs() != 2 || m.Cores[0].InstrsByClass[3] != 2 {
		t.Fatal("class counting wrong")
	}
	if m.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestFrameStallFraction(t *testing.T) {
	m := New(1, 1)
	m.Cores[0].StallCycles[StallFrame] = 25
	m.Cores[0].StallCycles[StallNone] = 75
	if got := m.FrameStallFraction([]int{0}); got != 0.25 {
		t.Fatalf("frame fraction %g", got)
	}
}
