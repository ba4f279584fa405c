package sim

import (
	"strings"
	"testing"
)

// counter is a toy component that counts by step until it reaches limit.
type counter struct {
	v, step, limit int64
}

func (c *counter) Tick(now int64) {
	if c.v < c.limit {
		c.v += c.step
	}
}

// TestStageOrdering checks Pre, the shard ticks and Post run in declared
// order: every component sees its stage's Pre, components tick in shard
// order and within a shard in declared order, and Post sees every tick.
func TestStageOrdering(t *testing.T) {
	var preSeen int64
	var order []int
	const shardCount = 12
	shards := make([]Shard, shardCount)
	probes := make([]*probe, 2*shardCount)
	for i := range probes {
		probes[i] = &probe{id: i, preSeen: &preSeen, order: &order}
	}
	for i := range shards {
		shards[i] = Shard{probes[2*i], probes[2*i+1]}
	}
	var postTotal int64
	e := NewEngine([]Stage{{
		Name:   "probe",
		Pre:    func(now int64) { preSeen = now + 1 },
		Shards: shards,
		Post: func(now int64) {
			postTotal = 0
			for _, p := range probes {
				postTotal += p.ticks
			}
		},
	}})
	for now := int64(0); now < 50; now++ {
		order = order[:0]
		e.Tick(now)
		if postTotal != int64(len(probes))*(now+1) {
			t.Fatalf("cycle %d: Post saw %d ticks, want %d", now, postTotal, int64(len(probes))*(now+1))
		}
		for i, id := range order {
			if id != i {
				t.Fatalf("cycle %d: tick %d went to component %d, want declared order", now, i, id)
			}
		}
	}
	for i, p := range probes {
		if p.badPre {
			t.Fatalf("probe %d ticked before its stage's Pre", i)
		}
	}
}

type probe struct {
	id      int
	preSeen *int64
	order   *[]int
	badPre  bool
	ticks   int64
}

func (p *probe) Tick(now int64) {
	if *p.preSeen != now+1 {
		p.badPre = true
	}
	*p.order = append(*p.order, p.id)
	p.ticks++
}

// TestProfileCountsTicks checks the attached self-profile meters every stage
// tick, produces identical simulation results, and renders a table.
func TestProfileCountsTicks(t *testing.T) {
	shards := []Shard{{&counter{step: 1, limit: 50}}}
	e := NewEngine([]Stage{
		{Name: "alpha", Shards: shards},
		{Name: "beta"},
	})
	var p Prof
	e.SetProfile(&p)
	for now := int64(0); now < 10; now++ {
		e.Tick(now)
	}
	if len(p.Stages) != 2 || p.Stages[0].Name != "alpha" || p.Stages[1].Name != "beta" {
		t.Fatalf("stage meters = %+v", p.Stages)
	}
	for i := range p.Stages {
		if p.Stages[i].Ticks != 10 {
			t.Fatalf("stage %d ticked %d times, want 10", i, p.Stages[i].Ticks)
		}
	}
	if got := shards[0][0].(*counter).v; got != 10 {
		t.Fatalf("profiled run diverged: v = %d, want 10", got)
	}
	// Re-attach keeps cumulative meters when the layout matches.
	e.SetProfile(&p)
	e.Tick(10)
	if p.Stages[0].Ticks != 11 {
		t.Fatalf("re-attach reset meters: %d", p.Stages[0].Ticks)
	}
	p.FastForward.Ticks = 1
	s := p.String()
	for _, want := range []string{"alpha", "beta", "fast-forward"} {
		if !strings.Contains(s, want) {
			t.Fatalf("profile table missing %q:\n%s", want, s)
		}
	}
	// Same length, different names: the meters are rebuilt, not mislabelled.
	other := NewEngine([]Stage{{Name: "gamma"}, {Name: "delta"}})
	other.SetProfile(&p)
	if p.Stages[0].Name != "gamma" || p.Stages[0].Ticks != 0 {
		t.Fatalf("attach to a different layout kept stale meters: %+v", p.Stages)
	}
}

// napper is a Sleeper that works (ticks count) until cycle busyUntil, then
// asks to sleep until wake; skipped accumulates what CatchUp back-fills.
type napper struct {
	busyUntil, wake int64
	ticks, skipped  int64
}

func (n *napper) Tick(now int64) { n.ticks++ }
func (n *napper) Park(now int64) (bool, int64) {
	return now >= n.busyUntil, n.wake
}
func (n *napper) CatchUp(k int64) { n.skipped += k }

// TestNextWake pins the one question the run loop asks the engine: the
// earliest parked wake once every shard of every stage is parked and no
// Waker has latched, now otherwise — and that Sync settles the books without
// changing the answer.
func TestNextWake(t *testing.T) {
	a := &napper{busyUntil: 0, wake: 40}
	b := &napper{busyUntil: 3, wake: 25}
	c := &napper{busyUntil: 0, wake: Never}
	e := NewEngine([]Stage{
		{Name: "one", Shards: []Shard{{a}, {b}}},
		{Name: "two", Shards: []Shard{{c}}},
	})
	if got := e.NextWake(0); got != 0 {
		t.Fatalf("before the first tick NextWake(0) = %d, want 0", got)
	}
	for now := int64(0); now < 3; now++ {
		e.Tick(now)
		if got := e.NextWake(now + 1); got != now+1 {
			t.Fatalf("shard b unparked: NextWake(%d) = %d, want now", now+1, got)
		}
	}
	e.Tick(3) // b parks too
	if got := e.NextWake(4); got != 25 {
		t.Fatalf("all parked: NextWake(4) = %d, want the min wake 25", got)
	}

	// Sync back-fills in place: books settled, shards still parked, the
	// answer unchanged, and a second Sync has nothing left to replay.
	e.Sync(10)
	if a.skipped != 9 || b.skipped != 6 || c.skipped != 9 {
		t.Fatalf("Sync(10) back-filled %d/%d/%d cycles, want 9/6/9", a.skipped, b.skipped, c.skipped)
	}
	e.Sync(10)
	if a.skipped != 9 || b.skipped != 6 || c.skipped != 9 {
		t.Fatalf("second Sync(10) back-filled again: %d/%d/%d", a.skipped, b.skipped, c.skipped)
	}
	if got := e.NextWake(10); got != 25 {
		t.Fatalf("after Sync NextWake(10) = %d, want 25", got)
	}
	ticks := a.ticks + b.ticks + c.ticks
	e.Tick(10)
	if a.ticks+b.ticks+c.ticks != ticks {
		t.Fatal("Sync unparked a shard: a parked-stage tick ran components")
	}

	// A latched Waker makes the answer now until the shard's stage ticks.
	e.WakerFor(1, 0).Wake() // stage "two", shard {c}
	if got := e.NextWake(11); got != 11 {
		t.Fatalf("latched wake: NextWake(11) = %d, want now", got)
	}
	e.Tick(11)
	if c.ticks != 2 || c.skipped != 10 {
		t.Fatalf("woken shard: %d ticks, %d cycles back-filled, want 2 and 10", c.ticks, c.skipped)
	}
	if got := e.NextWake(12); got != 25 {
		t.Fatalf("re-parked: NextWake(12) = %d, want 25", got)
	}

	// The wake cycle itself ticks the shard, with every skipped cycle
	// accounted exactly once across Sync and unpark.
	for now := int64(12); now <= 25; now++ {
		e.Tick(now)
	}
	if b.ticks != 5 || b.ticks+b.skipped != 26 {
		t.Fatalf("shard b: %d ticks + %d back-filled over 26 cycles", b.ticks, b.skipped)
	}
}
