package sim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// counter is a toy component: Propose computes next = v + step into a
// buffer, Commit applies it, and it stops counting once v reaches limit.
type counter struct {
	v, next int64
	step    int64
	limit   int64
	commits int64
}

func (c *counter) Propose(now int64) {
	if c.v < c.limit {
		c.next = c.v + c.step
	} else {
		c.next = c.v
	}
}

func (c *counter) Commit(now int64) {
	c.v = c.next
	c.commits++
}

func runEngine(t *testing.T, workers, shardCount int) []int64 {
	t.Helper()
	shards := make([]Shard, shardCount)
	for i := range shards {
		shards[i] = Shard{&counter{step: int64(i + 1), limit: int64(100 * (i + 1))}}
	}
	e := NewEngine([]Stage{{Name: "count", Shards: shards}}, workers)
	e.Start()
	defer e.Stop()
	for now := int64(0); now < 200; now++ {
		e.Tick(now)
	}
	out := make([]int64, shardCount)
	for i, sh := range shards {
		out[i] = sh[0].(*counter).v
	}
	return out
}

// TestDeterministicAcrossWorkers checks the parallel engine produces the
// exact serial result for several worker counts and shard counts.
func TestDeterministicAcrossWorkers(t *testing.T) {
	for _, shardCount := range []int{1, 3, 16, 67} {
		want := runEngine(t, 1, shardCount)
		for _, workers := range []int{2, 4, 8} {
			got := runEngine(t, workers, shardCount)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d workers=%d: shard %d got %d want %d",
						shardCount, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStageOrdering checks Pre, Propose, Commit, Post run in the declared
// order with a full barrier between phases: every Propose of a stage sees
// the Pre mutation, and Post sees every Commit.
func TestStageOrdering(t *testing.T) {
	var preSeen, postTotal int64
	const shardCount = 12
	shards := make([]Shard, shardCount)
	probes := make([]*probe, shardCount)
	for i := range shards {
		p := &probe{preSeen: &preSeen}
		probes[i] = p
		shards[i] = Shard{p}
	}
	e := NewEngine([]Stage{{
		Name:   "probe",
		Pre:    func(now int64) { atomic.StoreInt64(&preSeen, now+1) },
		Shards: shards,
		Post: func(now int64) {
			postTotal = 0
			for _, p := range probes {
				postTotal += p.committed
			}
		},
	}}, 4)
	e.Start()
	defer e.Stop()
	for now := int64(0); now < 50; now++ {
		e.Tick(now)
		if postTotal != int64(shardCount)*(now+1) {
			t.Fatalf("cycle %d: Post saw %d commits, want %d", now, postTotal, int64(shardCount)*(now+1))
		}
	}
	for i, p := range probes {
		if p.badPre {
			t.Fatalf("probe %d observed a Propose before its stage's Pre", i)
		}
	}
}

type probe struct {
	preSeen   *int64
	badPre    bool
	committed int64
}

func (p *probe) Propose(now int64) {
	if atomic.LoadInt64(p.preSeen) != now+1 {
		p.badPre = true
	}
}
func (p *probe) Commit(now int64) { p.committed++ }

// TestWorkerPanicPropagates checks a panic inside a worker-executed Propose
// resurfaces on the goroutine driving Tick, so machine.Run's recover sees it.
func TestWorkerPanicPropagates(t *testing.T) {
	shards := make([]Shard, 8)
	for i := range shards {
		if i == 5 {
			shards[i] = Shard{&panicker{}}
		} else {
			shards[i] = Shard{&counter{limit: 100}}
		}
	}
	e := NewEngine([]Stage{{Shards: shards}}, 4)
	e.Start()
	defer e.Stop()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not propagate to Tick caller")
		}
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("panic value %T, want *PanicError", r)
		}
		if fmt.Sprint(pe.Val) != "boom" {
			t.Fatalf("unexpected panic value %v", pe.Val)
		}
		if !strings.Contains(string(pe.Stack), "panicker") {
			t.Fatalf("PanicError stack does not point at the panicking component:\n%s", pe.Stack)
		}
	}()
	e.Tick(0)
}

type panicker struct{}

func (p *panicker) Propose(now int64) { panic("boom") }
func (p *panicker) Commit(now int64)  {}

// TestMeter checks slot ownership and totals.
func TestMeter(t *testing.T) {
	m := NewMeter(4)
	for i := 0; i < 4; i++ {
		*m.Slot(i) += int64(i + 1)
	}
	if got := m.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
}

// TestProfileCountsTicks checks the attached self-profile meters every stage
// tick, produces identical simulation results, and renders a table.
func TestProfileCountsTicks(t *testing.T) {
	shards := []Shard{{&counter{step: 1, limit: 50}}}
	e := NewEngine([]Stage{
		{Name: "alpha", Shards: shards},
		{Name: "beta"},
	}, 1)
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
	s := p.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "beta") {
		t.Fatalf("profile table missing stages:\n%s", s)
	}
}

// napper is a Sleeper that works (ticks count) until cycle busyUntil, then
// asks to sleep until wake; skipped accumulates what CatchUp back-fills.
type napper struct {
	busyUntil, wake int64
	ticks, skipped  int64
}

func (n *napper) Propose(now int64) { n.ticks++ }
func (n *napper) Commit(now int64)  {}
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
	}, 1)
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
