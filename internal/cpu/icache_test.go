package cpu

import (
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/inet"
	"rockcress/internal/isa"
	"rockcress/internal/mem"
	"rockcress/internal/msg"
	"rockcress/internal/stats"
)

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

// --- decode-cache coherence (pre-lowered dispatch) ---
//
// The decode cache (ICache.decoded) models which pre-lowered entries a core
// holds "decoded": an entry becomes resident when the frontend fetches its
// pc and must be dropped exactly when the icache evicts the backing line.
// These tests pin that coherence contract through eviction, mode switches,
// and the fault-recovery ForceDisband path, via the DecodeCached hook.

type stubEnv struct{ err error }

func (stubEnv) TrySend(msg.Message) bool    { return true }
func (stubEnv) LLCNodeFor(uint32) int       { return 0 }
func (stubEnv) GroupArrive(int) int64       { return 0 }
func (stubEnv) GroupFormed(int, int64) bool { return true }
func (stubEnv) BarrierArrive(int) int64     { return 0 }
func (stubEnv) BarrierDone(int64) bool      { return true }
func (stubEnv) NotifyHalt(int)              {}
func (stubEnv) NumGroups() int              { return 0 }
func (stubEnv) ArmCheckpoint()              {}
func (e *stubEnv) Error(err error)          { e.err = err }

// newDecodeCore builds an ungrouped (independent-mode) core over a straight-
// line program of n-1 nops and a halt, sized to span several icache lines.
func newDecodeCore(t *testing.T, n int) (*Core, *stubEnv) {
	t.Helper()
	code := make([]isa.Instr, n)
	for i := range code {
		code[i] = isa.Instr{Op: isa.OpNop}
	}
	code[n-1] = isa.Instr{Op: isa.OpHalt}
	prog := &isa.Program{Name: "decode-test", Code: code, Labels: map[string]int{}}
	cfg := config.ManycoreDefault()
	env := &stubEnv{}
	st := make([]stats.Core, 1)
	spads, err := mem.NewScratchpads(cfg.SpadBytes, cfg.FrameCounters, st)
	if err != nil {
		t.Fatal(err)
	}
	cores, err := NewCores(cfg, LowerProgram(prog, cfg), env, st, spads, nil, inet.Net{})
	if err != nil {
		t.Fatal(err)
	}
	return cores[0], env
}

// runToHalt ticks the core until it halts (or the cycle bound trips).
func runToHalt(t *testing.T, c *Core, env *stubEnv) {
	t.Helper()
	for now := int64(0); !c.Halted(); now++ {
		if now > 100000 {
			t.Fatal("core did not halt within the cycle bound")
		}
		c.Tick(now)
		if env.err != nil {
			t.Fatal(env.err)
		}
	}
}

func TestDecodeCacheFillsOnFetch(t *testing.T) {
	// 40 nops span three 16-instruction lines; all fit in the 4 kB icache,
	// so after one pass every fetched pc is held decoded.
	c, env := newDecodeCore(t, 40)
	if c.DecodeCached(0) {
		t.Fatal("pc 0 decoded before any fetch")
	}
	runToHalt(t, c, env)
	for pc := 0; pc < 40; pc++ {
		if !c.DecodeCached(pc) {
			t.Fatalf("pc %d not decoded after execution with resident icache", pc)
		}
	}
	if c.DecodeCached(-1) || c.DecodeCached(40) {
		t.Fatal("out-of-range pc reported decoded")
	}
}

func TestDecodeCacheInvalidatedOnEviction(t *testing.T) {
	c, env := newDecodeCore(t, 40)
	runToHalt(t, c, env)
	// Default geometry: 4 kB 2-way 64 B lines = 32 sets, so byte addresses
	// 2048 and 4096 alias line 0's set. Filling both ways with aliases must
	// displace line 0 and drop exactly its 16 pcs (0..15); line 1 (set 1)
	// stays resident and decoded.
	c.icache.Access(2048)
	c.icache.Access(4096)
	for pc := 0; pc < 16; pc++ {
		if c.DecodeCached(pc) {
			t.Fatalf("pc %d still decoded after its icache line was evicted", pc)
		}
	}
	for pc := 16; pc < 40; pc++ {
		if !c.DecodeCached(pc) {
			t.Fatalf("pc %d dropped but its line was never evicted", pc)
		}
	}
}

func TestDecodeCacheSurvivesModeSwitch(t *testing.T) {
	// Decode state is tied to icache residency, not to the core's role:
	// switching modes must neither drop entries nor detach the eviction
	// hook.
	c, env := newDecodeCore(t, 40)
	runToHalt(t, c, env)
	for _, m := range []Mode{ModeScalar, ModeVector, ModeIndependent} {
		c.mode = m
		if !c.DecodeCached(0) || !c.DecodeCached(39) {
			t.Fatalf("mode switch to %s dropped decoded entries", m)
		}
	}
	c.mode = ModeVector
	c.icache.Access(2048)
	c.icache.Access(4096)
	if c.DecodeCached(0) {
		t.Fatal("eviction hook inert after mode switches")
	}
	if !c.DecodeCached(16) {
		t.Fatal("eviction in vector mode dropped an unrelated line")
	}
}

func TestDecodeCacheSurvivesForceDisband(t *testing.T) {
	// ForceDisband abandons the core's group role and redirects it to the
	// recovery pc. The decode cache must survive (the icache kept its
	// lines) and keep tracking evictions afterwards.
	c, env := newDecodeCore(t, 40)
	runToHalt(t, c, env)
	c.halted = false // re-arm the core so disband redirects it
	c.ForceDisband(500, 16)
	if c.Mode() != ModeIndependent {
		t.Fatalf("mode after disband = %s, want independent", c.Mode())
	}
	if c.PC() != 16 {
		t.Fatalf("pc after disband = %d, want 16", c.PC())
	}
	for pc := 0; pc < 40; pc++ {
		if !c.DecodeCached(pc) {
			t.Fatalf("disband dropped decoded pc %d with its line still resident", pc)
		}
	}
	// Resume at the recovery pc: the warm decode cache and icache mean the
	// core re-issues without re-fetch misses, and the eviction hook is
	// still wired.
	for now := int64(501); !c.Halted(); now++ {
		if now > 101000 {
			t.Fatal("core did not halt after disband")
		}
		c.Tick(now)
		if env.err != nil {
			t.Fatal(env.err)
		}
	}
	c.icache.Access(2048)
	c.icache.Access(4096)
	if c.DecodeCached(0) {
		t.Fatal("eviction hook inert after ForceDisband")
	}
}
