package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rockcress/internal/alloctest"
	"rockcress/internal/config"
	"rockcress/internal/isa"
	"rockcress/internal/msg"
	"rockcress/internal/stats"
)

func TestGlobalRoundTrip(t *testing.T) {
	g, _ := NewGlobal(4096)
	g.WriteWord(0, 0xdeadbeef)
	g.WriteWord(4092, 42)
	if g.ReadWord(0) != 0xdeadbeef || g.ReadWord(4092) != 42 {
		t.Fatal("word round trip failed")
	}
	line := make([]uint32, 16)
	for i := range line {
		line[i] = uint32(i * 3)
	}
	g.WriteLine(1024, line)
	got := make([]uint32, 16)
	g.ReadLine(1024, got)
	for i := range line {
		if got[i] != line[i] {
			t.Fatalf("line word %d: %d != %d", i, got[i], line[i])
		}
	}
}

func TestGlobalBoundsError(t *testing.T) {
	g, _ := NewGlobal(4096)
	if v := g.ReadWord(4096); v != 0 {
		t.Fatalf("out-of-range read returned %d, want 0", v)
	}
	if g.Err() == nil {
		t.Fatal("out-of-range access did not latch an error")
	}
	g2, _ := NewGlobal(4096)
	g2.WriteWord(2, 1) // unaligned
	if g2.Err() == nil {
		t.Fatal("unaligned access did not latch an error")
	}
}

func TestDRAMOrdering(t *testing.T) {
	g, _ := NewGlobal(4096)
	d, _ := NewDRAM(60, 16, 1)
	// A write then a read of the same line must observe the write: the
	// shared channel serializes them.
	data := make([]uint32, 16)
	for i := range data {
		data[i] = uint32(100 + i)
	}
	d.Write(0, 0, data, 0)
	d.Read(1, 0, 64, 0)
	var fills []Fill
	for now := int64(0); now < 300; now++ {
		fills = append(fills, d.Completed(now, g)...)
	}
	if len(fills) != 1 {
		t.Fatalf("got %d fills, want 1", len(fills))
	}
	if g.ReadWord(0) != 100 {
		t.Fatal("write not applied before read completion")
	}
	if d.Pending() != 0 {
		t.Fatal("operations still pending")
	}
}

func TestDRAMBandwidthSerializes(t *testing.T) {
	g, _ := NewGlobal(1 << 20)
	d, _ := NewDRAM(60, 16, 1) // 4 cycles per 64B line
	for i := 0; i < 10; i++ {
		d.Read(0, uint32(i*64), 64, 0)
	}
	// All issued at cycle 0: channel occupancy serializes them 4 cycles
	// apart; the last line completes no earlier than 60 + 10*4.
	done := 0
	var lastAt int64
	for now := int64(0); now < 500; now++ {
		fs := d.Completed(now, g)
		done += len(fs)
		if len(fs) > 0 {
			lastAt = now
		}
	}
	if done != 10 {
		t.Fatalf("%d fills, want 10", done)
	}
	if lastAt < 60+40 {
		t.Fatalf("last fill at %d: bandwidth not enforced", lastAt)
	}
}

// --- scratchpad frames ---

// oneSpad builds a lone 4 KiB scratchpad (tile 0) with hwFrames frame
// counters, and the stats it counts into.
func oneSpad(hwFrames int) (*Scratchpad, *stats.Core) {
	st := make([]stats.Core, 1)
	spads, _ := NewScratchpads(4096, hwFrames, st)
	return spads[0], &st[0]
}

func newSpad(t *testing.T, frameWords, frames int) (*Scratchpad, *stats.Core) {
	t.Helper()
	s, st := oneSpad(5)
	s.Configure(frameWords, frames)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return s, st
}

func TestFrameLifecycle(t *testing.T) {
	s, st := newSpad(t, 4, 3)
	if s.FrameReady() {
		t.Fatal("empty frame reported ready")
	}
	// Fill frame 0 out of order (arrival order within a frame is free).
	for _, off := range []uint32{12, 0, 8, 4} {
		s.ArriveWord(off, 0, off*10)
	}
	if !s.FrameReady() {
		t.Fatal("full frame not ready")
	}
	if s.FrameBase() != 0 {
		t.Fatalf("head frame base %d, want 0", s.FrameBase())
	}
	if s.ReadWord(8) != 80 {
		t.Fatal("frame data wrong")
	}
	s.FreeFrame()
	if s.FrameReady() {
		t.Fatal("frame 1 should be empty")
	}
	if s.FrameBase() != 16 {
		t.Fatalf("head frame base %d, want 16", s.FrameBase())
	}
	if st.FramesConsumed != 1 {
		t.Fatalf("frames consumed %d, want 1", st.FramesConsumed)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameOverflowDetected(t *testing.T) {
	s, _ := newSpad(t, 2, 2)
	// Fill both open frames, then one more word wraps onto the head slot
	// while it is still full: data for a frame beyond the counters (the
	// Fig. 9 violation) must surface.
	for off := uint32(0); off < 16; off += 4 {
		s.ArriveWord(off, 0, 1)
	}
	s.ArriveWord(0, 0, 2)
	if s.Err() == nil {
		t.Fatal("frame overflow not detected")
	}
}

func TestRememUnderflowDetected(t *testing.T) {
	s, _ := newSpad(t, 4, 2)
	s.FreeFrame()
	if s.Err() == nil {
		t.Fatal("remem of an unfilled frame not detected")
	}
}

// TestFrameWindowProperty: for random interleavings of arrivals and frees,
// the head frame only reports ready when exactly frameWords words arrived
// for it, and in-order consumption holds.
func TestFrameWindowProperty(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const fw, frames = 4, 3
		s, _ := oneSpad(5)
		s.Configure(fw, frames)
		arrived := make([]int, 64) // per absolute frame seq
		consumed := 0
		pendingSeq := 0 // next frame to load words into
		for step := 0; step < 200; step++ {
			if r.Intn(2) == 0 && pendingSeq < consumed+frames && pendingSeq < 60 {
				// Deliver one word of frame pendingSeq.
				k := arrived[pendingSeq]
				off := uint32((pendingSeq%frames)*fw*4 + k*4)
				s.ArriveWord(off, 0, 7)
				arrived[pendingSeq]++
				if arrived[pendingSeq] == fw {
					pendingSeq++
				}
			} else if s.FrameReady() {
				s.FreeFrame()
				consumed++
			}
			if s.Err() != nil {
				return false
			}
			wantReady := arrived[consumed] == fw
			if s.FrameReady() != wantReady {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- LLC ---

type sink struct {
	msgs []msg.Message
	full bool
}

func (s *sink) TrySend(m *msg.Message) bool {
	if s.full {
		return false
	}
	s.msgs = append(s.msgs, *m)
	return true
}

type nolanes struct{}

func (nolanes) LaneTile(g, l int) (int, bool) { return 0, false }

func newBank(t *testing.T) (*LLCBank, *Global, *DRAM, *sink, *stats.LLC) {
	t.Helper()
	cfg := config.ManycoreDefault()
	g, _ := NewGlobal(1 << 20)
	d, _ := NewDRAM(cfg.DRAMLatency, cfg.DRAMBandwidth, cfg.LLCBanks)
	out := &sink{}
	st := make([]stats.LLC, cfg.LLCBanks)
	banks, err := NewLLCBanks(cfg, msg.NodeSpace{Cores: cfg.Cores, Banks: cfg.LLCBanks}, out, d, g, nolanes{}, st)
	if err != nil {
		t.Fatal(err)
	}
	return banks[0], g, d, out, &st[0]
}

// runBank ticks the bank+DRAM until quiescent.
func runBank(b *LLCBank, d *DRAM, g *Global, cycles int64) {
	for now := int64(0); now < cycles; now++ {
		for _, f := range d.Completed(now, g) {
			b.Install(now, f.LineAddr)
		}
		b.Tick(now)
	}
}

func TestLLCLoadMissThenHit(t *testing.T) {
	b, g, d, out, st := newBank(t)
	g.WriteWord(0x1000, 77)
	req := msg.Message{Kind: msg.KindLoadReq, Src: 3, Dst: 64, Addr: 0x1000, Words: 1, LQSlot: 1}
	b.Accept(&req)
	runBank(b, d, g, 200)
	if len(out.msgs) != 1 || out.msgs[0].Vals[0] != 77 || out.msgs[0].Dst != 3 {
		t.Fatalf("bad response: %+v", out.msgs)
	}
	if st.Misses != 1 {
		t.Fatalf("misses %d, want 1", st.Misses)
	}
	b.Accept(&req)
	runBank(b, d, g, 10)
	if len(out.msgs) != 2 {
		t.Fatal("hit not served quickly")
	}
	if st.Misses != 1 {
		t.Fatalf("second access missed")
	}
}

func TestLLCStoreCoalescesIntoMiss(t *testing.T) {
	b, g, d, out, _ := newBank(t)
	g.WriteWord(0x2000, 5)
	b.Accept(&msg.Message{Kind: msg.KindStoreReq, Src: 1, Dst: 64, Addr: 0x2000, Vals: [msg.MaxWords]uint32{9}, Words: 1})
	b.Accept(&msg.Message{Kind: msg.KindLoadReq, Src: 1, Dst: 64, Addr: 0x2000, Words: 1, LQSlot: 0})
	runBank(b, d, g, 200)
	if len(out.msgs) != 1 || out.msgs[0].Vals[0] != 9 {
		t.Fatalf("load did not observe coalesced store: %+v", out.msgs)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestLLCWritebackOnEviction(t *testing.T) {
	b, g, d, _, st := newBank(t)
	// Dirty one line, then stream enough distinct lines through its set to
	// evict it; its value must land back in the global store.
	b.Accept(&msg.Message{Kind: msg.KindStoreReq, Src: 1, Dst: 64, Addr: 0x0, Vals: [msg.MaxWords]uint32{123}, Words: 1})
	runBank(b, d, g, 200)
	// Same set: bank 0 owns lines at stride banks*lineBytes = 1024; the
	// set repeats every sets*1024 bytes.
	cfg := config.ManycoreDefault()
	sets := cfg.LLCBytes / cfg.LLCBanks / (cfg.CacheLineBytes * cfg.LLCWays)
	stride := uint32(sets * cfg.LLCBanks * cfg.CacheLineBytes)
	for w := 1; w <= cfg.LLCWays+1; w++ {
		b.Accept(&msg.Message{Kind: msg.KindLoadReq, Src: 1, Dst: 64, Addr: uint32(w) * stride, Words: 1, LQSlot: 0})
		runBank(b, d, g, 200)
	}
	if st.Writebacks == 0 {
		t.Fatal("no writeback recorded")
	}
	if g.ReadWord(0) != 123 {
		t.Fatalf("writeback lost: mem=%d", g.ReadWord(0))
	}
}

func TestLLCUnalignedPairCoversBlock(t *testing.T) {
	b, g, d, out, _ := newBank(t)
	// Block of 16 words starting 3 words into a line: suffix serves 13,
	// prefix serves 3 from the next line the bank also owns? Lines stripe
	// across banks, so the pair targets different banks; here we hand both
	// to one bank with the right line ownership by using addresses 1024
	// apart... simpler: use the same bank's two consecutive owned lines.
	// Bank 0 owns line 0 (addr 0) and line 16 (addr 0x400).
	for i := 0; i < 512; i++ {
		g.WriteWord(uint32(4*i), uint32(i))
	}
	addr := uint32(52) // word 13 of line 0
	vl := msg.Vload{Width: 16, Dist: isa.VloadSelf}
	suffix := msg.Message{Kind: msg.KindVloadReq, Src: 2, Dst: 64, Addr: addr, Words: 16,
		SpadOff: 0, Vload: vl, Group: -1, ReqCore: 2}
	suffix.Vload.Part = isa.VloadSuffix
	b.Accept(&suffix)
	runBank(b, d, g, 300)
	words := 0
	for _, m := range out.msgs {
		words += int(m.Words)
	}
	if words != 3 { // line 0 holds words 13,14,15 of the block
		t.Fatalf("suffix served %d words, want 3", words)
	}
	// The prefix half goes to the bank owning the NEXT line; that is bank
	// 1 in the striped layout, so from bank 0's perspective nothing more
	// arrives. Verify destination offsets were continuous.
	if out.msgs[0].SpadOff != 0 {
		t.Fatalf("first suffix word at offset %d, want 0", out.msgs[0].SpadOff)
	}
}

func TestLLCRefusesWhenFull(t *testing.T) {
	b, _, _, _, _ := newBank(t)
	cfg := config.ManycoreDefault()
	for i := 0; i < cfg.LLCReqQueue; i++ {
		if !b.CanAccept() {
			t.Fatal("queue full early")
		}
		b.Accept(&msg.Message{Kind: msg.KindLoadReq, Addr: uint32(i * 64), Words: 1})
	}
	if b.CanAccept() {
		t.Fatal("queue should be full")
	}
}

// wordSink counts the response words a bank sends, keeping nothing.
type wordSink struct{ words int }

func (s *wordSink) TrySend(m *msg.Message) bool {
	s.words += int(m.Words)
	return true
}

// TestLLCAllocsIndependentOfLoads serves rounds of whole-line wide loads
// through one bank: a round fills the request queue with loads of a fresh
// line (the first misses, the rest queue on its MSHR and become a burst of
// jobs when the fill installs) and adds one more that hits, and the next
// round starts once the bank has drained. The bank's buffers grow to the
// backlog one round builds and then serve any number of rounds: serving
// eight times the loads allocates no more.
func TestLLCAllocsIndependentOfLoads(t *testing.T) {
	cfg := config.ManycoreDefault()
	lineWords := cfg.CacheLineBytes / 4
	per := cfg.LLCReqQueue + 1 // loads per round
	serve := func(rounds int) (allocs int64, words int) {
		g, _ := NewGlobal(1 << 20)
		d, _ := NewDRAM(cfg.DRAMLatency, cfg.DRAMBandwidth, cfg.LLCBanks)
		out := &wordSink{}
		st := make([]stats.LLC, cfg.LLCBanks)
		banks, err := NewLLCBanks(cfg, msg.NodeSpace{Cores: cfg.Cores, Banks: cfg.LLCBanks}, out, d, g, nolanes{}, st)
		if err != nil {
			t.Fatal(err)
		}
		b := banks[0]
		reqs := make([]msg.Message, per*rounds)
		for i := range reqs {
			// Bank 0 owns every LLCBanks-th line.
			reqs[i] = msg.Message{Kind: msg.KindVloadReq, Src: 2, Dst: 64,
				Addr:  uint32(i / per * cfg.LLCBanks * cfg.CacheLineBytes),
				Words: uint16(lineWords), Vload: msg.Vload{Width: uint16(lineWords), Dist: isa.VloadSelf},
				Group: -1, ReqCore: 2}
		}
		now := int64(0)
		allocs = alloctest.Count(func() {
			for r := 0; r < rounds; r++ {
				round := reqs[r*per : (r+1)*per]
				for k := range round[:per-1] {
					b.Accept(&round[k])
				}
				filled := false
				for ; !filled || b.Busy() || d.Pending() > 0; now++ {
					if now > int64(1000*(r+1)) || b.Err() != nil {
						t.Fatalf("round %d still busy at cycle %d (err %v)", r, now, b.Err())
					}
					for _, f := range d.Completed(now, g) {
						b.Install(now, f.LineAddr)
						b.Accept(&round[per-1])
						filled = true
					}
					b.Tick(now)
				}
			}
		})
		if err := b.Err(); err != nil {
			t.Fatal(err)
		}
		return allocs, out.words
	}
	const n = 16
	few, fewWords := serve(n)
	many, manyWords := serve(8 * n)
	t.Logf("one bank, %d loads: %d allocations; %d loads: %d", per*n, few, 8*per*n, many)
	if want := per * n * lineWords; fewWords != want || manyWords != 8*want {
		t.Fatalf("served %d and %d words, want %d and %d", fewWords, manyWords, want, 8*want)
	}
	if many > few {
		t.Errorf("serving %d wide loads allocates %d times, more than the %d of serving %d: a buffer is allocated per access",
			8*per*n, many, few, per*n)
	}
}
