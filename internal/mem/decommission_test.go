package mem

import (
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/isa"
	"rockcress/internal/msg"
	"rockcress/internal/stats"
)

// laneTiles maps group 0's lane l to tile 10+l.
type laneTiles struct{}

func (laneTiles) LaneTile(g, l int) (int, bool) { return 10 + l, g == 0 && l < 8 }

// TestDecommissionFinishesPartlyStreamedJob kills a bank (killbank) while
// it owes the tail of a group vload and a scalar load queued behind it:
// the responses already streamed plus the ones Decommission emits must be
// exactly the flits streaming would have sent, in order.
func TestDecommissionFinishesPartlyStreamedJob(t *testing.T) {
	cfg := config.ManycoreDefault() // 4-word flits, 16-word lines
	g, _ := NewGlobal(1 << 20)
	d, _ := NewDRAM(cfg.DRAMLatency, cfg.DRAMBandwidth, cfg.LLCBanks)
	out := &sink{}
	st := make([]stats.LLC, cfg.LLCBanks)
	banks, err := NewLLCBanks(cfg, msg.NodeSpace{Cores: cfg.Cores, Banks: cfg.LLCBanks}, out, d, g, laneTiles{}, st)
	if err != nil {
		t.Fatal(err)
	}
	b := banks[0]
	for i := 0; i < 16; i++ {
		g.WriteWord(uint32(4*i), uint32(1000+i))
	}

	// Six words per lane over lanes 0..2: each lane's run splits into a
	// 4-word and a 2-word flit, the last lane's 4 words fit one.
	b.Accept(&msg.Message{Kind: msg.KindVloadReq, Src: 2, Dst: 64, Addr: 0, Words: 16, SpadOff: 0x40,
		Vload: msg.Vload{Width: 6, Dist: isa.VloadGroup}, Group: 0, ReqCore: 2})
	now := int64(0)
	for ; len(out.msgs) < 2 && now < 1000; now++ {
		for _, f := range d.Completed(now, g) {
			b.Install(now, f.LineAddr)
		}
		b.Tick(now)
	}
	// The mesh backs up: the load hits and queues behind the wide job.
	out.full = true
	b.Accept(&msg.Message{Kind: msg.KindLoadReq, Src: 3, Dst: 64, Addr: 8, Words: 1, LQSlot: 5})
	b.Tick(now)
	if len(out.msgs) != 2 {
		t.Fatalf("streamed %d flits before the kill, want 2", len(out.msgs))
	}

	var emitted []msg.Message
	b.Decommission(func(m msg.Message) { emitted = append(emitted, m) })
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}

	flit := func(dst msg.Node, off, addr uint32, first, n int) msg.Message {
		m := msg.Message{Kind: msg.KindSpadWord, Src: b.node, Dst: dst, SpadOff: off, Addr: addr, Words: uint16(n)}
		for i := 0; i < n; i++ {
			m.Vals[i] = uint32(1000 + first + i)
		}
		return m
	}
	load := msg.Message{Kind: msg.KindLoadResp, Src: b.node, Dst: 3, Addr: 8, Words: 1, LQSlot: 5}
	load.Vals[0] = 1002
	want := []msg.Message{
		flit(10, 0x40, 0, 0, 4),
		flit(10, 0x50, 16, 4, 2),
		flit(11, 0x40, 24, 6, 4),
		flit(11, 0x50, 40, 10, 2),
		flit(12, 0x40, 48, 12, 4),
		load,
	}
	got := append(append([]msg.Message(nil), out.msgs...), emitted...)
	if len(got) != len(want) {
		t.Fatalf("got %d responses, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("response %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if st[0].RespWords != 17 {
		t.Errorf("RespWords %d, want 17", st[0].RespWords)
	}
	if b.Busy() || !b.Idle() {
		t.Errorf("decommissioned bank still busy=%v idle=%v", b.Busy(), b.Idle())
	}
}
