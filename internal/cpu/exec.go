package cpu

// Execution helpers shared by the per-op semantics functions in lower.go:
// register writeback, global memory and remote-scratchpad traffic, vloads,
// CSRs, and control-flow target application. LowerProgram picks each
// instruction's semantics function once per program; the functions read
// their operands from the instruction's lowEntry.

import (
	"math"

	"rockcress/internal/isa"
	"rockcress/internal/msg"
	"rockcress/internal/stats"
)

func (c *Core) writeInt(r isa.Reg, v uint32, readyAt int64) {
	if r == isa.X0 {
		return
	}
	c.intRegs[r] = v
	c.intReady[r] = readyAt
}

func (c *Core) writeFp(f isa.FReg, v float32, readyAt int64) {
	c.fpRegs[f] = v
	c.fpReady[f] = readyAt
}

// globalLoad issues one word load to the LLC (lw/flw). rd/fd is the
// destination register number for the int/fp variant respectively.
func (c *Core) globalLoad(now int64, rs1 isa.Reg, imm uint32, isFp bool, rd, fd uint8) (bool, stats.StallKind) {
	slot := -1
	for i := range c.lq {
		if !c.lq[i].busy {
			slot = i
			break
		}
	}
	if slot < 0 {
		return false, stats.StallFrame // waiting on memory: LQ full
	}
	addr := c.intRegs[rs1] + imm
	c.out = msg.Message{
		Kind: msg.KindLoadReq, Src: msg.Node(c.ID), Dst: msg.Node(c.env.LLCNodeFor(addr)),
		Addr: addr, Words: 1, LQSlot: uint8(slot),
	}
	if !c.env.TrySend(&c.out) {
		return false, stats.StallOther
	}
	if isFp {
		c.lq[slot] = lqEntry{busy: true, isFp: true, reg: fd}
		c.fpReady[fd] = pendingLoad
		c.fpPending |= 1 << fd
	} else {
		c.lq[slot] = lqEntry{busy: true, reg: rd}
		if isa.Reg(rd) != isa.X0 {
			c.intReady[rd] = pendingLoad
			c.intPending |= 1 << rd
		}
	}
	return true, stats.StallNone
}

func (c *Core) globalStore(now int64, rs1 isa.Reg, imm, val uint32) (bool, stats.StallKind) {
	addr := c.intRegs[rs1] + imm
	c.out = msg.Message{
		Kind: msg.KindStoreReq, Src: msg.Node(c.ID), Dst: msg.Node(c.env.LLCNodeFor(addr)),
		Addr: addr, Words: 1,
	}
	c.out.Vals[0] = val
	if !c.env.TrySend(&c.out) {
		return false, stats.StallOther
	}
	return true, stats.StallNone
}

func (c *Core) remoteStore(now int64, rs3, rs1 isa.Reg, imm, val uint32) (bool, stats.StallKind) {
	if c.intRegs[rs3] >= uint32(c.cfg.Cores) {
		c.fail("remote store to tile %d outside the %d-tile fabric", c.intRegs[rs3], c.cfg.Cores)
		return true, stats.StallNone
	}
	c.out = msg.Message{
		Kind: msg.KindRemoteStore, Src: msg.Node(c.ID), Dst: msg.Node(c.intRegs[rs3]),
		SpadOff: c.intRegs[rs1] + imm, Words: 1,
	}
	c.out.Vals[0] = val
	if !c.env.TrySend(&c.out) {
		return false, stats.StallOther
	}
	return true, stats.StallNone
}

// execVload issues one wide vector load from the scalar core (or a
// self-prefetch from an independent core in the NV_PF configurations).
func (c *Core) execVload(now int64, in *isa.Instr) (bool, stats.StallKind) {
	addr := c.intRegs[in.Rs1]
	spadOff := c.intRegs[in.Rs2]
	vl := in.Vl
	lineBytes := uint32(c.cfg.CacheLineBytes)
	nlanes := 1
	group := -1
	if vl.Dist != isa.VloadSelf {
		if c.group == nil || c.group.Scalar != c.ID {
			c.fail("%s vload outside a scalar role", vl.Dist)
			return true, stats.StallNone
		}
		group = c.group.ID
		if vl.Dist == isa.VloadGroup {
			nlanes = c.group.VLen() - vl.BaseLane
		}
	}
	total := vl.Width * nlanes
	if total < 0 || total > math.MaxUint16 {
		c.fail("vload of %d words outside a request's range [0, %d]", total, math.MaxUint16)
		return true, stats.StallNone
	}
	line := addr &^ (lineBytes - 1)
	dstLine := line
	if vl.Part == isa.VloadPrefix {
		dstLine = line + lineBytes
	}
	c.out = msg.Message{
		Kind: msg.KindVloadReq, Src: msg.Node(c.ID), Dst: msg.Node(c.env.LLCNodeFor(dstLine)),
		Addr: addr, Words: uint16(total), SpadOff: spadOff,
		Vload: msg.Vload{BaseLane: uint16(vl.BaseLane), Width: uint16(vl.Width), Dist: vl.Dist, Part: vl.Part},
		Group: int16(group), ReqCore: msg.Node(c.ID),
	}
	if !c.env.TrySend(&c.out) {
		return false, stats.StallOther
	}
	c.st.VloadsIssued++
	return true, stats.StallNone
}

func (c *Core) execCsrw(now int64, in *isa.Instr) (bool, stats.StallKind) {
	v := c.intRegs[in.Rs1]
	switch in.Csr {
	case isa.CsrVconfig:
		if v == 0 {
			c.fail("vconfig 0: use devec to disband")
			return true, stats.StallNone
		}
		c.state = stFormGroup
		c.ticket = c.env.GroupArrive(c.ID)
		return true, stats.StallNone
	case isa.CsrFrameCfg:
		c.spad.Configure(int(v&0xffff), int((v>>16)&0xff))
		return true, stats.StallNone
	case isa.CsrCkpt:
		c.env.ArmCheckpoint()
		return true, stats.StallNone
	default:
		c.fail("write to read-only CSR %s", in.Csr)
		return true, stats.StallNone
	}
}

func (c *Core) readCSR(csr isa.CSR) uint32 {
	switch csr {
	case isa.CsrCoreID:
		return uint32(c.ID)
	case isa.CsrNumCores:
		return uint32(c.cfg.Cores)
	case isa.CsrLaneID:
		if c.laneIdx < 0 {
			return 0xffffffff
		}
		return uint32(c.laneIdx)
	case isa.CsrGroupID:
		if c.group == nil {
			return 0xffffffff
		}
		return uint32(c.group.ID)
	case isa.CsrNumGroups:
		return uint32(c.numGroups())
	}
	c.fail("read of CSR %s", csr)
	return 0
}

// jumpTo applies a resolved control-flow target. In a microthread (expander)
// the vpc moves; otherwise the pc moves. Taken control flow pays the branch
// penalty; the expander's fetch pause is charged by its caller.
func (c *Core) jumpTo(now int64, micro bool, target int, taken bool) {
	if micro {
		c.setVPC(target)
	} else {
		c.setPC(target)
	}
	if taken {
		c.fetchReadyAt = now + int64(c.cfg.BranchPenalty)
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// IEEE bit moves between the register files (fmv.x.w, fmv.w.x, fp memory).
func f32bits(x float32) uint32     { return math.Float32bits(x) }
func f32frombits(x uint32) float32 { return math.Float32frombits(x) }
