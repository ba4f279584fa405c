package cpu

// Program lowering: the decode work the old interpreter redid every cycle —
// operand field extraction, source/WAW readiness set computation, latency
// lookups, class/predicability/control-flow tests — is done once per
// (program, configuration) at machine build time. Each instruction becomes a
// lowEntry holding its readiness metadata and a closure that performs its
// semantics with the operands and latencies already resolved. The Lowered
// table is immutable and shared by every core of a machine; per-core decode
// *state* (which PCs the core currently holds decoded, coherent with its
// I-cache) lives in ICache.decoded.

import (
	"math"

	"rockcress/internal/config"
	"rockcress/internal/inet"
	"rockcress/internal/isa"
	"rockcress/internal/stats"
)

// execFn performs one non-control instruction's semantics at cycle now. It
// may refuse (resource hazards discovered at execution).
type execFn func(c *Core, now int64) (bool, stats.StallKind)

// ctlFn resolves one control-flow instruction (sources already checked).
type ctlFn func(c *Core, now int64, micro bool) (bool, stats.StallKind)

// lowEntry is one pre-lowered instruction.
type lowEntry struct {
	exec execFn
	ctl  ctlFn // non-nil exactly when the op is control flow

	// Source readiness (scoreboard check), in the old checkSources order:
	// int sources, fp sources, vec sources, then WAW int/fp/vec.
	srcInt          [3]isa.Reg
	srcFp           [3]isa.FReg
	srcVec          [3]uint8
	nInt, nFp, nVec uint8
	wawInt, wawFp   bool
	wawVec          bool
	rd              isa.Reg
	fd              isa.FReg
	vd              uint8

	pred    bool // predicated-off execution turns it into a nop
	vend    bool // microthread terminator (expander fetch loop)
	allowMT bool
	class   uint8

	// Park-probe flags: ops whose blocked exec path is side-effect free and
	// resolved by a mesh delivery (frameWait) or a same-shard inet pop
	// (sendWait), so a core stalled on them may sleep (see Core.Park).
	frameWait bool // frame_start waiting on the next frame to fill
	sendWait  bool // vissue/devec waiting on the expander queue
}

// Lowered is a program lowered against one hardware configuration.
type Lowered struct {
	Prog *isa.Program
	ents []lowEntry
}

// LowerProgram lowers prog once for cfg. The result is immutable and safe to
// share across every core of a machine.
func LowerProgram(prog *isa.Program, cfg config.Manycore) *Lowered {
	l := &Lowered{Prog: prog, ents: make([]lowEntry, len(prog.Code))}
	for i := range prog.Code {
		lowerInstr(&l.ents[i], &prog.Code[i], cfg)
	}
	return l
}

func lowerInstr(e *lowEntry, in *isa.Instr, cfg config.Manycore) {
	e.nInt = uint8(in.IntSrcs(&e.srcInt))
	e.nFp = uint8(in.FpSrcs(&e.srcFp))
	e.nVec = uint8(in.VecSrcs(&e.srcVec))
	e.wawInt = in.WritesInt()
	e.wawFp = in.WritesFp()
	e.wawVec = in.WritesVec()
	e.rd, e.fd, e.vd = in.Rd, in.Fd, in.Vd
	e.pred = isa.IsPredicatable(in.Op)
	e.vend = in.Op == isa.OpVend
	e.frameWait = in.Op == isa.OpFrameStart
	e.sendWait = in.Op == isa.OpVissue || in.Op == isa.OpDevec
	e.allowMT = isa.AllowedInMicrothread(in.Op)
	e.class = uint8(isa.Classify(in.Op))
	if isa.IsControlFlow(in.Op) {
		e.ctl = lowerControl(in)
		return
	}
	e.exec = lowerExec(in, cfg)
}

// lowerControl builds the resolver for one branch or jump. Field reads and
// the class constant are hoisted; the compare itself is the closure body.
func lowerControl(in *isa.Instr) ctlFn {
	rs1, rs2, rd := in.Rs1, in.Rs2, in.Rd
	imm := int(in.Imm)
	class := uint8(isa.Classify(in.Op))
	// next-pc helper is inlined per closure: cur is pc or vpc by mode.
	switch in.Op {
	case isa.OpBeq:
		return func(c *Core, now int64, micro bool) (bool, stats.StallKind) {
			c.branch(now, micro, c.intRegs[rs1] == c.intRegs[rs2], imm, class)
			return true, stats.StallNone
		}
	case isa.OpBne:
		return func(c *Core, now int64, micro bool) (bool, stats.StallKind) {
			c.branch(now, micro, c.intRegs[rs1] != c.intRegs[rs2], imm, class)
			return true, stats.StallNone
		}
	case isa.OpBlt:
		return func(c *Core, now int64, micro bool) (bool, stats.StallKind) {
			c.branch(now, micro, int32(c.intRegs[rs1]) < int32(c.intRegs[rs2]), imm, class)
			return true, stats.StallNone
		}
	case isa.OpBge:
		return func(c *Core, now int64, micro bool) (bool, stats.StallKind) {
			c.branch(now, micro, int32(c.intRegs[rs1]) >= int32(c.intRegs[rs2]), imm, class)
			return true, stats.StallNone
		}
	case isa.OpBltu:
		return func(c *Core, now int64, micro bool) (bool, stats.StallKind) {
			c.branch(now, micro, c.intRegs[rs1] < c.intRegs[rs2], imm, class)
			return true, stats.StallNone
		}
	case isa.OpBgeu:
		return func(c *Core, now int64, micro bool) (bool, stats.StallKind) {
			c.branch(now, micro, c.intRegs[rs1] >= c.intRegs[rs2], imm, class)
			return true, stats.StallNone
		}
	case isa.OpJal:
		return func(c *Core, now int64, micro bool) (bool, stats.StallKind) {
			next := c.curPC(micro) + 1
			c.writeInt(rd, uint32(next), now+1)
			c.st.CountClass(class)
			c.jumpTo(now, micro, imm, true)
			return true, stats.StallNone
		}
	case isa.OpJalr:
		return func(c *Core, now int64, micro bool) (bool, stats.StallKind) {
			next := c.curPC(micro) + 1
			// Write order matters when rd == rs1: the link register is
			// written first, so the target reads the link value.
			c.writeInt(rd, uint32(next), now+1)
			tgt := int(c.intRegs[rs1]) + imm
			c.st.CountClass(class)
			c.jumpTo(now, micro, tgt, true)
			return true, stats.StallNone
		}
	}
	op := in.Op
	return func(c *Core, now int64, micro bool) (bool, stats.StallKind) {
		c.fail("unimplemented control op %s", op)
		return true, stats.StallNone
	}
}

func (c *Core) curPC(micro bool) int {
	if micro {
		return c.vpc
	}
	return c.pc
}

// branch applies a resolved conditional branch: taken control flow pays the
// branch penalty (jumpTo), fall-through moves to next.
func (c *Core) branch(now int64, micro bool, taken bool, imm int, class uint8) {
	next := c.curPC(micro) + 1
	c.st.CountClass(class)
	if taken {
		c.jumpTo(now, micro, imm, true)
	} else {
		c.jumpTo(now, micro, next, false)
	}
}

// lowerExec builds the semantics closure for one non-control instruction.
// Latencies come from cfg once; operand fields are captured as locals.
func lowerExec(in *isa.Instr, cfg config.Manycore) execFn {
	aluLat := int64(cfg.ALULat)
	fpALULat := int64(cfg.FpALULat)
	rd, rs1, rs2, rs3 := in.Rd, in.Rs1, in.Rs2, in.Rs3
	fd, fs1, fs2, fs3 := in.Fd, in.Fs1, in.Fs2, in.Fs3
	vd, vs1, vs2 := in.Vd, in.Vs1, in.Vs2
	imm := in.Imm
	uimm := uint32(in.Imm)

	switch in.Op {
	case isa.OpNop:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			return true, stats.StallNone
		}
	case isa.OpAdd:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]+c.intRegs[rs2], now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpSub:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]-c.intRegs[rs2], now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpMul:
		mulLat := int64(cfg.MulLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, uint32(int32(c.intRegs[rs1])*int32(c.intRegs[rs2])), now+mulLat)
			return true, stats.StallNone
		}
	case isa.OpDiv, isa.OpRem:
		divLat := int64(cfg.DivLat)
		isRem := in.Op == isa.OpRem
		return func(c *Core, now int64) (bool, stats.StallKind) {
			if now < c.divBusyUntil {
				return false, stats.StallOther
			}
			c.divBusyUntil = now + divLat
			a, b := int32(c.intRegs[rs1]), int32(c.intRegs[rs2])
			var q, rem int32
			switch {
			case b == 0:
				q, rem = -1, a
			case a == -1<<31 && b == -1:
				q, rem = a, 0
			default:
				q, rem = a/b, a%b
			}
			v := q
			if isRem {
				v = rem
			}
			c.writeInt(rd, uint32(v), now+divLat)
			return true, stats.StallNone
		}
	case isa.OpAnd:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]&c.intRegs[rs2], now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpOr:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]|c.intRegs[rs2], now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpXor:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]^c.intRegs[rs2], now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpSll:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]<<(c.intRegs[rs2]&31), now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpSrl:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]>>(c.intRegs[rs2]&31), now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpSra:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, uint32(int32(c.intRegs[rs1])>>(c.intRegs[rs2]&31)), now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpSlt:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, b2u(int32(c.intRegs[rs1]) < int32(c.intRegs[rs2])), now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpSltu:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, b2u(c.intRegs[rs1] < c.intRegs[rs2]), now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpAddi:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]+uimm, now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpAndi:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]&uimm, now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpOri:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]|uimm, now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpXori:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]^uimm, now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpSlli:
		sh := uimm & 31
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]<<sh, now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpSrli:
		sh := uimm & 31
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.intRegs[rs1]>>sh, now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpSrai:
		sh := uimm & 31
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, uint32(int32(c.intRegs[rs1])>>sh), now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpSlti:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, b2u(int32(c.intRegs[rs1]) < imm), now+aluLat)
			return true, stats.StallNone
		}
	case isa.OpLi:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, uimm, now+aluLat)
			return true, stats.StallNone
		}

	case isa.OpFadd:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, c.fpRegs[fs1]+c.fpRegs[fs2], now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFsub:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, c.fpRegs[fs1]-c.fpRegs[fs2], now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFmul:
		fpMulLat := int64(cfg.FpMulLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, c.fpRegs[fs1]*c.fpRegs[fs2], now+fpMulLat)
			return true, stats.StallNone
		}
	case isa.OpFmadd:
		fpMulLat := int64(cfg.FpMulLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, c.fpRegs[fs1]*c.fpRegs[fs2]+c.fpRegs[fs3], now+fpMulLat)
			return true, stats.StallNone
		}
	case isa.OpFdiv:
		fpDivLat := int64(cfg.FpDivLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			if now < c.divBusyUntil {
				return false, stats.StallOther
			}
			c.divBusyUntil = now + fpDivLat
			c.writeFp(fd, c.fpRegs[fs1]/c.fpRegs[fs2], now+fpDivLat)
			return true, stats.StallNone
		}
	case isa.OpFsqrt:
		fpDivLat := int64(cfg.FpDivLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			if now < c.divBusyUntil {
				return false, stats.StallOther
			}
			c.divBusyUntil = now + fpDivLat
			c.writeFp(fd, sqrt32(c.fpRegs[fs1]), now+fpDivLat)
			return true, stats.StallNone
		}
	case isa.OpFmin:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, min64f(c.fpRegs[fs1], c.fpRegs[fs2]), now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFmax:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, max64f(c.fpRegs[fs1], c.fpRegs[fs2]), now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFabs:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, abs32(c.fpRegs[fs1]), now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFneg:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, -c.fpRegs[fs1], now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFmv:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, c.fpRegs[fs1], now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFeq:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, b2u(c.fpRegs[fs1] == c.fpRegs[fs2]), now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFlt:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, b2u(c.fpRegs[fs1] < c.fpRegs[fs2]), now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFle:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, b2u(c.fpRegs[fs1] <= c.fpRegs[fs2]), now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFcvtWS:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, uint32(int32(c.fpRegs[fs1])), now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFcvtSW:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, float32(int32(c.intRegs[rs1])), now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFmvXW:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, f32bits(c.fpRegs[fs1]), now+fpALULat)
			return true, stats.StallNone
		}
	case isa.OpFmvWX:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, f32frombits(c.intRegs[rs1]), now+fpALULat)
			return true, stats.StallNone
		}

	case isa.OpLw:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			return c.globalLoad(now, rs1, uimm, false, uint8(rd), 0)
		}
	case isa.OpFlw:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			return c.globalLoad(now, rs1, uimm, true, 0, uint8(fd))
		}
	case isa.OpSw:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			return c.globalStore(now, rs1, uimm, c.intRegs[rs2])
		}
	case isa.OpFsw:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			return c.globalStore(now, rs1, uimm, f32bits(c.fpRegs[fs2]))
		}

	case isa.OpLwSp:
		spadHitLat := int64(cfg.SpadHitLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.spad.ReadWord(c.intRegs[rs1]+uimm), now+spadHitLat)
			return true, stats.StallNone
		}
	case isa.OpFlwSp:
		spadHitLat := int64(cfg.SpadHitLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, f32frombits(c.spad.ReadWord(c.intRegs[rs1]+uimm)), now+spadHitLat)
			return true, stats.StallNone
		}
	case isa.OpSwSp:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.spad.WriteWord(c.intRegs[rs1]+uimm, c.intRegs[rs2])
			return true, stats.StallNone
		}
	case isa.OpFswSp:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.spad.WriteWord(c.intRegs[rs1]+uimm, f32bits(c.fpRegs[fs2]))
			return true, stats.StallNone
		}
	case isa.OpSwRemote:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			return c.remoteStore(now, rs3, rs1, uimm, c.intRegs[rs2])
		}
	case isa.OpFswRemote:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			return c.remoteStore(now, rs3, rs1, uimm, f32bits(c.fpRegs[fs2]))
		}

	case isa.OpCsrw:
		inp := in
		return func(c *Core, now int64) (bool, stats.StallKind) {
			return c.execCsrw(now, inp)
		}
	case isa.OpCsrr:
		csr := in.Csr
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.readCSR(csr), now+aluLat)
			return true, stats.StallNone
		}

	case isa.OpVissue:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			if len(c.outQs) != 1 {
				c.fail("vissue outside a scalar role")
				return true, stats.StallNone
			}
			if !c.outQs[0].CanSend() {
				return false, stats.StallBackpressure
			}
			c.outQs[0].Send(now, inet.Item{Kind: inet.ItemMTStart, PC: imm})
			c.st.Microthreads++
			return true, stats.StallNone
		}
	case isa.OpDevec:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			if len(c.outQs) != 1 {
				c.fail("devec outside a scalar role")
				return true, stats.StallNone
			}
			if !c.outQs[0].CanSend() {
				return false, stats.StallBackpressure
			}
			c.outQs[0].Send(now, inet.Item{Kind: inet.ItemDevec, PC: imm})
			c.mode = ModeIndependent
			return true, stats.StallNone
		}
	case isa.OpVend:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			// Handled by the expander's fetch loop; lanes never receive it.
			c.fail("vend executed outside expander fetch")
			return true, stats.StallNone
		}
	case isa.OpFrameStart:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			if !c.spad.FrameReady() {
				return false, stats.StallFrame
			}
			c.writeInt(rd, c.spad.FrameBase(), now+1)
			return true, stats.StallNone
		}
	case isa.OpRemem:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.spad.FreeFrame()
			return true, stats.StallNone
		}
	case isa.OpVload:
		inp := in
		return func(c *Core, now int64) (bool, stats.StallKind) {
			return c.execVload(now, inp)
		}
	case isa.OpPredEq:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.predOn = c.intRegs[rs1] == c.intRegs[rs2]
			return true, stats.StallNone
		}
	case isa.OpPredNeq:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.predOn = c.intRegs[rs1] != c.intRegs[rs2]
			return true, stats.StallNone
		}

	case isa.OpVlwSp:
		w := cfg.SIMDWidth
		spadHitLat := int64(cfg.SpadHitLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			off := c.intRegs[rs1] + uimm
			dst := c.vecRegs[vd]
			for i := 0; i < w; i++ {
				dst[i] = f32frombits(c.spad.ReadWord(off + uint32(4*i)))
			}
			c.vecReady[vd] = now + spadHitLat
			return true, stats.StallNone
		}
	case isa.OpVswSp:
		w := cfg.SIMDWidth
		return func(c *Core, now int64) (bool, stats.StallKind) {
			off := c.intRegs[rs1] + uimm
			src := c.vecRegs[vs1]
			for i := 0; i < w; i++ {
				c.spad.WriteWord(off+uint32(4*i), f32bits(src[i]))
			}
			return true, stats.StallNone
		}
	case isa.OpVfadd:
		simdLat := int64(cfg.SIMDLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			a, b, d := c.vecRegs[vs1], c.vecRegs[vs2], c.vecRegs[vd]
			for i := range d {
				d[i] = a[i] + b[i]
			}
			c.vecReady[vd] = now + simdLat
			return true, stats.StallNone
		}
	case isa.OpVfsub:
		simdLat := int64(cfg.SIMDLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			a, b, d := c.vecRegs[vs1], c.vecRegs[vs2], c.vecRegs[vd]
			for i := range d {
				d[i] = a[i] - b[i]
			}
			c.vecReady[vd] = now + simdLat
			return true, stats.StallNone
		}
	case isa.OpVfmul:
		simdLat := int64(cfg.SIMDLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			a, b, d := c.vecRegs[vs1], c.vecRegs[vs2], c.vecRegs[vd]
			for i := range d {
				d[i] = a[i] * b[i]
			}
			c.vecReady[vd] = now + simdLat
			return true, stats.StallNone
		}
	case isa.OpVfma:
		simdLat := int64(cfg.SIMDLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			a, b, d := c.vecRegs[vs1], c.vecRegs[vs2], c.vecRegs[vd]
			for i := range d {
				d[i] += a[i] * b[i]
			}
			c.vecReady[vd] = now + simdLat
			return true, stats.StallNone
		}
	case isa.OpVfmaF:
		simdLat := int64(cfg.SIMDLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			a, d, s := c.vecRegs[vs1], c.vecRegs[vd], c.fpRegs[fs3]
			for i := range d {
				d[i] += a[i] * s
			}
			c.vecReady[vd] = now + simdLat
			return true, stats.StallNone
		}
	case isa.OpVfmulF:
		simdLat := int64(cfg.SIMDLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			a, d, s := c.vecRegs[vs1], c.vecRegs[vd], c.fpRegs[fs3]
			for i := range d {
				d[i] = a[i] * s
			}
			c.vecReady[vd] = now + simdLat
			return true, stats.StallNone
		}
	case isa.OpVbcastF:
		simdLat := int64(cfg.SIMDLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			d, s := c.vecRegs[vd], c.fpRegs[fs3]
			for i := range d {
				d[i] = s
			}
			c.vecReady[vd] = now + simdLat
			return true, stats.StallNone
		}
	case isa.OpVfredsum:
		simdLat := int64(cfg.SIMDLat)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			var sum float32
			for _, v := range c.vecRegs[vs1] {
				sum += v
			}
			c.writeFp(fd, sum, now+simdLat+2)
			return true, stats.StallNone
		}

	case isa.OpBarrier:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.state = stBarrier
			c.ticket = c.env.BarrierArrive(c.ID)
			return true, stats.StallNone
		}
	case isa.OpHalt:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.halted = true
			c.env.NotifyHalt(c.ID)
			return true, stats.StallNone
		}
	}
	op := in.Op
	return func(c *Core, now int64) (bool, stats.StallKind) {
		c.fail("unimplemented op %s", op)
		return true, stats.StallNone
	}
}

// checkLow verifies every source register (and the destination, for
// write-after-write) is ready at cycle now, using the pre-lowered readiness
// sets. Check order and stall classing are identical to the old
// checkSources: int sources, fp sources, vec sources, then WAW int/fp/vec;
// stalls on registers awaiting a memory response class as frame stalls.
//
// On a stall it also reports the first cycle at which the stall's
// classification could change, for the park probe. checkLow returns at the
// FIRST blocker in a fixed order, and ready times are frozen while a core
// sleeps (only the core itself or a delivery — which wakes the shard —
// moves them), so until that blocker clears every skipped cycle records the
// same kind. Timer blockers clear at their ready cycle; pending blockers
// (awaiting a memory response) have no known cycle and return wake =
// MaxInt64 (the resolving delivery wakes the core). The ||-joined vec
// conditions class uniformly as StallOther, so their flip cycle is the max
// of the blocked registers' ready times.
func (c *Core) checkLow(now int64, e *lowEntry) (bool, stats.StallKind, int64) {
	const never = int64(math.MaxInt64)
	for i := uint8(0); i < e.nInt; i++ {
		r := e.srcInt[i]
		if c.intReady[r] > now {
			if c.intPending&(1<<r) != 0 {
				return false, stats.StallFrame, never
			}
			return false, stats.StallOther, c.intReady[r]
		}
	}
	for i := uint8(0); i < e.nFp; i++ {
		f := e.srcFp[i]
		if c.fpReady[f] > now {
			if c.fpPending&(1<<f) != 0 {
				return false, stats.StallFrame, never
			}
			return false, stats.StallOther, c.fpReady[f]
		}
	}
	vecAt := int64(0)
	for i := uint8(0); i < e.nVec; i++ {
		vecAt = max64(vecAt, c.vecReady[e.srcVec[i]])
	}
	if vecAt > now {
		return false, stats.StallOther, vecAt
	}
	if e.wawInt && c.intReady[e.rd] > now {
		if c.intPending&(1<<e.rd) != 0 {
			return false, stats.StallFrame, never
		}
		return false, stats.StallOther, c.intReady[e.rd]
	}
	if e.wawFp && c.fpReady[e.fd] > now {
		if c.fpPending&(1<<e.fd) != 0 {
			return false, stats.StallFrame, never
		}
		return false, stats.StallOther, c.fpReady[e.fd]
	}
	if e.wawVec && c.vecReady[e.vd] > now {
		return false, stats.StallOther, c.vecReady[e.vd]
	}
	return true, stats.StallNone, 0
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// issueAt attempts to execute the instruction at pc at cycle now, honouring
// predication, scoreboard, and structural hazards, via its pre-lowered
// entry. It returns whether the instruction issued and, if not, the stall
// class.
func (c *Core) issueAt(now int64, pc int) (bool, stats.StallKind) {
	e := &c.low.ents[pc]
	if e.ctl != nil {
		if ok, stall, wake := c.checkLow(now, e); !ok {
			c.noteStall(now, stall, wake, checkNone)
			return false, stall
		}
		return e.ctl(c, now, c.mode == ModeVector)
	}
	// Predicated-off instructions execute as nops but still flow through
	// the pipeline (and the inet), costing a cycle (§2.4).
	if !c.predOn && e.pred {
		c.st.CountClass(uint8(isa.ClassNop))
		if c.mode != ModeVector {
			c.setPC(c.pc + 1)
		}
		return true, stats.StallNone
	}
	if ok, stall, wake := c.checkLow(now, e); !ok {
		c.noteStall(now, stall, wake, checkNone)
		return false, stall
	}
	if ok, stall := c.exec(now, e); !ok {
		return false, stall
	}
	c.st.CountClass(e.class)
	if c.mode != ModeVector && c.state == stRun && !c.halted {
		// Sequential PC advance for frontend-driven cores. Instructions
		// that enter a waiting state (vconfig, barrier) or vector mode
		// manage the PC themselves.
		c.setPC(c.pc + 1)
	}
	return true, stats.StallNone
}

// noteStall stashes the classification of this tick's issue stall for the
// park probe (see Core.Park). Valid for the tick at now only.
func (c *Core) noteStall(now int64, kind stats.StallKind, wake int64, check uint8) {
	c.stallAt = now
	c.stallKind = kind
	c.stallWake = wake
	c.stallCheck = check
}

// exec runs e's exec closure and, when it refuses, classifies the
// structural stall for the park probe: a frame-class stall (DAE frame not
// filled, load queue full) is pure and resolved only by a mesh delivery to
// this tile, which wakes the shard; a blocked vissue/devec drains when the
// same-shard expander pops its queue (re-verified live by Park). Anything
// else (mesh injection backpressure) resolves in the mesh stage without a
// wake, so no stash: the core keeps ticking.
func (c *Core) exec(now int64, e *lowEntry) (bool, stats.StallKind) {
	ok, stall := e.exec(c, now)
	if !ok {
		switch {
		case stall == stats.StallFrame:
			c.noteStall(now, stall, math.MaxInt64, checkNone)
		case e.sendWait && stall == stats.StallBackpressure:
			c.noteStall(now, stall, math.MaxInt64, checkSend)
		}
	}
	return ok, stall
}

// DecodeCached reports whether the decode cache currently holds pc's
// pre-lowered entry: set when the core issues the instruction, cleared when
// the icache line backing it is evicted (test hook).
func (c *Core) DecodeCached(pc int) bool {
	return pc >= 0 && pc < len(c.icache.decoded) && c.icache.decoded[pc]
}
