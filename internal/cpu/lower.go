package cpu

// Program lowering: the decode work the old interpreter redid every cycle —
// operand field extraction, source/WAW readiness set computation, latency
// lookups, class/predicability/control-flow tests — is done once per
// (program, configuration) at machine build time. Each instruction becomes a
// lowEntry holding its readiness metadata, the operands its semantics read,
// its resolved latency, and the static function that performs those
// semantics (for an arithmetic op, its operand shape's function, calling the
// op's arith entry). The functions capture nothing, so lowering allocates
// the Lowered header and its entry slice whatever the program's length. The
// Lowered table is immutable and shared by every core of a machine, and it
// is the whole decode: a core keeps no decode state of its own.

import (
	"fmt"
	"math"

	"rockcress/internal/config"
	"rockcress/internal/inet"
	"rockcress/internal/isa"
	"rockcress/internal/stats"
)

// execFn performs one non-control instruction's semantics at cycle now,
// reading its operands from e. It may refuse (resource hazards discovered
// at execution).
type execFn func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind)

// ctlFn resolves one control-flow instruction (sources already checked).
type ctlFn func(c *Core, e *lowEntry, now int64, micro bool) (bool, stats.StallKind)

// lowEntry is one pre-lowered instruction.
type lowEntry struct {
	exec execFn
	ctl  ctlFn // non-nil exactly when the op is control flow

	// What the semantics read: in is the instruction itself (vload's and
	// the CSR ops' wider fields); lat is the cycles until the result is
	// ready; div marks an op that waits for and holds the core's one
	// shared divider for lat cycles (Core.exec).
	in  *isa.Instr
	lat int64
	div bool

	// Fields copied from in, read on every execution: op indexes an
	// arithmetic row's arith entry or a branch's branchTaken compare.
	op            isa.Op
	rs1, rs2, rs3 isa.Reg
	fs1, fs2, fs3 isa.FReg
	vs1, vs2      uint8
	imm           int32

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

	// Park-probe flag: vissue/devec waiting on the expander queue. Its
	// blocked exec path is side-effect free and resolved by a same-shard
	// inet pop, so a core stalled on it may sleep (see Core.Park).
	sendWait bool
}

// Lowered is a program lowered against one hardware configuration.
type Lowered struct {
	Prog *isa.Program
	ents []lowEntry
}

// LowerProgram lowers prog, which must pass isa.Program.Validate, once for
// cfg. The result is immutable and safe to share across every core of a
// machine. It allocates two objects, the Lowered and its entries, for a
// program of any length (TestLowerProgramAllocs).
func LowerProgram(prog *isa.Program, cfg config.Manycore) *Lowered {
	l := &Lowered{Prog: prog, ents: make([]lowEntry, len(prog.Code))}
	for i := range prog.Code {
		lowerInstr(&l.ents[i], &prog.Code[i], cfg)
	}
	return l
}

func lowerInstr(e *lowEntry, in *isa.Instr, cfg config.Manycore) {
	e.in, e.op = in, in.Op
	e.rs1, e.rs2, e.rs3 = in.Rs1, in.Rs2, in.Rs3
	e.fs1, e.fs2, e.fs3 = in.Fs1, in.Fs2, in.Fs3
	e.vs1, e.vs2 = in.Vs1, in.Vs2
	e.imm = in.Imm
	e.nInt = uint8(in.IntSrcs(&e.srcInt))
	e.nFp = uint8(in.FpSrcs(&e.srcFp))
	e.nVec = uint8(in.VecSrcs(&e.srcVec))
	e.wawInt = in.WritesInt()
	e.wawFp = in.WritesFp()
	e.wawVec = in.WritesVec()
	e.rd, e.fd, e.vd = in.Rd, in.Fd, in.Vd
	e.pred = isa.IsPredicatable(in.Op)
	e.vend = in.Op == isa.OpVend
	e.sendWait = in.Op == isa.OpVissue || in.Op == isa.OpDevec
	e.allowMT = isa.AllowedInMicrothread(in.Op)
	e.class = uint8(isa.Classify(in.Op))
	if isa.IsControlFlow(in.Op) {
		e.ctl = lowerControl(e, in)
		return
	}
	e.exec = lowerExec(e, in, cfg)
}

// branchTaken is each conditional branch's compare of rs1 against rs2,
// indexed by op (nil for every other op).
var branchTaken = [len(isa.Ops)]func(a, b uint32) bool{
	isa.OpBeq:  func(a, b uint32) bool { return a == b },
	isa.OpBne:  func(a, b uint32) bool { return a != b },
	isa.OpBlt:  func(a, b uint32) bool { return int32(a) < int32(b) },
	isa.OpBge:  func(a, b uint32) bool { return int32(a) >= int32(b) },
	isa.OpBltu: func(a, b uint32) bool { return a < b },
	isa.OpBgeu: func(a, b uint32) bool { return a >= b },
}

// lowerControl picks the resolver for one branch or jump: every
// conditional branch shares one, calling its op's branchTaken compare.
func lowerControl(e *lowEntry, in *isa.Instr) ctlFn {
	if branchTaken[in.Op] != nil {
		return func(c *Core, e *lowEntry, now int64, micro bool) (bool, stats.StallKind) {
			c.st.CountClass(e.class)
			if branchTaken[e.op](c.intRegs[e.rs1], c.intRegs[e.rs2]) {
				c.jumpTo(now, micro, int(e.imm), true) // taken: pays the branch penalty
			} else {
				c.jumpTo(now, micro, c.curPC(micro)+1, false)
			}
			return true, stats.StallNone
		}
	}
	switch in.Op {
	case isa.OpJal:
		return func(c *Core, e *lowEntry, now int64, micro bool) (bool, stats.StallKind) {
			next := c.curPC(micro) + 1
			c.writeInt(e.rd, uint32(next), now+1)
			c.st.CountClass(e.class)
			c.jumpTo(now, micro, int(e.imm), true)
			return true, stats.StallNone
		}
	case isa.OpJalr:
		return func(c *Core, e *lowEntry, now int64, micro bool) (bool, stats.StallKind) {
			next := c.curPC(micro) + 1
			// Write order matters when rd == rs1: the link register is
			// written first, so the target reads the link value.
			c.writeInt(e.rd, uint32(next), now+1)
			tgt := int(c.intRegs[e.rs1]) + int(e.imm)
			c.st.CountClass(e.class)
			c.jumpTo(now, micro, tgt, true)
			return true, stats.StallNone
		}
	}
	return func(c *Core, e *lowEntry, now int64, micro bool) (bool, stats.StallKind) {
		c.fail("unimplemented control op %s", e.op)
		return true, stats.StallNone
	}
}

func (c *Core) curPC(micro bool) int {
	if micro {
		return c.vpc
	}
	return c.pc
}

// arith is each arithmetic row's value (classes IntAlu through FpDiv): a
// pure function of its sources in syntax order, integer registers and the
// sign-extended immediate as uint32 and fp registers as float32. It is
// indexed by op, nil for every other op.
var arith = [len(isa.Ops)]any{
	isa.OpAdd:  func(a, b uint32) uint32 { return a + b },
	isa.OpSub:  func(a, b uint32) uint32 { return a - b },
	isa.OpMul:  func(a, b uint32) uint32 { return uint32(int32(a) * int32(b)) },
	isa.OpDiv:  func(a, b uint32) uint32 { q, _ := divRem(int32(a), int32(b)); return uint32(q) },
	isa.OpRem:  func(a, b uint32) uint32 { _, r := divRem(int32(a), int32(b)); return uint32(r) },
	isa.OpAnd:  func(a, b uint32) uint32 { return a & b },
	isa.OpOr:   func(a, b uint32) uint32 { return a | b },
	isa.OpXor:  func(a, b uint32) uint32 { return a ^ b },
	isa.OpSll:  func(a, b uint32) uint32 { return a << (b & 31) },
	isa.OpSrl:  func(a, b uint32) uint32 { return a >> (b & 31) },
	isa.OpSra:  func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) },
	isa.OpSlt:  func(a, b uint32) uint32 { return b2u(int32(a) < int32(b)) },
	isa.OpSltu: func(a, b uint32) uint32 { return b2u(a < b) },
	isa.OpAddi: func(a, imm uint32) uint32 { return a + imm },
	isa.OpAndi: func(a, imm uint32) uint32 { return a & imm },
	isa.OpOri:  func(a, imm uint32) uint32 { return a | imm },
	isa.OpXori: func(a, imm uint32) uint32 { return a ^ imm },
	isa.OpSlli: func(a, imm uint32) uint32 { return a << (imm & 31) },
	isa.OpSrli: func(a, imm uint32) uint32 { return a >> (imm & 31) },
	isa.OpSrai: func(a, imm uint32) uint32 { return uint32(int32(a) >> (imm & 31)) },
	isa.OpSlti: func(a, imm uint32) uint32 { return b2u(int32(a) < int32(imm)) },
	isa.OpLi:   func(_, imm uint32) uint32 { return imm },

	// min, max, abs and sqrt round through float64.
	isa.OpFadd:   func(a, b float32) float32 { return a + b },
	isa.OpFsub:   func(a, b float32) float32 { return a - b },
	isa.OpFmul:   func(a, b float32) float32 { return a * b },
	isa.OpFdiv:   func(a, b float32) float32 { return a / b },
	isa.OpFsqrt:  func(a float32) float32 { return float32(math.Sqrt(float64(a))) },
	isa.OpFmadd:  func(a, b, c float32) float32 { return a*b + c },
	isa.OpFmin:   func(a, b float32) float32 { return float32(math.Min(float64(a), float64(b))) },
	isa.OpFmax:   func(a, b float32) float32 { return float32(math.Max(float64(a), float64(b))) },
	isa.OpFabs:   func(a float32) float32 { return float32(math.Abs(float64(a))) },
	isa.OpFneg:   func(a float32) float32 { return -a },
	isa.OpFmv:    func(a float32) float32 { return a },
	isa.OpFeq:    func(a, b float32) uint32 { return b2u(a == b) },
	isa.OpFlt:    func(a, b float32) uint32 { return b2u(a < b) },
	isa.OpFle:    func(a, b float32) uint32 { return b2u(a <= b) },
	isa.OpFcvtWS: func(a float32) uint32 { return uint32(int32(a)) },
	isa.OpFcvtSW: func(a uint32) float32 { return float32(int32(a)) },
	isa.OpFmvXW:  f32bits,
	isa.OpFmvWX:  f32frombits,
}

// divRem is RV32M's signed division: dividing by zero gives quotient -1
// and remainder a. MinInt32 / -1 needs no case: Go's int32 division wraps
// it to quotient a, remainder 0, as RV32M does.
func divRem(a, b int32) (q, r int32) {
	if b == 0 {
		return -1, a
	}
	return a / b, a % b
}

// latency is the one reader of Table 1a's functional-unit latencies: the
// cycles from issue until an op of class's result is ready. csrr reads its
// CSR through the integer ALU.
func latency(class isa.Class, cfg config.Manycore) int64 {
	switch class {
	case isa.ClassIntAlu, isa.ClassCsr:
		return int64(cfg.ALULat)
	case isa.ClassIntMul:
		return int64(cfg.MulLat)
	case isa.ClassIntDiv:
		return int64(cfg.DivLat)
	case isa.ClassFpAlu:
		return int64(cfg.FpALULat)
	case isa.ClassFpMul:
		return int64(cfg.FpMulLat)
	case isa.ClassFpDiv:
		return int64(cfg.FpDivLat)
	}
	panic(fmt.Sprintf("cpu: class %d has no functional unit", class))
}

// lowerArith picks an arithmetic row's function. Its operand shape, spelled
// from the row's syntax one letter per slot (x an integer register, f an fp
// register, i the immediate; destination first), picks the registers the
// function reads and writes; the row's arith entry, which has the shape's
// type (TestArithmeticRows runs every row), computes the value; the class
// sets e's latency and whether the op holds the core's one shared divider.
func lowerArith(e *lowEntry, in *isa.Instr, cfg config.Manycore) execFn {
	class := isa.Classify(in.Op)
	e.lat = latency(class, cfg)
	e.div = class == isa.ClassIntDiv || class == isa.ClassFpDiv
	var shape [4]byte
	syn := isa.Ops[in.Op].Syntax
	for i, o := range syn {
		shape[i] = 'i'
		if o != isa.Imm {
			shape[i], _ = o.File()
		}
	}
	switch string(shape[:len(syn)]) {
	case "xxx":
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			f := arith[e.op].(func(a, b uint32) uint32)
			c.writeInt(e.rd, f(c.intRegs[e.rs1], c.intRegs[e.rs2]), now+e.lat)
			return true, stats.StallNone
		}
	case "xxi", "xi": // li is addi's shape; its value ignores the register
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			f := arith[e.op].(func(a, imm uint32) uint32)
			c.writeInt(e.rd, f(c.intRegs[e.rs1], uint32(e.imm)), now+e.lat)
			return true, stats.StallNone
		}
	case "fff":
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			f := arith[e.op].(func(a, b float32) float32)
			c.writeFp(e.fd, f(c.fpRegs[e.fs1], c.fpRegs[e.fs2]), now+e.lat)
			return true, stats.StallNone
		}
	case "ff":
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			f := arith[e.op].(func(a float32) float32)
			c.writeFp(e.fd, f(c.fpRegs[e.fs1]), now+e.lat)
			return true, stats.StallNone
		}
	case "ffff":
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			f := arith[e.op].(func(a, b, c float32) float32)
			c.writeFp(e.fd, f(c.fpRegs[e.fs1], c.fpRegs[e.fs2], c.fpRegs[e.fs3]), now+e.lat)
			return true, stats.StallNone
		}
	case "xff":
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			f := arith[e.op].(func(a, b float32) uint32)
			c.writeInt(e.rd, f(c.fpRegs[e.fs1], c.fpRegs[e.fs2]), now+e.lat)
			return true, stats.StallNone
		}
	case "xf":
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			f := arith[e.op].(func(a float32) uint32)
			c.writeInt(e.rd, f(c.fpRegs[e.fs1]), now+e.lat)
			return true, stats.StallNone
		}
	case "fx":
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			f := arith[e.op].(func(a uint32) float32)
			c.writeFp(e.fd, f(c.intRegs[e.rs1]), now+e.lat)
			return true, stats.StallNone
		}
	}
	panic(fmt.Sprintf("cpu: %s has no operand shape", in.Op))
}

// lowerExec picks the semantics function for one non-control instruction:
// an arithmetic row through lowerArith, any other op by its own case. A
// case sets the latency its function reads in e from cfg once.
func lowerExec(e *lowEntry, in *isa.Instr, cfg config.Manycore) execFn {
	if arith[in.Op] != nil {
		return lowerArith(e, in, cfg)
	}
	switch in.Op {
	case isa.OpNop:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			return true, stats.StallNone
		}
	case isa.OpLw:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			return c.globalLoad(now, e.rs1, uint32(e.imm), false, uint8(e.rd), 0)
		}
	case isa.OpFlw:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			return c.globalLoad(now, e.rs1, uint32(e.imm), true, 0, uint8(e.fd))
		}
	case isa.OpSw:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			return c.globalStore(now, e.rs1, uint32(e.imm), c.intRegs[e.rs2])
		}
	case isa.OpFsw:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			return c.globalStore(now, e.rs1, uint32(e.imm), f32bits(c.fpRegs[e.fs2]))
		}

	case isa.OpLwSp:
		e.lat = int64(cfg.SpadHitLat)
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			c.writeInt(e.rd, c.spad.ReadWord(c.intRegs[e.rs1]+uint32(e.imm)), now+e.lat)
			return true, stats.StallNone
		}
	case isa.OpFlwSp:
		e.lat = int64(cfg.SpadHitLat)
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			c.writeFp(e.fd, f32frombits(c.spad.ReadWord(c.intRegs[e.rs1]+uint32(e.imm))), now+e.lat)
			return true, stats.StallNone
		}
	case isa.OpSwRemote:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			return c.remoteStore(now, e.rs3, e.rs1, uint32(e.imm), c.intRegs[e.rs2])
		}
	case isa.OpCsrw:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			return c.execCsrw(now, e.in)
		}
	case isa.OpCsrr:
		e.lat = latency(isa.ClassCsr, cfg)
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			c.writeInt(e.rd, c.readCSR(e.in.Csr), now+e.lat)
			return true, stats.StallNone
		}

	case isa.OpVissue:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			if len(c.outQs) != 1 {
				c.fail("vissue outside a scalar role")
				return true, stats.StallNone
			}
			if !c.outQs[0].CanSend() {
				return false, stats.StallBackpressure
			}
			c.outQs[0].Send(now, inet.Item{Kind: inet.ItemMTStart, PC: e.imm})
			c.st.Microthreads++
			return true, stats.StallNone
		}
	case isa.OpDevec:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			if len(c.outQs) != 1 {
				c.fail("devec outside a scalar role")
				return true, stats.StallNone
			}
			if !c.outQs[0].CanSend() {
				return false, stats.StallBackpressure
			}
			c.outQs[0].Send(now, inet.Item{Kind: inet.ItemDevec, PC: e.imm})
			c.mode = ModeIndependent
			return true, stats.StallNone
		}
	case isa.OpVend:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			// Handled by the expander's fetch loop; lanes never receive it.
			c.fail("vend executed outside expander fetch")
			return true, stats.StallNone
		}
	case isa.OpFrameStart:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			if !c.spad.FrameReady() {
				return false, stats.StallFrame
			}
			c.writeInt(e.rd, c.spad.FrameBase(), now+1)
			return true, stats.StallNone
		}
	case isa.OpRemem:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			c.spad.FreeFrame()
			return true, stats.StallNone
		}
	case isa.OpVload:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			return c.execVload(now, e.in)
		}
	case isa.OpPredEq:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			c.predOn = c.intRegs[e.rs1] == c.intRegs[e.rs2]
			return true, stats.StallNone
		}
	case isa.OpPredNeq:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			c.predOn = c.intRegs[e.rs1] != c.intRegs[e.rs2]
			return true, stats.StallNone
		}

	case isa.OpVlwSp:
		e.lat = int64(cfg.SpadHitLat)
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			off := c.intRegs[e.rs1] + uint32(e.imm)
			dst := c.vecRegs[e.vd]
			for i := range dst {
				dst[i] = f32frombits(c.spad.ReadWord(off + uint32(4*i)))
			}
			c.vecReady[e.vd] = now + e.lat
			return true, stats.StallNone
		}
	case isa.OpVfma:
		e.lat = int64(cfg.SIMDLat)
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			a, b, d := c.vecRegs[e.vs1], c.vecRegs[e.vs2], c.vecRegs[e.vd]
			for i := range d {
				d[i] += a[i] * b[i]
			}
			c.vecReady[e.vd] = now + e.lat
			return true, stats.StallNone
		}
	case isa.OpVbcastF:
		e.lat = int64(cfg.SIMDLat)
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			d, s := c.vecRegs[e.vd], c.fpRegs[e.fs3]
			for i := range d {
				d[i] = s
			}
			c.vecReady[e.vd] = now + e.lat
			return true, stats.StallNone
		}
	case isa.OpVfredsum:
		e.lat = int64(cfg.SIMDLat) + 2
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			var sum float32
			for _, v := range c.vecRegs[e.vs1] {
				sum += v
			}
			c.writeFp(e.fd, sum, now+e.lat)
			return true, stats.StallNone
		}

	case isa.OpBarrier:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			c.state = stBarrier
			c.ticket = c.env.BarrierArrive(c.ID)
			return true, stats.StallNone
		}
	case isa.OpHalt:
		return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
			c.halted = true
			c.env.NotifyHalt(c.ID)
			return true, stats.StallNone
		}
	}
	return func(c *Core, e *lowEntry, now int64) (bool, stats.StallKind) {
		c.fail("unimplemented op %s", e.op)
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
		return e.ctl(c, e, now, c.mode == ModeVector)
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

// exec runs e's semantics and, when they refuse, classifies the
// structural stall for the park probe: a frame-class stall (DAE frame not
// filled, load queue full) is pure and resolved only by a mesh delivery to
// this tile, which wakes the shard; a blocked vissue/devec drains when the
// same-shard expander pops its queue (re-verified live by Park). Anything
// else (mesh injection backpressure) resolves in the mesh stage without a
// wake, so no stash: the core keeps ticking. A divider op first waits for
// the core's one shared divider and then holds it for its latency.
func (c *Core) exec(now int64, e *lowEntry) (bool, stats.StallKind) {
	if e.div {
		if now < c.divBusyUntil {
			return false, stats.StallOther
		}
		c.divBusyUntil = now + e.lat
	}
	ok, stall := e.exec(c, e, now)
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
