package cpu

// Program lowering: the decode work the old interpreter redid every cycle —
// operand field extraction, source/WAW readiness set computation, latency
// lookups, class/predicability/control-flow tests — is done once per
// (program, configuration) at machine build time. Each instruction becomes a
// lowEntry holding its readiness metadata and a closure that performs its
// semantics with the operands and latencies already resolved (for an
// arithmetic op, its operand shape's closure calling its arith entry). The
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
	e.sendWait = in.Op == isa.OpVissue || in.Op == isa.OpDevec
	e.allowMT = isa.AllowedInMicrothread(in.Op)
	e.class = uint8(isa.Classify(in.Op))
	if isa.IsControlFlow(in.Op) {
		e.ctl = lowerControl(in)
		return
	}
	e.exec = lowerExec(in, cfg)
}

// branchTaken is each conditional branch's compare of rs1 against rs2.
var branchTaken = map[isa.Op]func(a, b uint32) bool{
	isa.OpBeq:  func(a, b uint32) bool { return a == b },
	isa.OpBne:  func(a, b uint32) bool { return a != b },
	isa.OpBlt:  func(a, b uint32) bool { return int32(a) < int32(b) },
	isa.OpBge:  func(a, b uint32) bool { return int32(a) >= int32(b) },
	isa.OpBltu: func(a, b uint32) bool { return a < b },
	isa.OpBgeu: func(a, b uint32) bool { return a >= b },
}

// lowerControl builds the resolver for one branch or jump. Field reads and
// the class constant are hoisted; a conditional branch's compare comes
// from branchTaken.
func lowerControl(in *isa.Instr) ctlFn {
	rs1, rs2, rd := in.Rs1, in.Rs2, in.Rd
	imm := int(in.Imm)
	class := uint8(isa.Classify(in.Op))
	if taken, ok := branchTaken[in.Op]; ok {
		return func(c *Core, now int64, micro bool) (bool, stats.StallKind) {
			c.st.CountClass(class)
			if taken(c.intRegs[rs1], c.intRegs[rs2]) {
				c.jumpTo(now, micro, imm, true) // taken: pays the branch penalty
			} else {
				c.jumpTo(now, micro, c.curPC(micro)+1, false)
			}
			return true, stats.StallNone
		}
	}
	switch in.Op {
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

// arith is each arithmetic row's value (classes IntAlu through FpDiv): a
// pure function of its sources in syntax order, integer registers and the
// sign-extended immediate as uint32 and fp registers as float32.
var arith = map[isa.Op]any{
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

// lowerArith builds an arithmetic row's closure. Its operand shape, spelled
// from the row's syntax one letter per slot (x an integer register, f an fp
// register, i the immediate; destination first), picks the registers the
// closure reads and writes; sem computes the value; the class sets the
// latency and whether the op holds the core's one shared divider.
func lowerArith(in *isa.Instr, sem any, cfg config.Manycore) execFn {
	class := isa.Classify(in.Op)
	lat := latency(class, cfg)
	rd, rs1, rs2 := in.Rd, in.Rs1, in.Rs2
	fd, fs1, fs2, fs3 := in.Fd, in.Fs1, in.Fs2, in.Fs3
	imm := uint32(in.Imm)
	var shape [4]byte
	syn := isa.Ops[in.Op].Syntax
	for i, o := range syn {
		shape[i] = 'i'
		if o != isa.Imm {
			shape[i], _ = o.File()
		}
	}
	var exec execFn
	switch string(shape[:len(syn)]) {
	case "xxx":
		f := sem.(func(a, b uint32) uint32)
		exec = func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, f(c.intRegs[rs1], c.intRegs[rs2]), now+lat)
			return true, stats.StallNone
		}
	case "xxi", "xi": // li is addi's shape; its value ignores the register
		f := sem.(func(a, imm uint32) uint32)
		exec = func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, f(c.intRegs[rs1], imm), now+lat)
			return true, stats.StallNone
		}
	case "fff":
		f := sem.(func(a, b float32) float32)
		exec = func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, f(c.fpRegs[fs1], c.fpRegs[fs2]), now+lat)
			return true, stats.StallNone
		}
	case "ff":
		f := sem.(func(a float32) float32)
		exec = func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, f(c.fpRegs[fs1]), now+lat)
			return true, stats.StallNone
		}
	case "ffff":
		f := sem.(func(a, b, c float32) float32)
		exec = func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, f(c.fpRegs[fs1], c.fpRegs[fs2], c.fpRegs[fs3]), now+lat)
			return true, stats.StallNone
		}
	case "xff":
		f := sem.(func(a, b float32) uint32)
		exec = func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, f(c.fpRegs[fs1], c.fpRegs[fs2]), now+lat)
			return true, stats.StallNone
		}
	case "xf":
		f := sem.(func(a float32) uint32)
		exec = func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, f(c.fpRegs[fs1]), now+lat)
			return true, stats.StallNone
		}
	case "fx":
		f := sem.(func(a uint32) float32)
		exec = func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeFp(fd, f(c.intRegs[rs1]), now+lat)
			return true, stats.StallNone
		}
	default:
		panic(fmt.Sprintf("cpu: %s has no operand shape", in.Op))
	}
	if class != isa.ClassIntDiv && class != isa.ClassFpDiv {
		return exec
	}
	return func(c *Core, now int64) (bool, stats.StallKind) {
		if now < c.divBusyUntil {
			return false, stats.StallOther
		}
		c.divBusyUntil = now + lat
		return exec(c, now)
	}
}

// lowerExec builds the semantics closure for one non-control instruction:
// an arithmetic row through lowerArith, any other op by its own case.
// Latencies come from cfg once; operand fields are captured as locals.
func lowerExec(in *isa.Instr, cfg config.Manycore) execFn {
	if sem, ok := arith[in.Op]; ok {
		return lowerArith(in, sem, cfg)
	}
	rd, rs1, rs2, rs3 := in.Rd, in.Rs1, in.Rs2, in.Rs3
	fd, fs2, fs3 := in.Fd, in.Fs2, in.Fs3
	vd, vs1, vs2 := in.Vd, in.Vs1, in.Vs2
	imm := in.Imm
	uimm := uint32(in.Imm)

	switch in.Op {
	case isa.OpNop:
		return func(c *Core, now int64) (bool, stats.StallKind) {
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
	case isa.OpSwRemote:
		return func(c *Core, now int64) (bool, stats.StallKind) {
			return c.remoteStore(now, rs3, rs1, uimm, c.intRegs[rs2])
		}
	case isa.OpCsrw:
		inp := in
		return func(c *Core, now int64) (bool, stats.StallKind) {
			return c.execCsrw(now, inp)
		}
	case isa.OpCsrr:
		csr := in.Csr
		lat := latency(isa.ClassCsr, cfg)
		return func(c *Core, now int64) (bool, stats.StallKind) {
			c.writeInt(rd, c.readCSR(csr), now+lat)
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
