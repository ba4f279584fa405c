package isa

// The ISA table: one row per operation. Everything this package, package asm
// and the lowering half of package cpu know about an op's *shape* — its
// mnemonic, its accounting class, which registers it reads and writes, how
// it is written and parsed — is read from Ops. What an op *does* lives in
// cpu's lowerExec/lowerControl, and nowhere else.

// Operand is one slot of an instruction's assembly syntax. The register
// slots are named after the Instr field they fill.
type Operand uint8

const (
	Rd Operand = iota
	Rs1
	Rs2
	Rs3
	Fd
	Fs1
	Fs2
	Fs3
	Vd
	Vs1
	Vs2
	Imm    // signed 32-bit immediate in Instr.Imm
	Target // instruction index (or a label, in text) in Instr.Imm; range-checked by Validate
	Mem    // "imm(xN)": offset in Instr.Imm, base register in Instr.Rs1
	CsrOp  // CSR name in Instr.Csr
	VlArgs // vload's tail "baseLane, width, dist[, part][, f]" in Instr.Vl; always last
	numOperands
)

// File returns the assembly prefix and size of the register file slot o
// indexes. o must be a register slot (Rd through Vs2).
func (o Operand) File() (prefix byte, size int) {
	switch {
	case o <= Rs3:
		return 'x', NumIntRegs
	case o <= Fs3:
		return 'f', NumFpRegs
	}
	return 'v', NumVecRegs
}

// Reg returns the Instr field that register slot o names, for reading or
// writing (Reg and FReg are uint8 underneath, as the SIMD indices are).
func (i *Instr) Reg(o Operand) *uint8 {
	switch o {
	case Rd:
		return (*uint8)(&i.Rd)
	case Rs1:
		return (*uint8)(&i.Rs1)
	case Rs2:
		return (*uint8)(&i.Rs2)
	case Rs3:
		return (*uint8)(&i.Rs3)
	case Fd:
		return (*uint8)(&i.Fd)
	case Fs1:
		return (*uint8)(&i.Fs1)
	case Fs2:
		return (*uint8)(&i.Fs2)
	case Fs3:
		return (*uint8)(&i.Fs3)
	case Vd:
		return &i.Vd
	case Vs1:
		return &i.Vs1
	case Vs2:
		return &i.Vs2
	}
	panic("isa: Reg of a non-register operand slot")
}

// Flags are the properties of an op that its operand list does not imply.
type Flags uint8

const (
	// Steers: the op steers the PC. Control flow is never forwarded on the
	// inet (paper §3.2: vector cores cannot diverge) and is never suppressed
	// by the predication flag.
	Steers Flags = 1 << iota
	// Always: the op executes even when predicated off — the predication
	// instructions themselves and the microthread terminators (paper §2.4).
	Always
	// NoMicro: a vector core may not receive the op over the inet (group
	// management and synchronisation, paper §3.2).
	NoMicro
	// Accum: Vd is an accumulator — read as well as written, so the op
	// waits on it as a source rather than as a write-after-write hazard.
	Accum
)

// OpInfo is one row of the ISA table.
type OpInfo struct {
	Name   string    // assembly mnemonic
	Class  Class     // timing/energy accounting class
	Syntax []Operand // operand slots, in assembly order
	Flags  Flags
}

type sx = []Operand

// Ops describes every operation, indexed by Op. It is read-only.
var Ops = [numOps]OpInfo{
	OpNop: {"nop", ClassNop, nil, Always},

	OpAdd:  {"add", ClassIntAlu, sx{Rd, Rs1, Rs2}, 0},
	OpSub:  {"sub", ClassIntAlu, sx{Rd, Rs1, Rs2}, 0},
	OpMul:  {"mul", ClassIntMul, sx{Rd, Rs1, Rs2}, 0},
	OpDiv:  {"div", ClassIntDiv, sx{Rd, Rs1, Rs2}, 0},
	OpRem:  {"rem", ClassIntDiv, sx{Rd, Rs1, Rs2}, 0},
	OpAnd:  {"and", ClassIntAlu, sx{Rd, Rs1, Rs2}, 0},
	OpOr:   {"or", ClassIntAlu, sx{Rd, Rs1, Rs2}, 0},
	OpXor:  {"xor", ClassIntAlu, sx{Rd, Rs1, Rs2}, 0},
	OpSll:  {"sll", ClassIntAlu, sx{Rd, Rs1, Rs2}, 0},
	OpSrl:  {"srl", ClassIntAlu, sx{Rd, Rs1, Rs2}, 0},
	OpSra:  {"sra", ClassIntAlu, sx{Rd, Rs1, Rs2}, 0},
	OpSlt:  {"slt", ClassIntAlu, sx{Rd, Rs1, Rs2}, 0},
	OpSltu: {"sltu", ClassIntAlu, sx{Rd, Rs1, Rs2}, 0},
	OpAddi: {"addi", ClassIntAlu, sx{Rd, Rs1, Imm}, 0},
	OpAndi: {"andi", ClassIntAlu, sx{Rd, Rs1, Imm}, 0},
	OpOri:  {"ori", ClassIntAlu, sx{Rd, Rs1, Imm}, 0},
	OpXori: {"xori", ClassIntAlu, sx{Rd, Rs1, Imm}, 0},
	OpSlli: {"slli", ClassIntAlu, sx{Rd, Rs1, Imm}, 0},
	OpSrli: {"srli", ClassIntAlu, sx{Rd, Rs1, Imm}, 0},
	OpSrai: {"srai", ClassIntAlu, sx{Rd, Rs1, Imm}, 0},
	OpSlti: {"slti", ClassIntAlu, sx{Rd, Rs1, Imm}, 0},
	OpLi:   {"li", ClassIntAlu, sx{Rd, Imm}, 0},

	OpBeq:  {"beq", ClassBranch, sx{Rs1, Rs2, Target}, Steers},
	OpBne:  {"bne", ClassBranch, sx{Rs1, Rs2, Target}, Steers},
	OpBlt:  {"blt", ClassBranch, sx{Rs1, Rs2, Target}, Steers},
	OpBge:  {"bge", ClassBranch, sx{Rs1, Rs2, Target}, Steers},
	OpBltu: {"bltu", ClassBranch, sx{Rs1, Rs2, Target}, Steers},
	OpBgeu: {"bgeu", ClassBranch, sx{Rs1, Rs2, Target}, Steers},
	OpJal:  {"jal", ClassJump, sx{Rd, Target}, Steers},
	OpJalr: {"jalr", ClassJump, sx{Rd, Rs1, Imm}, Steers},

	OpFadd:   {"fadd", ClassFpAlu, sx{Fd, Fs1, Fs2}, 0},
	OpFsub:   {"fsub", ClassFpAlu, sx{Fd, Fs1, Fs2}, 0},
	OpFmul:   {"fmul", ClassFpMul, sx{Fd, Fs1, Fs2}, 0},
	OpFdiv:   {"fdiv", ClassFpDiv, sx{Fd, Fs1, Fs2}, 0},
	OpFsqrt:  {"fsqrt", ClassFpDiv, sx{Fd, Fs1}, 0},
	OpFmadd:  {"fmadd", ClassFpMul, sx{Fd, Fs1, Fs2, Fs3}, 0},
	OpFmin:   {"fmin", ClassFpAlu, sx{Fd, Fs1, Fs2}, 0},
	OpFmax:   {"fmax", ClassFpAlu, sx{Fd, Fs1, Fs2}, 0},
	OpFabs:   {"fabs", ClassFpAlu, sx{Fd, Fs1}, 0},
	OpFneg:   {"fneg", ClassFpAlu, sx{Fd, Fs1}, 0},
	OpFmv:    {"fmv", ClassFpAlu, sx{Fd, Fs1}, 0},
	OpFeq:    {"feq", ClassFpAlu, sx{Rd, Fs1, Fs2}, 0},
	OpFlt:    {"flt", ClassFpAlu, sx{Rd, Fs1, Fs2}, 0},
	OpFle:    {"fle", ClassFpAlu, sx{Rd, Fs1, Fs2}, 0},
	OpFcvtWS: {"fcvt.w.s", ClassFpAlu, sx{Rd, Fs1}, 0},
	OpFcvtSW: {"fcvt.s.w", ClassFpAlu, sx{Fd, Rs1}, 0},
	OpFmvXW:  {"fmv.x.w", ClassFpAlu, sx{Rd, Fs1}, 0},
	OpFmvWX:  {"fmv.w.x", ClassFpAlu, sx{Fd, Rs1}, 0},

	// Stores put the data register first and the base inside Mem, so their
	// syntax order is Rs2 before Rs1; see IntSrcs for the scoreboard order.
	OpLw:       {"lw", ClassLoad, sx{Rd, Mem}, 0},
	OpSw:       {"sw", ClassStore, sx{Rs2, Mem}, 0},
	OpFlw:      {"flw", ClassLoad, sx{Fd, Mem}, 0},
	OpFsw:      {"fsw", ClassStore, sx{Fs2, Mem}, 0},
	OpLwSp:     {"lw.sp", ClassSpad, sx{Rd, Mem}, 0},
	OpFlwSp:    {"flw.sp", ClassSpad, sx{Fd, Mem}, 0},
	OpSwRemote: {"sw.rem", ClassSpad, sx{Rs2, Mem, Rs3}, 0},

	OpCsrw: {"csrw", ClassCsr, sx{CsrOp, Rs1}, NoMicro},
	OpCsrr: {"csrr", ClassCsr, sx{Rd, CsrOp}, 0},

	OpVissue:     {"vissue", ClassVecCtl, sx{Target}, NoMicro},
	OpVend:       {"vend", ClassVecCtl, nil, Always},
	OpDevec:      {"devec", ClassVecCtl, sx{Target}, Always},
	OpFrameStart: {"frame_start", ClassVecCtl, sx{Rd}, 0},
	OpRemem:      {"remem", ClassVecCtl, nil, 0},
	OpVload:      {"vload", ClassVload, sx{Rs2, Rs1, VlArgs}, NoMicro},
	OpPredEq:     {"pred_eq", ClassVecCtl, sx{Rs1, Rs2}, Always},
	OpPredNeq:    {"pred_neq", ClassVecCtl, sx{Rs1, Rs2}, Always},

	OpVlwSp:    {"vlw.sp", ClassSimd, sx{Vd, Mem}, 0},
	OpVfma:     {"vfma", ClassSimd, sx{Vd, Vs1, Vs2}, Accum},
	OpVbcastF:  {"vbcast.f", ClassSimd, sx{Vd, Fs3}, 0},
	OpVfredsum: {"vfredsum", ClassSimd, sx{Fd, Vs1}, 0},

	OpBarrier: {"barrier", ClassSync, nil, NoMicro},
	OpHalt:    {"halt", ClassSync, nil, NoMicro},
}

// info returns op's row. OpInvalid and values past the table share the
// zero row: no name, no operands, no flags.
func info(op Op) *OpInfo {
	if op >= numOps {
		op = OpInvalid
	}
	return &Ops[op]
}

// slots[op] is the set of operand slots op's syntax fills, one bit per
// Operand, derived from Ops once. A Mem operand is "imm(xRs1)", so it fills
// Rs1 as well.
const _ = uint16(1) << (numOperands - 1) // every Operand has a bit

var slots = func() (set [numOps]uint16) {
	for op := range Ops {
		for _, o := range Ops[op].Syntax {
			set[op] |= 1 << o
			if o == Mem {
				set[op] |= 1 << Rs1
			}
		}
	}
	return set
}()

// has reports whether op's syntax fills slot o.
func (op Op) has(o Operand) bool { return op < numOps && slots[op]&(1<<o) != 0 }
