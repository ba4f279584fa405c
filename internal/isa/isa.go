// Package isa defines the instruction set interpreted by the Rockcress
// simulator: a RISC-V-flavoured 32-bit base ISA plus the software-defined
// vector extension from the paper (vconfig, vissue, vend, devec,
// frame_start, remem, vload and predication) and a small fixed-width
// per-core SIMD extension used by the PCV configurations.
//
// Instructions are represented structurally rather than as encoded bits;
// package asm provides a textual assembly syntax for them. A PC is an index
// into a Program's instruction slice. For I-cache modelling the simulator
// treats instruction i as occupying bytes [4i, 4i+4).
package isa

import "fmt"

// Reg names an integer register. X0 is hard-wired to zero, as in RISC-V.
type Reg uint8

// FReg names a floating-point register.
type FReg uint8

// NumIntRegs and NumFpRegs size the architectural register files.
const (
	NumIntRegs = 32
	NumFpRegs  = 32
	NumVecRegs = 8 // per-core SIMD registers (PCV extension)
)

// X0 is the always-zero integer register.
const X0 Reg = 0

// Op enumerates every operation the simulator executes.
type Op uint8

// Base integer ALU operations.
const (
	OpInvalid Op = iota
	OpNop
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpSlt
	OpSltu
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpSlti
	OpLi // load 32-bit immediate (lui+addi fusion)

	// Control flow.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu
	OpJal
	OpJalr

	// Floating point (single precision, stored as float32 bits in words).
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFsqrt
	OpFmadd // rd = rs1*rs2 + rs3
	OpFmin
	OpFmax
	OpFabs
	OpFneg
	OpFmv
	OpFeq // int rd = (f1 == f2)
	OpFlt
	OpFle
	OpFcvtWS // int rd = int(f1)
	OpFcvtSW // f rd = float(r1)
	OpFmvXW  // int rd = bits(f1)
	OpFmvWX  // f rd = frombits(r1)

	// Global memory (word addressed by byte address rs1+imm, via NoC+LLC).
	OpLw  // int load
	OpSw  // int store
	OpFlw // fp load
	OpFsw // fp store

	// Local scratchpad (byte offset rs1+imm into this core's scratchpad).
	OpLwSp
	OpFlwSp
	// Remote scratchpad store: core id in rs3, offset rs1+imm, data rs2.
	OpSwRemote

	// CSR access.
	OpCsrw
	OpCsrr

	// Software-defined vector extension.
	OpVissue     // launch microthread at Imm (instruction index)
	OpVend       // terminate microthread (expander only)
	OpDevec      // disband group; vector cores resume at Imm
	OpFrameStart // rd = byte offset of head frame once it is full
	OpRemem      // free the head frame
	OpVload      // wide vector load; see VloadArgs
	OpPredEq     // set predication flag = (r1 == r2)
	OpPredNeq    // set predication flag = (r1 != r2)

	// Per-core SIMD extension (PCV): fixed SIMDWidth lanes per core.
	OpVlwSp    // vreg rd <- SIMDWidth words at scratchpad rs1+imm
	OpVfma     // vd += va * vb
	OpVbcastF  // vd[*] = f(rs3)
	OpVfredsum // f rd = sum(va)

	// Synchronisation / lifecycle.
	OpBarrier // global barrier across all active cores
	OpHalt    // core is finished

	numOps // sentinel
)

// CSR identifies a control/status register.
type CSR uint8

// CSRs exposed to programs.
const (
	CsrVconfig   CSR = iota // write: enter/leave vector mode (packed GroupConfig)
	CsrFrameCfg             // write: frame size (words) in bits 0:15, frame count in 16:23
	CsrCoreID               // read: flat core/tile id
	CsrLaneID               // read: lane id within the tile's vector group (row-major)
	CsrNumCores             // read: total number of core tiles
	CsrGroupID              // read: id of the tile's vector group (launcher-assigned)
	CsrNumGroups            // read: number of vector groups configured
	CsrCkpt                 // write: arm a checkpoint at the next barrier release
	numCSRs
)

// VloadDist selects where the LLC sends each part of the accessed block
// (paper §2.3.2: single, group, self).
type VloadDist uint8

const (
	VloadSingle VloadDist = iota // all words to one lane (BaseLane)
	VloadGroup                   // consecutive word runs to consecutive lanes
	VloadSelf                    // all words back to the requesting core
)

func (v VloadDist) String() string {
	switch v {
	case VloadSingle:
		return "single"
	case VloadGroup:
		return "group"
	case VloadSelf:
		return "self"
	}
	return fmt.Sprintf("dist(%d)", uint8(v))
}

// VloadPart distinguishes an aligned vload from the unaligned suffix/prefix
// pair: the program issues both pair halves with identical arguments; the
// suffix covers the tail of the first line and the prefix the head of the
// second, combining into one line-sized block (paper §2.3.2).
type VloadPart uint8

const (
	VloadWhole VloadPart = iota
	VloadSuffix
	VloadPrefix
)

func (p VloadPart) String() string {
	switch p {
	case VloadWhole:
		return "whole"
	case VloadSuffix:
		return "suffix"
	case VloadPrefix:
		return "prefix"
	}
	return fmt.Sprintf("part(%d)", uint8(p))
}

// VloadArgs packs the operands of a vload (paper: two registers and an
// immediate; we keep them structural). Addr comes from Rs1, SpadOffset from
// Rs2 at execution time; the rest are immediates.
type VloadArgs struct {
	BaseLane int       // lane in the group to receive the first response
	Width    int       // words per receiving core
	Dist     VloadDist //
	Part     VloadPart //
	Float    bool      // destination words hold float bits (bookkeeping only)
}

// Instr is one decoded instruction. Fields are interpreted per-Op; unused
// fields are zero. Branch/jump targets are absolute instruction indices,
// resolved from labels at build time.
type Instr struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Rs3 Reg // remote-store core id
	Fd  FReg
	Fs1 FReg
	Fs2 FReg
	Fs3 FReg
	Vd  uint8 // SIMD register indices
	Vs1 uint8
	Vs2 uint8
	Imm int32
	Csr CSR
	Vl  VloadArgs
}

// Program is a fully resolved instruction sequence shared by every core.
type Program struct {
	Name   string
	Code   []Instr
	Labels map[string]int // label -> instruction index (for diagnostics)

	// RecoverPC is where survivors of a broken vector group resume when the
	// machine degrades around a dead tile (fault injection). Zero means no
	// recovery point — survivors halt instead. (PC 0 is never a recovery
	// point: it is the program entry.)
	RecoverPC int
}

// Class buckets operations for timing and energy accounting.
type Class uint8

const (
	ClassNop Class = iota
	ClassIntAlu
	ClassIntMul
	ClassIntDiv
	ClassFpAlu
	ClassFpMul
	ClassFpDiv
	ClassLoad  // global memory load
	ClassStore // global memory store
	ClassSpad  // scratchpad access
	ClassCsr
	ClassBranch
	ClassJump
	ClassVecCtl // vissue/vend/devec/frame ops/pred
	ClassVload
	ClassSimd
	ClassSync // barrier/halt
)

// Classify returns the accounting class for op.
func Classify(op Op) Class { return info(op).Class }

// IsControlFlow reports whether op steers the PC. Control-flow instructions
// are never forwarded on the inet (paper §3.2): vector cores cannot diverge.
func IsControlFlow(op Op) bool { return info(op).Flags&Steers != 0 }

// IsPredicatable reports whether the predication flag suppresses op. The
// predication instructions themselves, control flow, and microthread
// terminators always execute (paper §2.4).
func IsPredicatable(op Op) bool { return info(op).Flags&(Steers|Always) == 0 }

// AllowedInMicrothread reports whether a vector core may legally receive op
// over the inet. Arithmetic, memory and predication are allowed; control
// flow and group management are not (paper §3.2).
func AllowedInMicrothread(op Op) bool { return info(op).Flags&(Steers|NoMicro) == 0 }

// WritesInt reports whether the instruction writes integer register Rd.
func (i Instr) WritesInt() bool { return i.Op.has(Rd) && i.Rd != X0 }

// WritesFp reports whether the instruction writes FP register Fd.
func (i Instr) WritesFp() bool { return i.Op.has(Fd) }

// WritesVec reports whether the instruction overwrites SIMD register Vd (a
// write-after-write hazard). An accumulating Vd is a source instead.
func (i Instr) WritesVec() bool { return i.Op.has(Vd) && info(i.Op).Flags&Accum == 0 }

// IntSrcs writes the integer source registers into dst (X0 is never a
// source) and returns how many are set. The order is Rs1, Rs2, Rs3 whatever
// the syntax order: the scoreboard check stalls on the first blocker, and
// stores and vload write Rs2 before Rs1.
func (i *Instr) IntSrcs(dst *[3]Reg) int {
	n := 0
	for k, r := range [3]Reg{i.Rs1, i.Rs2, i.Rs3} {
		if r != X0 && i.Op.has(Rs1+Operand(k)) {
			dst[n] = r
			n++
		}
	}
	return n
}

// FpSrcs writes the FP source registers into dst, in the order Fs1, Fs2,
// Fs3, and returns the count.
func (i *Instr) FpSrcs(dst *[3]FReg) int {
	n := 0
	for k, f := range [3]FReg{i.Fs1, i.Fs2, i.Fs3} {
		if i.Op.has(Fs1 + Operand(k)) {
			dst[n] = f
			n++
		}
	}
	return n
}

// VecSrcs writes the SIMD registers the instruction waits on into dst —
// Vs1, Vs2, and Vd when it accumulates — and returns the count.
func (i *Instr) VecSrcs(dst *[3]uint8) int {
	n := 0
	if i.Op.has(Vs1) {
		dst[n] = i.Vs1
		n++
	}
	if i.Op.has(Vs2) {
		dst[n] = i.Vs2
		n++
	}
	if info(i.Op).Flags&Accum != 0 {
		dst[n] = i.Vd
		n++
	}
	return n
}

// Validate checks structural invariants of a program: branch targets in
// range, register indices in range, vload arguments sane.
func (p *Program) Validate() error {
	n := len(p.Code)
	for pc, in := range p.Code {
		if in.Op == OpInvalid || in.Op >= numOps {
			return fmt.Errorf("%s: pc %d: invalid op %d", p.Name, pc, in.Op)
		}
		if in.Op.has(Target) && (in.Imm < 0 || int(in.Imm) >= n) {
			return fmt.Errorf("%s: pc %d: %s target %d out of range [0,%d)",
				p.Name, pc, in.Op, in.Imm, n)
		}
		if in.Rd >= NumIntRegs || in.Rs1 >= NumIntRegs || in.Rs2 >= NumIntRegs || in.Rs3 >= NumIntRegs {
			return fmt.Errorf("%s: pc %d: integer register out of range", p.Name, pc)
		}
		if in.Fd >= NumFpRegs || in.Fs1 >= NumFpRegs || in.Fs2 >= NumFpRegs || in.Fs3 >= NumFpRegs {
			return fmt.Errorf("%s: pc %d: fp register out of range", p.Name, pc)
		}
		if in.Vd >= NumVecRegs || in.Vs1 >= NumVecRegs || in.Vs2 >= NumVecRegs {
			return fmt.Errorf("%s: pc %d: simd register out of range", p.Name, pc)
		}
		if in.Op.has(VlArgs) {
			if in.Vl.Width <= 0 {
				return fmt.Errorf("%s: pc %d: vload width %d must be positive", p.Name, pc, in.Vl.Width)
			}
			if in.Vl.BaseLane < 0 {
				return fmt.Errorf("%s: pc %d: vload base lane %d negative", p.Name, pc, in.Vl.BaseLane)
			}
		}
	}
	return nil
}
