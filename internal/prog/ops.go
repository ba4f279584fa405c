package prog

import "rockcress/internal/isa"

// Thin emission wrappers over the ISA. Naming follows the mnemonics.

// Li loads a 32-bit immediate.
func (b *Builder) Li(rd isa.Reg, v int32) {
	b.Emit(isa.Instr{Op: isa.OpLi, Rd: rd, Imm: v})
}

// LiU loads an unsigned immediate (addresses).
func (b *Builder) LiU(rd isa.Reg, v uint32) { b.Li(rd, int32(v)) }

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpAdd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpSub, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Mul emits rd = rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpMul, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Div emits rd = rs1 / rs2 (signed).
func (b *Builder) Div(rd, rs1, rs2 isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpDiv, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Rem emits rd = rs1 % rs2 (signed).
func (b *Builder) Rem(rd, rs1, rs2 isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpRem, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpAddi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Slli emits rd = rs1 << imm.
func (b *Builder) Slli(rd, rs1 isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpSlli, Rd: rd, Rs1: rs1, Imm: imm})
}

// Andi emits rd = rs1 & imm.
func (b *Builder) Andi(rd, rs1 isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpAndi, Rd: rd, Rs1: rs1, Imm: imm})
}

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpAnd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Slt emits rd = (rs1 < rs2) signed.
func (b *Builder) Slt(rd, rs1, rs2 isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpSlt, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Mv copies a register (addi rd, rs, 0).
func (b *Builder) Mv(rd, rs isa.Reg) { b.Addi(rd, rs, 0) }

// Fadd emits fd = fs1 + fs2.
func (b *Builder) Fadd(fd, fs1, fs2 isa.FReg) {
	b.Emit(isa.Instr{Op: isa.OpFadd, Fd: fd, Fs1: fs1, Fs2: fs2})
}

// Fsub emits fd = fs1 - fs2.
func (b *Builder) Fsub(fd, fs1, fs2 isa.FReg) {
	b.Emit(isa.Instr{Op: isa.OpFsub, Fd: fd, Fs1: fs1, Fs2: fs2})
}

// Fmul emits fd = fs1 * fs2.
func (b *Builder) Fmul(fd, fs1, fs2 isa.FReg) {
	b.Emit(isa.Instr{Op: isa.OpFmul, Fd: fd, Fs1: fs1, Fs2: fs2})
}

// Fdiv emits fd = fs1 / fs2.
func (b *Builder) Fdiv(fd, fs1, fs2 isa.FReg) {
	b.Emit(isa.Instr{Op: isa.OpFdiv, Fd: fd, Fs1: fs1, Fs2: fs2})
}

// Fsqrt emits fd = sqrt(fs1).
func (b *Builder) Fsqrt(fd, fs1 isa.FReg) {
	b.Emit(isa.Instr{Op: isa.OpFsqrt, Fd: fd, Fs1: fs1})
}

// Fmadd emits fd = fs1*fs2 + fs3.
func (b *Builder) Fmadd(fd, fs1, fs2, fs3 isa.FReg) {
	b.Emit(isa.Instr{Op: isa.OpFmadd, Fd: fd, Fs1: fs1, Fs2: fs2, Fs3: fs3})
}

// Fmv copies an FP register.
func (b *Builder) Fmv(fd, fs isa.FReg) {
	b.Emit(isa.Instr{Op: isa.OpFmv, Fd: fd, Fs1: fs})
}

// FliF materializes an FP constant via an integer register. Inside a
// microthread block it uses the reserved scratch register so nothing leaks
// from (or is clobbered in) the shared register file.
func (b *Builder) FliF(fd isa.FReg, v float32) {
	if b.inMT {
		b.LiU(mtScratch, f32bits(v))
		b.Emit(isa.Instr{Op: isa.OpFmvWX, Fd: fd, Rs1: mtScratch})
		return
	}
	tmp := b.Int()
	b.LiU(tmp, f32bits(v))
	b.Emit(isa.Instr{Op: isa.OpFmvWX, Fd: fd, Rs1: tmp})
	b.FreeInt(tmp)
}

// Lw loads a global word: rd = mem[rs1+imm].
func (b *Builder) Lw(rd, rs1 isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpLw, Rd: rd, Rs1: rs1, Imm: imm})
}

// Flw loads a global float: fd = mem[rs1+imm].
func (b *Builder) Flw(fd isa.FReg, rs1 isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpFlw, Fd: fd, Rs1: rs1, Imm: imm})
}

// Sw stores a global word: mem[rs1+imm] = rs2.
func (b *Builder) Sw(rs2, rs1 isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpSw, Rs2: rs2, Rs1: rs1, Imm: imm})
}

// Fsw stores a global float: mem[rs1+imm] = fs2.
func (b *Builder) Fsw(fs2 isa.FReg, rs1 isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpFsw, Fs2: fs2, Rs1: rs1, Imm: imm})
}

// LwSp loads a word from the local scratchpad.
func (b *Builder) LwSp(rd, rs1 isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpLwSp, Rd: rd, Rs1: rs1, Imm: imm})
}

// FlwSp loads a float from the local scratchpad.
func (b *Builder) FlwSp(fd isa.FReg, rs1 isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpFlwSp, Fd: fd, Rs1: rs1, Imm: imm})
}

// SwRemote stores a word into core rs3's scratchpad at rs1+imm.
func (b *Builder) SwRemote(rs2, rs1 isa.Reg, imm int32, core isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpSwRemote, Rs2: rs2, Rs1: rs1, Imm: imm, Rs3: core})
}

// Csrr reads a CSR.
func (b *Builder) Csrr(rd isa.Reg, csr isa.CSR) {
	b.Emit(isa.Instr{Op: isa.OpCsrr, Rd: rd, Csr: csr})
}

// Csrw writes a CSR.
func (b *Builder) Csrw(csr isa.CSR, rs1 isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpCsrw, Csr: csr, Rs1: rs1})
}

// Branches: all take a label.

// Beq branches to label when rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 isa.Reg, label string) {
	b.emitRef(isa.Instr{Op: isa.OpBeq, Rs1: rs1, Rs2: rs2}, label)
}

// Bne branches to label when rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 isa.Reg, label string) {
	b.emitRef(isa.Instr{Op: isa.OpBne, Rs1: rs1, Rs2: rs2}, label)
}

// Blt branches to label when rs1 < rs2 (signed).
func (b *Builder) Blt(rs1, rs2 isa.Reg, label string) {
	b.emitRef(isa.Instr{Op: isa.OpBlt, Rs1: rs1, Rs2: rs2}, label)
}

// Bge branches to label when rs1 >= rs2 (signed).
func (b *Builder) Bge(rs1, rs2 isa.Reg, label string) {
	b.emitRef(isa.Instr{Op: isa.OpBge, Rs1: rs1, Rs2: rs2}, label)
}

// Jmp jumps unconditionally to label.
func (b *Builder) Jmp(label string) {
	b.emitRef(isa.Instr{Op: isa.OpJal, Rd: isa.X0}, label)
}

// Nop emits a pipeline bubble.
func (b *Builder) Nop() { b.Emit(isa.Instr{Op: isa.OpNop}) }

// Barrier emits a global barrier.
func (b *Builder) Barrier() { b.Emit(isa.Instr{Op: isa.OpBarrier}) }

// Halt finishes the core.
func (b *Builder) Halt() { b.Emit(isa.Instr{Op: isa.OpHalt}) }

// SIMD wrappers (PCV extension).

// VlwSp loads SIMDWidth words from the scratchpad into vd.
func (b *Builder) VlwSp(vd uint8, rs1 isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpVlwSp, Vd: vd, Rs1: rs1, Imm: imm})
}

// Vfma emits vd += vs1 * vs2 elementwise.
func (b *Builder) Vfma(vd, vs1, vs2 uint8) {
	b.Emit(isa.Instr{Op: isa.OpVfma, Vd: vd, Vs1: vs1, Vs2: vs2})
}

// VbcastF fills vd with fs.
func (b *Builder) VbcastF(vd uint8, fs isa.FReg) {
	b.Emit(isa.Instr{Op: isa.OpVbcastF, Vd: vd, Fs3: fs})
}

// Vfredsum reduces vs1 into fd.
func (b *Builder) Vfredsum(fd isa.FReg, vs1 uint8) {
	b.Emit(isa.Instr{Op: isa.OpVfredsum, Fd: fd, Vs1: vs1})
}
