# Every operation of the ISA once, in table order (internal/isa/ops.go).
# The program is only assembled and disassembled by the rockasm test, never
# run: it has to be well formed, not meaningful.
start:
	nop
	add x1, x2, x3
	sub x4, x5, x6
	mul x7, x8, x9
	div x10, x11, x12
	rem x13, x14, x15
	and x16, x17, x18
	or x19, x20, x21
	xor x22, x23, x24
	sll x25, x26, x27
	srl x28, x29, x30
	sra x31, x1, x2
	slt x3, x4, x5
	sltu x6, x7, x8
	addi x9, x10, -2048
	andi x11, x12, 255
	ori x13, x14, 0x10
	xori x15, x16, -1
	slli x17, x18, 3
	srli x19, x20, 31
	srai x21, x22, 1
	slti x23, x24, 7
	li x25, 0xdeadbeef       ; wraps to a negative int32
loop:
	beq x1, x2, loop
	bne x3, x4, start
	blt x5, x6, micro
	bge x7, x8, done
	bltu x9, x10, 0
	bgeu x11, x12, loop
	jal x1, done
	jalr x0, x1, 4
	fadd f1, f2, f3
	fsub f4, f5, f6
	fmul f7, f8, f9
	fdiv f10, f11, f12
	fsqrt f13, f14
	fmadd f15, f16, f17, f18
	fmin f19, f20, f21
	fmax f22, f23, f24
	fabs f25, f26
	fneg f27, f28
	fmv f29, f30
	feq x13, f31, f0
	flt x14, f1, f2
	fle x15, f3, f4
	fcvt.w.s x16, f5
	fcvt.s.w f6, x17
	fmv.x.w x18, f7
	fmv.w.x f8, x19
	lw x20, 8(x21)
	sw x22, -4(x23)
	flw f9, 0(x24)
	fsw f10, 12(x25)
	lw.sp x26, 16(x27)
	flw.sp f11, 24(x30)
	sw.rem x1, 32(x2), x3
	csrw vconfig, x6
	csrr x7, coreid
	vissue micro
	devec done
	vload x8, x9, 0, 16, group, f
	vload x10, x11, 3, 4, single, suffix
	vload x12, x13, 0, 8, self, prefix, f
done:
tail:
	barrier
	halt
micro:
	frame_start x14
	pred_eq x15, x16
	pred_neq x17, x18
	vlw.sp v0, 0(x14)
	vfma v3, v4, v5
	vbcast.f v2, f16
	vfredsum f17, v3
	remem
	vend
