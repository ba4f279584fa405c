# mvt / V4: 361 instructions
	csrr x1, coreid
	csrr x2, groupid
	csrr x3, laneid
	li x4, -1
	beq x2, x4, 238
	slli x6, x2, 2
	add x6, x6, x3
	slli x4, x6, 2
	li x7, 24576
	add x4, x4, x7
	li x6, 327712
	csrw framecfg, x6
	li x6, 0
	li x7, 640
	li x8, 1
	csrw vconfig, x8
	vissue 239
	addi x8, x2, 0
	li x14, 16
	bge x8, x14, 80
sl_top$7:
	slli x9, x8, 10
	li x15, 8192
	add x9, x9, x15
	vissue 242
	addi x10, x9, 0
	li x11, 26624
	li x15, 0
	li x16, 2
dae_pro$8:
	addi x12, x10, 0
	vload x6, x12, 0, 16, single, f
	addi x12, x10, 256
	vload x6, x12, 1, 16, single, f
	addi x12, x10, 512
	vload x6, x12, 2, 16, single, f
	addi x12, x10, 768
	vload x6, x12, 3, 16, single, f
	addi x13, x6, 64
	vload x13, x11, 0, 16, single, f
	vload x13, x11, 1, 16, single, f
	vload x13, x11, 2, 16, single, f
	vload x13, x11, 3, 16, single, f
	addi x10, x10, 64
	addi x11, x11, 64
	addi x6, x6, 128
	blt x6, x7, 46
	li x6, 0
wrap$9:
	addi x15, x15, 1
	blt x15, x16, 28
	li x16, 0
	li x17, 2
dae_steady$10:
	vissue 245
	addi x12, x10, 0
	vload x6, x12, 0, 16, single, f
	addi x12, x10, 256
	vload x6, x12, 1, 16, single, f
	addi x12, x10, 512
	vload x6, x12, 2, 16, single, f
	addi x12, x10, 768
	vload x6, x12, 3, 16, single, f
	addi x13, x6, 64
	vload x13, x11, 0, 16, single, f
	vload x13, x11, 1, 16, single, f
	vload x13, x11, 2, 16, single, f
	vload x13, x11, 3, 16, single, f
	addi x10, x10, 64
	addi x11, x11, 64
	addi x6, x6, 128
	blt x6, x7, 69
	li x6, 0
wrap$11:
	addi x15, x15, 1
	addi x16, x16, 1
	blt x16, x17, 50
	li x17, 0
	li x16, 2
dae_epi$12:
	vissue 245
	addi x17, x17, 1
	blt x17, x16, 74
	vissue 296
	addi x8, x8, 12
	blt x8, x14, 20
sl_end$6:
	devec 81
resume$13:
	barrier
	slli x13, x2, 2
	add x13, x13, x3
	slli x5, x13, 2
	li x12, 25600
	add x5, x5, x12
	li x13, 327712
	csrw framecfg, x13
	li x6, 0
	li x7, 640
	li x13, 1
	csrw vconfig, x13
	vissue 300
	addi x13, x2, 0
	li x14, 16
	bge x13, x14, 235
sl_top$19:
	slli x12, x13, 4
	li x15, 8192
	add x12, x12, x15
	vissue 303
	addi x11, x12, 0
	li x10, 27648
	li x15, 0
	li x16, 2
dae_pro$20:
	addi x9, x6, 0
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 4
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 8
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 12
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 16
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 20
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 24
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 28
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 32
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 36
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 40
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 44
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 48
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 52
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 56
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 60
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x8, x6, 64
	vload x8, x10, 0, 16, single, f
	vload x8, x10, 1, 16, single, f
	vload x8, x10, 2, 16, single, f
	vload x8, x10, 3, 16, single, f
	addi x10, x10, 64
	addi x6, x6, 128
	blt x6, x7, 162
	li x6, 0
wrap$21:
	addi x15, x15, 1
	blt x15, x16, 105
	li x16, 0
	li x17, 2
dae_steady$22:
	vissue 306
	addi x9, x6, 0
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 4
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 8
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 12
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 16
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 20
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 24
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 28
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 32
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 36
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 40
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 44
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 48
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 52
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 56
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x9, x6, 60
	vload x9, x11, 0, 1, group, f
	addi x11, x11, 256
	addi x8, x6, 64
	vload x8, x10, 0, 16, single, f
	vload x8, x10, 1, 16, single, f
	vload x8, x10, 2, 16, single, f
	vload x8, x10, 3, 16, single, f
	addi x10, x10, 64
	addi x6, x6, 128
	blt x6, x7, 224
	li x6, 0
wrap$23:
	addi x15, x15, 1
	addi x16, x16, 1
	blt x16, x17, 166
	li x17, 0
	li x16, 2
dae_epi$24:
	vissue 306
	addi x17, x17, 1
	blt x17, x16, 229
	vissue 357
	addi x13, x13, 12
	blt x13, x14, 97
sl_end$18:
	devec 236
resume$25:
	barrier
	halt
idle$1:
	halt
mt$2:
	li x31, 0
	fmv.w.x f0, x31
	vend
mt$3:
	flw f2, 0(x4)
	fmv f1, f0
	vend
mt$4:
	frame_start x5
	flw.sp f3, 0(x5)
	flw.sp f4, 64(x5)
	fmadd f1, f3, f4, f1
	flw.sp f5, 4(x5)
	flw.sp f6, 68(x5)
	fmadd f1, f5, f6, f1
	flw.sp f5, 8(x5)
	flw.sp f6, 72(x5)
	fmadd f1, f5, f6, f1
	flw.sp f3, 12(x5)
	flw.sp f4, 76(x5)
	fmadd f1, f3, f4, f1
	flw.sp f3, 16(x5)
	flw.sp f4, 80(x5)
	fmadd f1, f3, f4, f1
	flw.sp f5, 20(x5)
	flw.sp f6, 84(x5)
	fmadd f1, f5, f6, f1
	flw.sp f5, 24(x5)
	flw.sp f6, 88(x5)
	fmadd f1, f5, f6, f1
	flw.sp f3, 28(x5)
	flw.sp f4, 92(x5)
	fmadd f1, f3, f4, f1
	flw.sp f3, 32(x5)
	flw.sp f4, 96(x5)
	fmadd f1, f3, f4, f1
	flw.sp f5, 36(x5)
	flw.sp f6, 100(x5)
	fmadd f1, f5, f6, f1
	flw.sp f5, 40(x5)
	flw.sp f6, 104(x5)
	fmadd f1, f5, f6, f1
	flw.sp f3, 44(x5)
	flw.sp f4, 108(x5)
	fmadd f1, f3, f4, f1
	flw.sp f3, 48(x5)
	flw.sp f4, 112(x5)
	fmadd f1, f3, f4, f1
	flw.sp f5, 52(x5)
	flw.sp f6, 116(x5)
	fmadd f1, f5, f6, f1
	flw.sp f5, 56(x5)
	flw.sp f6, 120(x5)
	fmadd f1, f5, f6, f1
	flw.sp f3, 60(x5)
	flw.sp f4, 124(x5)
	fmadd f1, f3, f4, f1
	remem
	vend
mt$5:
	fadd f1, f1, f2
	fsw f1, 0(x4)
	addi x4, x4, 192
	vend
mt$14:
	li x31, 0
	fmv.w.x f6, x31
	vend
mt$15:
	flw f4, 0(x5)
	fmv f5, f6
	vend
mt$16:
	frame_start x4
	flw.sp f3, 0(x4)
	flw.sp f2, 64(x4)
	fmadd f5, f3, f2, f5
	flw.sp f1, 4(x4)
	flw.sp f0, 68(x4)
	fmadd f5, f1, f0, f5
	flw.sp f1, 8(x4)
	flw.sp f0, 72(x4)
	fmadd f5, f1, f0, f5
	flw.sp f3, 12(x4)
	flw.sp f2, 76(x4)
	fmadd f5, f3, f2, f5
	flw.sp f3, 16(x4)
	flw.sp f2, 80(x4)
	fmadd f5, f3, f2, f5
	flw.sp f1, 20(x4)
	flw.sp f0, 84(x4)
	fmadd f5, f1, f0, f5
	flw.sp f1, 24(x4)
	flw.sp f0, 88(x4)
	fmadd f5, f1, f0, f5
	flw.sp f3, 28(x4)
	flw.sp f2, 92(x4)
	fmadd f5, f3, f2, f5
	flw.sp f3, 32(x4)
	flw.sp f2, 96(x4)
	fmadd f5, f3, f2, f5
	flw.sp f1, 36(x4)
	flw.sp f0, 100(x4)
	fmadd f5, f1, f0, f5
	flw.sp f1, 40(x4)
	flw.sp f0, 104(x4)
	fmadd f5, f1, f0, f5
	flw.sp f3, 44(x4)
	flw.sp f2, 108(x4)
	fmadd f5, f3, f2, f5
	flw.sp f3, 48(x4)
	flw.sp f2, 112(x4)
	fmadd f5, f3, f2, f5
	flw.sp f1, 52(x4)
	flw.sp f0, 116(x4)
	fmadd f5, f1, f0, f5
	flw.sp f1, 56(x4)
	flw.sp f0, 120(x4)
	fmadd f5, f1, f0, f5
	flw.sp f3, 60(x4)
	flw.sp f2, 124(x4)
	fmadd f5, f3, f2, f5
	remem
	vend
mt$17:
	fadd f5, f5, f4
	fsw f5, 0(x5)
	addi x5, x5, 192
	vend
