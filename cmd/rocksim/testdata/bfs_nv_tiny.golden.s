# bfs / NV: 122 instructions
	csrr x1, coreid
	li x2, 0
	li x3, -1
	li x4, 1
bfs_level$1:
	addi x5, x1, 0
	li x12, 192
	bge x5, x12, 113
sl_top$4:
	slli x10, x5, 2
	li x13, 14336
	add x10, x10, x13
	lw x6, 0(x10)
	bne x6, x2, 111
	slli x7, x5, 5
	li x13, 8192
	add x7, x7, x13
	lw x8, 0(x7)
	slli x10, x8, 2
	li x13, 14336
	add x10, x10, x13
	lw x9, 0(x10)
	bne x9, x3, 27
	addi x9, x2, 1
	sw x9, 0(x10)
	slli x10, x2, 2
	li x13, 15360
	add x10, x10, x13
	sw x4, 0(x10)
u_visited$6:
	lw x8, 4(x7)
	slli x10, x8, 2
	li x13, 14336
	add x10, x10, x13
	lw x9, 0(x10)
	bne x9, x3, 39
	addi x9, x2, 1
	sw x9, 0(x10)
	slli x10, x2, 2
	li x13, 15360
	add x10, x10, x13
	sw x4, 0(x10)
u_visited$7:
	lw x8, 8(x7)
	slli x10, x8, 2
	li x13, 14336
	add x10, x10, x13
	lw x9, 0(x10)
	bne x9, x3, 51
	addi x9, x2, 1
	sw x9, 0(x10)
	slli x10, x2, 2
	li x13, 15360
	add x10, x10, x13
	sw x4, 0(x10)
u_visited$8:
	lw x8, 12(x7)
	slli x10, x8, 2
	li x13, 14336
	add x10, x10, x13
	lw x9, 0(x10)
	bne x9, x3, 63
	addi x9, x2, 1
	sw x9, 0(x10)
	slli x10, x2, 2
	li x13, 15360
	add x10, x10, x13
	sw x4, 0(x10)
u_visited$9:
	lw x8, 16(x7)
	slli x10, x8, 2
	li x13, 14336
	add x10, x10, x13
	lw x9, 0(x10)
	bne x9, x3, 75
	addi x9, x2, 1
	sw x9, 0(x10)
	slli x10, x2, 2
	li x13, 15360
	add x10, x10, x13
	sw x4, 0(x10)
u_visited$10:
	lw x8, 20(x7)
	slli x10, x8, 2
	li x13, 14336
	add x10, x10, x13
	lw x9, 0(x10)
	bne x9, x3, 87
	addi x9, x2, 1
	sw x9, 0(x10)
	slli x10, x2, 2
	li x13, 15360
	add x10, x10, x13
	sw x4, 0(x10)
u_visited$11:
	lw x8, 24(x7)
	slli x10, x8, 2
	li x13, 14336
	add x10, x10, x13
	lw x9, 0(x10)
	bne x9, x3, 99
	addi x9, x2, 1
	sw x9, 0(x10)
	slli x10, x2, 2
	li x13, 15360
	add x10, x10, x13
	sw x4, 0(x10)
u_visited$12:
	lw x8, 28(x7)
	slli x10, x8, 2
	li x13, 14336
	add x10, x10, x13
	lw x9, 0(x10)
	bne x9, x3, 111
	addi x9, x2, 1
	sw x9, 0(x10)
	slli x10, x2, 2
	li x13, 15360
	add x10, x10, x13
	sw x4, 0(x10)
u_visited$13:
v_skip$5:
	addi x5, x5, 64
	blt x5, x12, 7
sl_end$3:
	barrier
	slli x10, x2, 2
	li x12, 15360
	add x10, x10, x12
	lw x11, 0(x10)
	beq x11, x0, 121
	addi x2, x2, 1
	jal x0, 4
bfs_done$2:
	halt
