package kernels

import (
	"rockcress/internal/isa"
)

// log2 returns log2(v) for powers of two, -1 otherwise.
func log2(v int) int {
	for s := 0; s < 31; s++ {
		if 1<<s == v {
			return s
		}
	}
	return -1
}

// StridedLoop emits: for i = start; i < stop; i += stride { body }. This is
// the canonical interleaved work split (worker w takes iterations w, w+W,
// w+2W, ...), robust to iteration counts that do not divide the worker
// count.
func (c *Ctx) StridedLoop(i, start isa.Reg, stop, stride int32, body func()) {
	b := c.B
	bound := b.Int()
	end := b.NewLabel("sl_end")
	top := b.NewLabel("sl_top")
	b.Mv(i, start)
	b.Li(bound, stop)
	b.Bge(i, bound, end)
	b.Label(top)
	body()
	b.Addi(i, i, stride)
	b.Blt(i, bound, top)
	b.Label(end)
	b.FreeInt(bound)
}

// MulConst emits dst = src * k, using a shift when k is a power of two.
func (c *Ctx) MulConst(dst, src isa.Reg, k int) {
	b := c.B
	if s := log2(k); s >= 0 {
		b.Slli(dst, src, int32(s))
		return
	}
	t := b.Int()
	b.Li(t, int32(k))
	b.Mul(dst, src, t)
	b.FreeInt(t)
}

// AddrInto emits dst = base + idx*4*wordsPerElem + byteOff, where base is
// an array's start address (immediate).
func (c *Ctx) AddrInto(dst, idx isa.Reg, base uint32, wordsPerElem int, byteOff int32) {
	b := c.B
	c.MulConst(dst, idx, 4*wordsPerElem)
	t := b.Int()
	b.LiU(t, base+uint32(byteOff))
	b.Add(dst, dst, t)
	b.FreeInt(t)
}

// LanePtr emits ptr = &base[(first + Gid*vlen + Lane) * rowWords] + byteOff:
// the address of the row this lane owns in the group's first vlen-row block.
// Lane setup code calls it before the group forms.
func (c *Ctx) LanePtr(ptr isa.Reg, first int, base uint32, rowWords int, byteOff int32) {
	b := c.B
	row := b.Int()
	c.MulConst(row, c.Gid, c.VLen())
	b.Add(row, row, c.Lane)
	if first != 0 {
		b.Addi(row, row, int32(first))
	}
	c.AddrInto(ptr, row, base, rowWords, byteOff)
	b.FreeInt(row)
}

// VLoadLanes emits one single-lane vload per lane: lane l receives words
// words from src + l*laneStride (bytes) at scratchpad offset off. t is the
// caller's address temporary.
func (c *Ctx) VLoadLanes(t, src isa.Reg, laneStride int, off isa.Reg, words int) {
	for l := 0; l < c.VLen(); l++ {
		c.B.Addi(t, src, int32(l*laneStride))
		c.B.VLoad(isa.VloadSingle, t, off, l, words, true)
	}
}

// VLoadAll emits one single-lane vload per lane of the same words words at
// src: every lane receives its own copy at scratchpad offset off.
func (c *Ctx) VLoadAll(src, off isa.Reg, words int) {
	for l := 0; l < c.VLen(); l++ {
		c.B.VLoad(isa.VloadSingle, src, off, l, words, true)
	}
}

// Fp4 reserves the four rotating FP temporaries FrameDot and the stencils
// load through.
func (c *Ctx) Fp4() [4]isa.FReg {
	b := c.B
	return [4]isa.FReg{b.Fp(), b.Fp(), b.Fp(), b.Fp()}
}

// GlobalDot emits acc += dot(mem[pA..], mem[pB..]) over n words, advancing
// both pointer registers by 4n. It unrolls by four and rotates load
// destinations so the core's load queue stays full (the MLP the NV
// baseline's GCC -O3 unrolling extracts).
func (c *Ctx) GlobalDot(acc isa.FReg, pA, pB isa.Reg, n int) {
	if n%4 != 0 {
		c.B.Fail("kernels: GlobalDot n=%d not a multiple of 4", n)
		return
	}
	b := c.B
	var fa, fb [4]isa.FReg
	for u := 0; u < 4; u++ {
		fa[u], fb[u] = b.Fp(), b.Fp()
	}
	k := b.Int()
	b.ForI(k, 0, int32(n/4), 1, func() {
		for u := 0; u < 4; u++ {
			b.Flw(fa[u], pA, int32(4*u))
			b.Flw(fb[u], pB, int32(4*u))
		}
		for u := 0; u < 4; u++ {
			b.Fmadd(acc, fa[u], fb[u], acc)
		}
		b.Addi(pA, pA, 16)
		b.Addi(pB, pB, 16)
	})
	b.FreeInt(k)
	for u := 0; u < 4; u++ {
		b.FreeFp(fa[u], fb[u])
	}
}

// FrameDot emits acc += dot(frame[aOff..], frame[bOff..]) over n scratchpad
// words, fully unrolled with static offsets relative to the frame base
// register fb. Safe inside microthreads (allocates no registers the caller
// must preserve — the temporaries must stay reserved for the program's
// lifetime, so the caller passes them in).
func (c *Ctx) FrameDot(acc isa.FReg, fbase isa.Reg, tmps [4]isa.FReg, aOff, bOff int32, n int) {
	b := c.B
	for k := 0; k < n; k += 2 {
		u0, u1 := k%4, (k+1)%4
		b.FlwSp(tmps[u0], fbase, aOff+int32(4*k))
		b.FlwSp(tmps[u1], fbase, bOff+int32(4*k))
		b.Fmadd(acc, tmps[u0], tmps[u1], acc)
		if k+1 < n {
			u2, u3 := (k+2)%4, (k+3)%4
			b.FlwSp(tmps[u2], fbase, aOff+int32(4*(k+1)))
			b.FlwSp(tmps[u3], fbase, bOff+int32(4*(k+1)))
			b.Fmadd(acc, tmps[u2], tmps[u3], acc)
		}
	}
}

// FrameDotSIMD emits accV += frame[aOff..] * frame[bOff..] over n words
// using the per-core SIMD unit (n must be a SIMDWidth multiple). va/vb are
// caller-reserved SIMD temporaries.
func (c *Ctx) FrameDotSIMD(accV uint8, fbase isa.Reg, va, vb uint8, aOff, bOff int32, n int) {
	b := c.B
	w := c.HW.SIMDWidth
	if n%w != 0 {
		b.Fail("kernels: FrameDotSIMD n=%d not a multiple of %d", n, w)
		return
	}
	for k := 0; k < n; k += w {
		b.VlwSp(va, fbase, aOff+int32(4*k))
		b.VlwSp(vb, fbase, bOff+int32(4*k))
		b.Vfma(accV, va, vb)
	}
}

// Fzero loads 0.0 into a fresh FP register (callers often keep one around).
func (c *Ctx) Fzero() isa.FReg {
	f := c.B.Fp()
	c.B.FliF(f, 0)
	return f
}
