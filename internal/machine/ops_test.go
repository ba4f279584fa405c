package machine_test

import (
	"fmt"
	"math"
	"testing"

	"rockcress/internal/asm"
	"rockcress/internal/config"
	"rockcress/internal/isa"
	"rockcress/internal/kernels"
	"rockcress/internal/machine"
)

// Operands of the base-row program. a is negative so the arithmetic and
// logical shifts, and the signed and unsigned compares, disagree on it.
const (
	baseA   int32   = -200
	baseB   uint32  = 0x0f0f1234
	baseSh  uint32  = 5
	baseF1  float32 = -2.75
	baseF2  float32 = 1.75
	baseOut         = 0x9000
)

// baseRowsSource is one program that runs, on core 0, every RV32IMF row no
// kernel emits and stores each result to baseOut; the other cores go
// straight to the closing barrier. Result i lands at baseOut+4i, in the
// order TestBaseRowsRun lists them.
func baseRowsSource() string {
	return fmt.Sprintf(`
	csrr x1, coreid
	bne x1, x0, done
	li x2, %#x
	li x3, %d
	li x4, %#x
	li x5, %d
	li x10, %#x
	fmv.w.x f1, x10
	li x10, %#x
	fmv.w.x f2, x10
	nop
	or x6, x3, x4
	sw x6, 0(x2)
	xor x6, x3, x4
	sw x6, 4(x2)
	sll x6, x4, x5
	sw x6, 8(x2)
	srl x6, x3, x5
	sw x6, 12(x2)
	sra x6, x3, x5
	sw x6, 16(x2)
	ori x6, x3, 0x5a5
	sw x6, 20(x2)
	srli x6, x3, 7
	sw x6, 24(x2)
	srai x6, x3, 7
	sw x6, 28(x2)
	slti x6, x3, 5
	sw x6, 32(x2)
	li x6, 0             # bltu: taken, then not taken
	bltu x4, x3, bltu_t
	li x6, 99
bltu_t:
	addi x6, x6, 1
	bltu x3, x4, bltu_n
	addi x6, x6, 2
bltu_n:
	sw x6, 36(x2)
	li x6, 0             # bgeu: taken, then not taken
	bgeu x3, x4, bgeu_t
	li x6, 99
bgeu_t:
	addi x6, x6, 1
	bgeu x4, x3, bgeu_n
	addi x6, x6, 2
bgeu_n:
	sw x6, 40(x2)
	li x8, 0             # jalr with rd == rs1: the landing marks x8
	jal x7, link
link:
	jalr x7, x7, 2
	addi x8, x8, 1
	addi x8, x8, 2
	addi x8, x8, 4
	sw x8, 44(x2)
	sw x7, 48(x2)
	fmin f3, f1, f2
	fsw f3, 52(x2)
	fmax f3, f1, f2
	fsw f3, 56(x2)
	fabs f3, f1
	fsw f3, 60(x2)
	fneg f3, f2
	fsw f3, 64(x2)
	feq x6, f1, f2
	sw x6, 68(x2)
	flt x6, f1, f1
	sw x6, 72(x2)
	fcvt.w.s x6, f1
	sw x6, 76(x2)
	fcvt.s.w f3, x3
	fsw f3, 80(x2)
	fmv.x.w x6, f2
	sw x6, 84(x2)
done:
	barrier
	halt
`, baseOut, baseA, baseB, baseSh, math.Float32bits(baseF1), math.Float32bits(baseF2))
}

func assembleBaseRows(t *testing.T) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("base-rows", baseRowsSource())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBaseRowsRun runs the RV32IMF rows that no kernel emits and checks each
// result against Go's own operators, not against the cycle model's lowering.
func TestBaseRowsRun(t *testing.T) {
	p := assembleBaseRows(t)
	m, err := machine.New(machine.Params{Cfg: config.ManycoreDefault(), Prog: p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(testBudget); err != nil {
		t.Fatal(err)
	}
	a, b, sh := baseA, baseB, baseSh
	f1, f2 := baseF1, baseF2
	b2u := func(c bool) uint32 {
		if c {
			return 1
		}
		return 0
	}
	// Each branch pair: x6 = 0 when the first branch is taken (99 when it
	// falls through), +1, then +2 unless the second branch is taken.
	branchPair := func(first, second bool) uint32 {
		v := uint32(99)
		if first {
			v = 0
		}
		return v + 1 + 2*b2u(!second)
	}
	// jalr writes the link before it reads rs1, so with rd == rs1 it jumps
	// to link+1+2 and adds only the markers from there on (1, 2 and 4 sit
	// at link+1, link+2 and link+3).
	link := p.Labels["link"]
	ret := link + 1
	landing := uint32(0)
	for k, mark := range []uint32{1, 2, 4} {
		if link+1+k >= ret+2 {
			landing += mark
		}
	}
	f32 := math.Float32bits
	for i, c := range []struct {
		op   string
		want uint32
	}{
		{"or", uint32(a) | b},
		{"xor", uint32(a) ^ b},
		{"sll", b << sh},
		{"srl", uint32(a) >> sh},
		{"sra", uint32(a >> sh)},
		{"ori", uint32(a) | 0x5a5},
		{"srli", uint32(a) >> 7},
		{"srai", uint32(a >> 7)},
		{"slti", b2u(a < 5)},
		{"bltu", branchPair(b < uint32(a), uint32(a) < b)},
		{"bgeu", branchPair(uint32(a) >= b, b >= uint32(a))},
		{"jalr", landing},
		{"jalr link", uint32(ret)},
		{"fmin", f32(min(f1, f2))},
		{"fmax", f32(max(f1, f2))},
		{"fabs", f32(float32(math.Abs(float64(f1))))},
		{"fneg", f32(-f2)},
		{"feq", b2u(f1 == f2)},
		{"flt", b2u(f1 < f1)},
		{"fcvt.w.s", uint32(int32(f1))},
		{"fcvt.s.w", f32(float32(a))},
		{"fmv.x.w", f32(f2)},
	} {
		if got := m.Global.ReadWord(uint32(baseOut + 4*i)); got != c.want {
			t.Errorf("%s: stored %#x, want %#x", c.op, got, c.want)
		}
	}
}

// ranElsewhere names the test that runs each row neither the kernel corpus
// nor the base-row program does.
var ranElsewhere = map[string]string{
	"lw.sp":  "TestRemoteStoreShuffle",
	"sw.rem": "TestRemoteStoreShuffle",
	"andi":   "TestRemoteStoreShuffle",
}

// TestEveryOpRuns holds every isa.Ops row to a runner: a program of the
// kernel corpus (every kernel x Table 3 row x {Tiny, Small}) emits it, the
// base-row program runs it, or ranElsewhere names the test that does. A
// row nothing runs has cycle-model semantics nothing checks: run it or
// delete it.
func TestEveryOpRuns(t *testing.T) {
	runs := map[isa.Op]bool{}
	for _, in := range assembleBaseRows(t).Code {
		runs[in.Op] = true
	}
	for _, b := range kernels.All() {
		for _, sw := range config.Presets() {
			for _, scale := range []kernels.Scale{kernels.Tiny, kernels.Small} {
				for _, in := range kernelProgram(b, sw, scale) {
					runs[in.Op] = true
				}
			}
		}
	}
	for op, row := range isa.Ops {
		if row.Name == "" {
			continue // OpInvalid
		}
		if !runs[isa.Op(op)] && ranElsewhere[row.Name] == "" {
			t.Errorf("%s: no kernel emits it and no test runs it", row.Name)
		}
	}
}

// kernelProgram builds b's program for one Table 3 row as rocksim -dump-asm
// does; nil when the row has no mapping (gramschm on the SIMD rows).
func kernelProgram(b kernels.Benchmark, sw config.Software, scale kernels.Scale) []isa.Instr {
	p := b.Defaults(scale)
	img, err := b.Prepare(p)
	if err != nil {
		return nil
	}
	hw := sw.Apply(config.ManycoreDefault())
	groups, err := kernels.GroupsFor(sw, hw)
	if err != nil {
		return nil
	}
	ctx := kernels.NewCtx(p, img, sw, hw, groups)
	if b.Build(ctx) != nil {
		return nil
	}
	prog, err := ctx.B.Build()
	if err != nil {
		return nil
	}
	return prog.Code
}
