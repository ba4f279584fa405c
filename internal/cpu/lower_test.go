package cpu

import (
	"math"
	"testing"

	"rockcress/internal/alloctest"
	"rockcress/internal/config"
	"rockcress/internal/isa"
	"rockcress/internal/stats"
)

// arithCase is one arithmetic instruction run on a bare core. Sources sit
// in x1, x2 and f1, f2, f3; the result lands in x3 or f4, whichever the
// row's syntax names. want is the integer result, or the fp result's bits.
type arithCase struct {
	op      isa.Op
	a, b    uint32  // x1, x2
	x, y, z float32 // f1, f2, f3
	imm     int32
	want    uint32
}

func neg(v int32) uint32 { return uint32(v) }

func fbits(v float32) uint32 { return math.Float32bits(v) }

// TestArithmeticRows runs every integer and fp arithmetic row of isa.Ops
// under six distinct unit latencies: each result is checked against a
// hand-written expectation (edge operands included), each ready cycle
// against its class's latency, and the divider rows against the shared
// divider's busy window.
func TestArithmeticRows(t *testing.T) {
	cfg := config.ManycoreDefault()
	cfg.ALULat, cfg.MulLat, cfg.DivLat = 2, 3, 5
	cfg.FpALULat, cfg.FpMulLat, cfg.FpDivLat = 7, 11, 13
	lat := map[isa.Class]int64{
		isa.ClassIntAlu: 2, isa.ClassIntMul: 3, isa.ClassIntDiv: 5,
		isa.ClassFpAlu: 7, isa.ClassFpMul: 11, isa.ClassFpDiv: 13,
	}
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	const minInt = 0x80000000

	cases := []arithCase{
		{op: isa.OpAdd, a: 7, b: neg(-1), want: 6},
		{op: isa.OpAdd, a: 0xFFFFFFFF, b: 2, want: 1},
		{op: isa.OpSub, a: 3, b: 5, want: neg(-2)},
		{op: isa.OpMul, a: neg(-3), b: 7, want: neg(-21)},
		{op: isa.OpMul, a: 0x10000, b: 0x10000, want: 0},
		{op: isa.OpDiv, a: 7, b: neg(-2), want: neg(-3)},
		{op: isa.OpDiv, a: 7, b: 0, want: 0xFFFFFFFF},
		{op: isa.OpDiv, a: minInt, b: neg(-1), want: minInt},
		{op: isa.OpRem, a: 7, b: neg(-2), want: 1},
		{op: isa.OpRem, a: neg(-7), b: 2, want: neg(-1)},
		{op: isa.OpRem, a: 7, b: 0, want: 7},
		{op: isa.OpRem, a: minInt, b: neg(-1), want: 0},
		{op: isa.OpAnd, a: 0b1100, b: 0b1010, want: 0b1000},
		{op: isa.OpOr, a: 0b1100, b: 0b1010, want: 0b1110},
		{op: isa.OpXor, a: 0b1100, b: 0b1010, want: 0b0110},
		{op: isa.OpSll, a: 1, b: 33, want: 2},
		{op: isa.OpSrl, a: minInt, b: 36, want: 0x08000000},
		{op: isa.OpSra, a: minInt, b: 35, want: 0xF0000000},
		{op: isa.OpSra, a: neg(-16), b: 2, want: neg(-4)},
		{op: isa.OpSlt, a: neg(-1), b: 1, want: 1},
		{op: isa.OpSlt, a: 1, b: neg(-1), want: 0},
		{op: isa.OpSltu, a: 0xFFFFFFFF, b: 1, want: 0},
		{op: isa.OpSltu, a: 1, b: 0xFFFFFFFF, want: 1},
		{op: isa.OpAddi, a: 5, imm: -7, want: neg(-2)},
		{op: isa.OpAndi, a: 0xF0F0, imm: -1, want: 0xF0F0},
		{op: isa.OpOri, a: 0xF0, imm: -256, want: 0xFFFFFFF0},
		{op: isa.OpXori, a: 0xFF, imm: -1, want: 0xFFFFFF00},
		{op: isa.OpSlli, a: 1, imm: 33, want: 2},
		{op: isa.OpSrli, a: minInt, imm: 36, want: 0x08000000},
		{op: isa.OpSrai, a: neg(-16), imm: 34, want: neg(-4)},
		{op: isa.OpSlti, a: neg(-5), imm: -3, want: 1},
		{op: isa.OpSlti, a: neg(-3), imm: -5, want: 0},
		{op: isa.OpLi, a: 99, imm: -1, want: 0xFFFFFFFF},

		{op: isa.OpFadd, x: 1.5, y: 2.25, want: fbits(3.75)},
		{op: isa.OpFsub, x: 1.5, y: 2.25, want: fbits(-0.75)},
		{op: isa.OpFmul, x: 1.5, y: -4, want: fbits(-6)},
		{op: isa.OpFdiv, x: 3, y: 4, want: fbits(0.75)},
		{op: isa.OpFdiv, x: 1, y: 0, want: fbits(inf)},
		{op: isa.OpFsqrt, x: 2.25, want: fbits(1.5)},
		{op: isa.OpFmadd, x: 2, y: 3, z: 1, want: fbits(7)},
		{op: isa.OpFmin, x: 2, y: -1, want: fbits(-1)},
		{op: isa.OpFmin, x: 0, y: negZero, want: fbits(negZero)},
		{op: isa.OpFmax, x: 2, y: -1, want: fbits(2)},
		{op: isa.OpFmax, x: negZero, y: 0, want: fbits(0)},
		{op: isa.OpFabs, x: -2.5, want: fbits(2.5)},
		{op: isa.OpFneg, x: 2, want: fbits(-2)},
		{op: isa.OpFmv, x: -0.5, want: fbits(-0.5)},
		{op: isa.OpFeq, x: 1, y: 1, want: 1},
		{op: isa.OpFeq, x: nan, y: nan, want: 0},
		{op: isa.OpFlt, x: 1, y: 2, want: 1},
		{op: isa.OpFlt, x: nan, y: 2, want: 0},
		{op: isa.OpFle, x: 1, y: 1, want: 1},
		{op: isa.OpFle, x: 1, y: nan, want: 0},
		{op: isa.OpFcvtWS, x: -2.7, want: neg(-2)},
		{op: isa.OpFcvtSW, a: neg(-3), want: fbits(-3)},
		{op: isa.OpFmvXW, x: 1, want: 0x3F800000},
		{op: isa.OpFmvWX, a: 0xC0200000, want: fbits(-2.5)},
	}
	// NaN results are checked by class, not bits: fsqrt of a negative and
	// fmin/fmax with a NaN operand give a NaN.
	nanCases := []arithCase{
		{op: isa.OpFsqrt, x: -1},
		{op: isa.OpFmin, x: nan, y: 1},
		{op: isa.OpFmax, x: 1, y: nan},
		{op: isa.OpFdiv, x: 0, y: 0},
	}

	covered := map[isa.Op]bool{}
	run := func(tc arithCase, isNaN bool) {
		t.Helper()
		row := isa.Ops[tc.op]
		class := isa.Classify(tc.op)
		in := isa.Instr{Op: tc.op, Rd: 3, Rs1: 1, Rs2: 2, Fd: 4, Fs1: 1, Fs2: 2, Fs3: 3, Imm: tc.imm}
		var e lowEntry
		lowerInstr(&e, &in, cfg)
		c := &Core{}
		c.intRegs[1], c.intRegs[2] = tc.a, tc.b
		c.fpRegs[1], c.fpRegs[2], c.fpRegs[3] = tc.x, tc.y, tc.z
		const now = 100
		divider := class == isa.ClassIntDiv || class == isa.ClassFpDiv

		// The shared divider is busy one more cycle: divider rows refuse
		// without writing, every other row issues regardless.
		c.divBusyUntil = now + 1
		ok, stall := c.exec(now, &e)
		if divider {
			if ok || stall != stats.StallOther {
				t.Errorf("%s with the divider busy: got (%v, %v), want (false, %v)", row.Name, ok, stall, stats.StallOther)
			}
			if c.intReady[3] != 0 || c.fpReady[4] != 0 {
				t.Errorf("%s wrote a register while the divider was busy", row.Name)
			}
			c.divBusyUntil = now
			ok, stall = c.exec(now, &e)
		}
		if !ok || stall != stats.StallNone {
			t.Errorf("%s: got (%v, %v), want (true, %v)", row.Name, ok, stall, stats.StallNone)
			return
		}
		wantDivBusy := int64(now + 1)
		if divider {
			wantDivBusy = now + lat[class]
		}
		if c.divBusyUntil != wantDivBusy {
			t.Errorf("%s left the divider busy until %d, want %d", row.Name, c.divBusyUntil, wantDivBusy)
		}

		var got uint32
		var ready int64
		if row.Syntax[0] == isa.Rd {
			got, ready = c.intRegs[3], c.intReady[3]
		} else {
			got, ready = fbits(c.fpRegs[4]), c.fpReady[4]
		}
		if ready != now+lat[class] {
			t.Errorf("%s: ready at %d, want %d (class %d latency %d)", row.Name, ready, now+lat[class], class, lat[class])
		}
		if isNaN {
			if !math.IsNaN(float64(math.Float32frombits(got))) {
				t.Errorf("%s(%v, %v): got %v, want NaN", row.Name, tc.x, tc.y, math.Float32frombits(got))
			}
		} else if got != tc.want {
			t.Errorf("%s(a=%#x b=%#x x=%v y=%v z=%v imm=%d): got %#x, want %#x",
				row.Name, tc.a, tc.b, tc.x, tc.y, tc.z, tc.imm, got, tc.want)
		}
		covered[tc.op] = true
	}
	for _, tc := range cases {
		run(tc, false)
	}
	for _, tc := range nanCases {
		run(tc, true)
	}
	for op, row := range isa.Ops {
		if _, arith := lat[row.Class]; arith && !covered[isa.Op(op)] {
			t.Errorf("arithmetic row %s has no case", row.Name)
		}
	}
}

// allRows returns a valid program holding every isa.Ops row once, each
// with in-range registers, a branch target of 0 and a one-word vload.
func allRows(t *testing.T) []isa.Instr {
	t.Helper()
	var code []isa.Instr
	for op := range isa.Ops {
		if isa.Op(op) == isa.OpInvalid {
			continue
		}
		code = append(code, isa.Instr{
			Op: isa.Op(op), Rd: 1, Rs1: 2, Rs2: 3, Rs3: 4, Fd: 1, Fs1: 2, Fs2: 3, Fs3: 4,
			Vd: 1, Vs1: 2, Vs2: 3, Vl: isa.VloadArgs{Width: 1},
		})
	}
	p := &isa.Program{Name: "all rows", Code: code}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return code
}

var lowSink *Lowered

// TestLowerProgramAllocs holds lowering to a constant number of
// allocations, whatever the program's length: the per-op semantics are
// functions that capture nothing and read their operands from the entry,
// so a program at least ten times longer, covering every isa.Ops row,
// costs what a four-instruction one does.
func TestLowerProgramAllocs(t *testing.T) {
	const maxAllocs = 2
	cfg := config.ManycoreDefault()
	lower := func(code []isa.Instr) int64 {
		p := &isa.Program{Name: "rows", Code: code}
		n := alloctest.Count(func() { lowSink = LowerProgram(p, cfg) })
		t.Logf("%d instructions: %d allocations per LowerProgram", len(code), n)
		return n
	}
	rows := allRows(t)
	var long []isa.Instr
	for len(long) < 40 {
		long = append(long, rows...)
	}
	short, nLong := lower(rows[:4]), lower(long)
	if short > maxAllocs || nLong != short {
		t.Errorf("lowering allocates %d times for 4 instructions and %d for %d, want the same count, at most %d",
			short, nLong, len(long), maxAllocs)
	}
}
