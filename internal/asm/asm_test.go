package asm

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rockcress/internal/isa"
)

func TestAssembleBasic(t *testing.T) {
	src := `
# sum the numbers 1..10 into x5
	li x5, 0
	li x6, 1
	li x7, 11
loop:
	add x5, x5, x6
	addi x6, x6, 1
	blt x6, x7, loop
	halt
`
	p, err := Assemble("sum", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 7 {
		t.Fatalf("got %d instructions, want 7", len(p.Code))
	}
	if p.Labels["loop"] != 3 {
		t.Fatalf("loop label at %d, want 3", p.Labels["loop"])
	}
	if p.Code[5].Imm != 3 {
		t.Fatalf("branch target %d, want 3", p.Code[5].Imm)
	}
}

func TestAssembleVector(t *testing.T) {
	src := `
	csrw framecfg, x3
	li x1, 1
	csrw vconfig, x1
	vload x2, x4, 0, 16, group, f
	vload x2, x4, 1, 4, single, suffix
	vissue mt
	devec resume
resume:
	barrier
	halt
mt:
	frame_start x5
	flw.sp f1, 0(x5)
	fadd f2, f2, f1
	remem
	vend
`
	p, err := Assemble("vec", src)
	if err != nil {
		t.Fatal(err)
	}
	vl := p.Code[3].Vl
	if vl.Dist != isa.VloadGroup || vl.Width != 16 || !vl.Float {
		t.Fatalf("bad vload args: %+v", vl)
	}
	if p.Code[4].Vl.Part != isa.VloadSuffix {
		t.Fatalf("bad vload part: %+v", p.Code[4].Vl)
	}
	if p.Code[5].Imm != int32(p.Labels["mt"]) {
		t.Fatalf("vissue target %d, want %d", p.Code[5].Imm, p.Labels["mt"])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"frob x1, x2",                       // unknown mnemonic
		"add x1, x2",                        // wrong arity
		"lw x1, x2",                         // missing mem syntax
		"beq x1, x2, nowhere",               // undefined label
		"li x99, 0",                         // bad register
		"csrw nope, x1",                     // unknown CSR
		"vload x1, x2, 0, 0, x",             // bad distribution
		"dup: dup: nop",                     // duplicate label
		"li x1, 0x1ffffffff",                // immediate wider than 32 bits
		"addi x2, x0, 99999999999",          // likewise, decimal
		"li x1, -2147483649",                // below int32
		"lw x1, 0x100000000(x2)",            // memory offset wider than 32 bits
		"vfma v8, v0, v1",                   // SIMD register out of range
		"fadd x1, f2, f3",                   // wrong register file
		"halt x1",                           // operand on a bare op
		"vload x1, x2, 0, 1, self, f, f, f", // too many vload modifiers
	}
	for _, src := range cases {
		if _, err := Assemble("bad", src); err == nil {
			t.Errorf("%q assembled without error", src)
		}
	}
	if _, err := Assemble("bad", "li x1, 0x1ffffffff"); err == nil || !strings.Contains(err.Error(), "0x1ffffffff") {
		t.Errorf("out-of-range immediate error %v does not name the token", err)
	}
	// [2^31, 2^32) wraps: that is how addresses above 2 GiB are written.
	p, err := Assemble("ok", "li x1, 0xffffffff\nli x2, -2147483648")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != -1 || p.Code[1].Imm != math.MinInt32 {
		t.Errorf("li 0xffffffff / -2147483648 assembled to %d / %d", p.Code[0].Imm, p.Code[1].Imm)
	}
}

// genInstr builds a random well-formed instruction of the given op by
// filling exactly the slots its row of isa.Ops lists.
func genInstr(r *rand.Rand, op isa.Op, progLen int) isa.Instr {
	in := isa.Instr{Op: op}
	for _, o := range isa.Ops[op].Syntax {
		switch o {
		case isa.Imm:
			in.Imm = int32(r.Uint32())
		case isa.Target:
			in.Imm = int32(r.Intn(progLen))
		case isa.Mem:
			in.Imm, in.Rs1 = int32(r.Intn(4096)-2048), isa.Reg(r.Intn(isa.NumIntRegs))
		case isa.CsrOp:
			in.Csr = isa.CSR(r.Intn(int(isa.CsrCkpt) + 1))
		case isa.VlArgs:
			in.Vl = isa.VloadArgs{
				BaseLane: r.Intn(16), Width: 1 + r.Intn(16),
				Dist: isa.VloadDist(r.Intn(3)), Part: isa.VloadPart(r.Intn(3)),
				Float: r.Intn(2) == 0,
			}
		default:
			_, size := o.File()
			*in.Reg(o) = uint8(r.Intn(size))
		}
	}
	return in
}

// TestRoundTrip checks Assemble(Disassemble(p)) == p, field for field, on
// random programs that between them use every op in the table many times.
func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	used := map[isa.Op]int{}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		code := make([]isa.Instr, n)
		for i := range code {
			op := isa.Op(1 + (trial*40+i)%(len(isa.Ops)-1)) // every op but OpInvalid, in turn
			code[i] = genInstr(r, op, n)
			used[op]++
		}
		p := &isa.Program{Name: "rt", Code: code, Labels: map[string]int{}}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v", trial, err)
		}
		text := Disassemble(p)
		back, err := Assemble("rt", text)
		if err != nil {
			t.Fatalf("trial %d: reassemble: %v\n%s", trial, err, text)
		}
		if len(back.Code) != len(p.Code) {
			t.Fatalf("trial %d: length %d != %d", trial, len(back.Code), len(p.Code))
		}
		for i := range p.Code {
			if back.Code[i] != p.Code[i] {
				t.Fatalf("trial %d: instr %d: %+v != %+v\n  text: %s",
					trial, i, back.Code[i], p.Code[i], strings.Split(text, "\n")[i])
			}
		}
	}
	if len(used) != len(isa.Ops)-1 {
		t.Fatalf("round trip exercised %d ops, the table has %d", len(used), len(isa.Ops)-1)
	}
}

// TestDisassembleLabelOrder: labels bound to one instruction print in name
// order, so the text is the same on every call (it used to follow map
// iteration order) and reassembles to the same label map.
func TestDisassembleLabelOrder(t *testing.T) {
	p := &isa.Program{Name: "labels",
		Code:   []isa.Instr{{Op: isa.OpNop}, {Op: isa.OpJal, Imm: 1}, {Op: isa.OpHalt}},
		Labels: map[string]int{"top": 0, "zeta$3": 1, "alpha": 1, "mid$12": 1, "end": 2},
	}
	want := "top:\n\tnop\nalpha:\nmid$12:\nzeta$3:\n\tjal x0, 1\nend:\n\thalt\n"
	for i := 0; i < 50; i++ {
		if got := Disassemble(p); got != want {
			t.Fatalf("call %d:\n%s\nwant:\n%s", i, got, want)
		}
	}
	back, err := Assemble("labels", want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Labels, p.Labels) || !reflect.DeepEqual(back.Code, p.Code) {
		t.Fatalf("reassembled to %v %v", back.Labels, back.Code)
	}
}
