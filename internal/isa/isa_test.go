package isa

import (
	"fmt"
	"sort"
	"testing"
)

func TestOpNamesBijective(t *testing.T) {
	seen := map[string]Op{}
	for op := OpInvalid + 1; op < numOps; op++ {
		name := Ops[op].Name
		if name == "" {
			t.Fatalf("op %d has no row in Ops", op)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("ops %d and %d share the name %q", prev, op, name)
		}
		seen[name] = op
		if got, ok := OpByName(name); !ok || got != op || op.String() != name {
			t.Fatalf("round trip %q -> %d (%v) -> %s", name, got, ok, op)
		}
	}
	if Ops[OpInvalid].Name != "" || OpInvalid.String() != "op(0)" || numOps.String() != fmt.Sprintf("op(%d)", numOps) {
		t.Fatal("OpInvalid and out-of-table values must have no name")
	}
}

// TestOpsTableInvariants holds the rows of Ops to the rules the derived
// accessors, the assembler and Validate assume.
func TestOpsTableInvariants(t *testing.T) {
	targets := map[Op]bool{OpBeq: true, OpBne: true, OpBlt: true, OpBge: true,
		OpBltu: true, OpBgeu: true, OpJal: true, OpVissue: true, OpDevec: true}
	for op := OpInvalid + 1; op < numOps; op++ {
		row := Ops[op]
		var seen [numOperands]bool
		for k, o := range row.Syntax {
			if o >= numOperands {
				t.Fatalf("%s: unknown operand kind %d", op, o)
			}
			if seen[o] {
				t.Errorf("%s: operand kind %d listed twice", op, o)
			}
			seen[o] = true
			if o == VlArgs && k != len(row.Syntax)-1 {
				t.Errorf("%s: VlArgs must be the last operand", op)
			}
		}
		if seen[Mem] && (seen[Rs1] || seen[Imm] || seen[Target]) || seen[Imm] && seen[Target] {
			t.Errorf("%s: two operands fill the same Instr field", op)
		}
		if seen[Target] != targets[op] {
			t.Errorf("%s: Target operand = %v, range-checked = %v", op, seen[Target], targets[op])
		}
		if row.Flags&Accum != 0 && !seen[Vd] {
			t.Errorf("%s: Accum without a Vd operand", op)
		}
	}
}

func TestControlFlowNeverForwarded(t *testing.T) {
	// §3.2: vector cores cannot diverge; every control-flow op must be
	// rejected from microthread forwarding.
	for op := OpInvalid + 1; op < numOps; op++ {
		if IsControlFlow(op) && AllowedInMicrothread(op) {
			t.Errorf("%s is control flow but allowed in microthreads", op)
		}
	}
}

func TestPredicationExemptions(t *testing.T) {
	// The predication instructions themselves always execute (§2.4), as do
	// the ops that manage the frame queue and thread lifecycle.
	for _, op := range []Op{OpPredEq, OpPredNeq, OpVend, OpDevec, OpNop} {
		if IsPredicatable(op) {
			t.Errorf("%s must not be predicatable", op)
		}
	}
	for _, op := range []Op{OpFadd, OpSw, OpLw, OpMul} {
		if !IsPredicatable(op) {
			t.Errorf("%s should be predicatable", op)
		}
	}
}

// TestScoreboardOrder pins the source and hazard sets that are not obvious
// from the syntax. Core.checkLow stalls on the FIRST blocker, so the order
// of the integer sources is part of the machine's timing.
func TestScoreboardOrder(t *testing.T) {
	in := Instr{Rd: 9, Rs1: 1, Rs2: 2, Rs3: 3, Fd: 9, Fs1: 11, Fs2: 12, Fs3: 13, Vd: 4, Vs1: 5, Vs2: 6}
	ints := func(op Op) []Reg {
		in.Op = op
		var dst [3]Reg
		return dst[:in.IntSrcs(&dst)]
	}
	fps := func(op Op) []FReg {
		in.Op = op
		var dst [3]FReg
		return dst[:in.FpSrcs(&dst)]
	}
	vecs := func(op Op) []uint8 {
		in.Op = op
		var dst [3]uint8
		n := in.VecSrcs(&dst)
		sort.Slice(dst[:n], func(a, b int) bool { return dst[a] < dst[b] })
		return dst[:n]
	}
	for _, c := range []struct {
		op   Op
		want []Reg
	}{
		{OpSw, []Reg{1, 2}}, // written "sw x2, 0(x1)"
		{OpSwRemote, []Reg{1, 2, 3}},
		{OpVload, []Reg{1, 2}}, // written "vload xOff(2), xAddr(1), ..."
		{OpFsw, []Reg{1}},
		{OpLi, nil},
		{OpJal, nil},
	} {
		if got := ints(c.op); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s integer sources %v, want %v", c.op, got, c.want)
		}
	}
	if got := fps(OpFsw); fmt.Sprint(got) != "[12]" {
		t.Errorf("fsw fp sources %v, want Fs2 only", got)
	}
	if got := fps(OpFmadd); fmt.Sprint(got) != "[11 12 13]" {
		t.Errorf("fmadd fp sources %v", got)
	}
	for _, c := range []struct {
		op   Op
		srcs []uint8
		waw  bool
	}{
		{OpVfma, []uint8{4, 5, 6}, false}, // waits on the accumulator as a source
		{OpVbcastF, nil, true},
		{OpVlwSp, nil, true},
		{OpVfredsum, []uint8{5}, false},
	} {
		got := vecs(c.op)
		if fmt.Sprint(got) != fmt.Sprint(c.srcs) || in.WritesVec() != c.waw {
			t.Errorf("%s: vector sources %v waw %v, want %v %v", c.op, got, in.WritesVec(), c.srcs, c.waw)
		}
	}

	// x0 is never a source or a destination, for any op.
	zero := Instr{Fd: 1, Fs1: 1, Fs2: 1, Fs3: 1}
	for op := OpInvalid + 1; op < numOps; op++ {
		zero.Op = op
		var dst [3]Reg
		if n := zero.IntSrcs(&dst); n != 0 || zero.WritesInt() {
			t.Errorf("%s: x0 reported as a source (%d) or a destination (%v)", op, n, zero.WritesInt())
		}
	}
}

func TestValidateCatchesBadTargets(t *testing.T) {
	p := &Program{Name: "bad", Code: []Instr{{Op: OpBeq, Imm: 99}}}
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range branch target accepted")
	}
	p = &Program{Name: "bad", Code: []Instr{{Op: OpVload, Vl: VloadArgs{Width: 0}}}}
	if err := p.Validate(); err == nil {
		t.Fatal("zero-width vload accepted")
	}
	p = &Program{Name: "ok", Code: []Instr{{Op: OpHalt}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyTotal(t *testing.T) {
	for op := OpNop; op < numOps; op++ {
		// Classify must place every op somewhere sane (the energy model
		// depends on total coverage).
		_ = Classify(op)
	}
}

func TestWritesConsistency(t *testing.T) {
	// An instruction never writes both register files.
	for op := OpNop; op < numOps; op++ {
		in := Instr{Op: op, Rd: 5, Fd: 5}
		if in.WritesInt() && in.WritesFp() {
			t.Errorf("%s writes both int and fp", op)
		}
	}
	if (Instr{Op: OpAdd, Rd: X0}).WritesInt() {
		t.Error("write to x0 reported as a write")
	}
}
