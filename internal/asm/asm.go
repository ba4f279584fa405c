// Package asm provides a textual assembly syntax for the Rockcress ISA:
// Assemble parses the same syntax isa.Instr.String produces (plus labels
// and comments), and Disassemble renders a program back to text. The
// round trip is exact, which the property tests rely on.
//
// Syntax:
//
//	# comment            ; also a comment
//	loop:                 a label (binds to the next instruction)
//	add x1, x2, x3
//	lw x5, 8(x6)          memory operands use offset(base)
//	beq x1, x2, loop      branch targets are labels or absolute indices
//	vload x2, x1, 0, 16, group[, suffix|prefix][, f]
//	csrw vconfig, x1
package asm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"rockcress/internal/isa"
)

// Assemble parses source text into a program.
func Assemble(name, src string) (*isa.Program, error) {
	a := &assembler{labels: map[string]int{}}
	for ln, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if err := a.line(line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, ln+1, err)
		}
	}
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("%s: undefined label %q", name, f.label)
		}
		a.code[f.pos].Imm = int32(target)
	}
	p := &isa.Program{Name: name, Code: a.code, Labels: a.labels}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Disassemble renders a program as parseable text with label definitions.
func Disassemble(p *isa.Program) string {
	byPC := map[int][]string{}
	for name, pc := range p.Labels {
		byPC[pc] = append(byPC[pc], name)
	}
	for _, names := range byPC {
		sort.Strings(names) // map order would make the text differ run to run
	}
	var b strings.Builder
	for pc, in := range p.Code {
		for _, l := range byPC[pc] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "\t%s\n", in.String())
	}
	return b.String()
}

func stripComment(line string) string {
	for _, sep := range []string{"#", ";"} {
		if i := strings.Index(line, sep); i >= 0 {
			line = line[:i]
		}
	}
	return strings.TrimSpace(line)
}

type fixup struct {
	pos   int
	label string
}

type assembler struct {
	code   []isa.Instr
	labels map[string]int
	fixups []fixup
}

func (a *assembler) line(line string) error {
	for {
		i := strings.Index(line, ":")
		if i < 0 {
			break
		}
		label := strings.TrimSpace(line[:i])
		if label == "" || strings.ContainsAny(label, " \t,()") {
			return fmt.Errorf("bad label %q", label)
		}
		if _, dup := a.labels[label]; dup {
			return fmt.Errorf("duplicate label %q", label)
		}
		a.labels[label] = len(a.code)
		line = strings.TrimSpace(line[i+1:])
	}
	if line == "" {
		return nil
	}
	return a.instr(line)
}

// operands splits "a, b, 4(x2)" into trimmed fields.
func operands(rest string) []string {
	if strings.TrimSpace(rest) == "" {
		return nil
	}
	parts := strings.Split(rest, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseReg parses the register that fills slot o ("x7" for an Rs1, "f3" for
// an Fd) and returns its index.
func parseReg(tok string, o isa.Operand) (uint8, error) {
	prefix, size := o.File()
	if tok != "" && tok[0] == prefix {
		if n, err := strconv.Atoi(tok[1:]); err == nil && n >= 0 && n < size {
			return uint8(n), nil
		}
	}
	return 0, fmt.Errorf("expected a register %c0..%c%d, got %q", prefix, prefix, size-1, tok)
}

// parseImm accepts [-2^31, 2^32): values from 2^31 up wrap to negative,
// which is how addresses above 2 GiB are written by hand; anything wider
// would be silently truncated, so it is an error.
func parseImm(tok string) (int32, error) {
	v, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", tok)
	}
	if v < math.MinInt32 || v > math.MaxUint32 {
		return 0, fmt.Errorf("immediate %q does not fit in 32 bits", tok)
	}
	return int32(v), nil
}

// parseMem splits "8(x2)" into offset and base register.
func parseMem(tok string) (int32, isa.Reg, error) {
	open := strings.Index(tok, "(")
	if open < 0 || !strings.HasSuffix(tok, ")") {
		return 0, 0, fmt.Errorf("expected offset(base), got %q", tok)
	}
	off, err := parseImm(strings.TrimSpace(tok[:open]))
	if err != nil {
		return 0, 0, err
	}
	base, err := parseReg(strings.TrimSpace(tok[open+1:len(tok)-1]), isa.Rs1)
	if err != nil {
		return 0, 0, err
	}
	return off, isa.Reg(base), nil
}

// target resolves a branch operand: an absolute index or a label fixup.
func (a *assembler) target(tok string, in *isa.Instr) {
	if v, err := strconv.ParseInt(tok, 0, 32); err == nil {
		in.Imm = int32(v)
		return
	}
	a.fixups = append(a.fixups, fixup{pos: len(a.code), label: tok})
}

// instr parses one instruction: the mnemonic picks a row of isa.Ops and each
// slot of the row's Syntax consumes one operand (a trailing VlArgs slot, the
// rest of them).
func (a *assembler) instr(line string) error {
	mnemonic, rest, _ := strings.Cut(line, " ")
	mnemonic = strings.TrimSpace(mnemonic)
	op, ok := isa.OpByName(mnemonic)
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	ops := operands(rest)
	syntax := isa.Ops[op].Syntax
	lo, hi := len(syntax), len(syntax)
	if lo > 0 && syntax[lo-1] == isa.VlArgs {
		lo, hi = lo+2, lo+4 // baseLane, width, dist[, part][, f]
	}
	if len(ops) < lo || len(ops) > hi {
		want := strconv.Itoa(lo)
		if hi > lo {
			want += "-" + strconv.Itoa(hi)
		}
		return fmt.Errorf("%s: expected %s operands, got %d", mnemonic, want, len(ops))
	}
	in := isa.Instr{Op: op}
	for k, o := range syntax {
		var err error
		switch tok := ops[k]; o {
		case isa.Imm:
			in.Imm, err = parseImm(tok)
		case isa.Target:
			a.target(tok, &in)
		case isa.Mem:
			in.Imm, in.Rs1, err = parseMem(tok)
		case isa.CsrOp:
			if in.Csr, ok = isa.CSRByName(tok); !ok {
				err = fmt.Errorf("unknown CSR %q", tok)
			}
		case isa.VlArgs:
			err = parseVload(ops[k:], &in)
		default:
			*in.Reg(o), err = parseReg(tok, o)
		}
		if err != nil {
			return err
		}
	}
	a.code = append(a.code, in)
	return nil
}

// parseVload handles vload's tail: baseLane, width, dist[, part][, f]
func parseVload(ops []string, in *isa.Instr) error {
	base, err := parseImm(ops[0])
	if err != nil {
		return err
	}
	width, err := parseImm(ops[1])
	if err != nil {
		return err
	}
	in.Vl.BaseLane = int(base)
	in.Vl.Width = int(width)
	switch ops[2] {
	case "single":
		in.Vl.Dist = isa.VloadSingle
	case "group":
		in.Vl.Dist = isa.VloadGroup
	case "self":
		in.Vl.Dist = isa.VloadSelf
	default:
		return fmt.Errorf("vload: unknown distribution %q", ops[2])
	}
	for _, extra := range ops[3:] {
		switch extra {
		case "suffix":
			in.Vl.Part = isa.VloadSuffix
		case "prefix":
			in.Vl.Part = isa.VloadPrefix
		case "f":
			in.Vl.Float = true
		default:
			return fmt.Errorf("vload: unknown modifier %q", extra)
		}
	}
	return nil
}
