// Package prog is the kernel construction layer: a builder DSL that plays
// the role of the paper's C-macro + assembly-post-processing compiler (§4).
// It provides register allocation, labels, structured loops, the
// VECTORIZE / VECTOR_ISSUE / VECTOR_LOAD / DEVECTORIZE macros, and
// AheadOffset, the implicit synchronization bound of §4.2 (the compiler
// must keep the scalar core from running further ahead than the hardware
// frame counters allow). The decoupled-access pipelines built on that bound
// are kernels.Ctx.VecDAE and SelfDAE.
//
// Microthread bodies are emitted into a deferred section and appended after
// the main (scalar) code, mirroring the paper's flow of extracting
// microthreads, compiling them separately, and merging them back.
package prog

import (
	"fmt"

	"rockcress/internal/isa"
)

// Builder accumulates a program.
type Builder struct {
	name   string
	main   []isa.Instr
	mts    []isa.Instr
	inMT   bool
	labels map[string]int // resolved at Build; value = stream-tagged pos
	fixups []fixup
	uniq   int
	err    error

	recoverLabel string // label marking the fault-recovery entry point

	intFree []isa.Reg
	fpFree  []isa.FReg
	vecFree []uint8
}

// Positions are tagged by stream: main positions are plain indices;
// microthread positions get mtTag added and are rebased at Build.
const mtTag = 1 << 24

type fixup struct {
	pos   int // stream-tagged instruction position holding the label Imm
	label string
}

// New creates an empty builder.
// mtScratch is reserved for single-instruction temporaries inside
// microthread bodies (e.g. materializing FP constants): it is never handed
// out by the allocator, so microthreads cannot clobber live scalar-stream
// registers through it.
const mtScratch = isa.Reg(isa.NumIntRegs - 1)

func New(name string) *Builder {
	b := &Builder{name: name, labels: map[string]int{}}
	for r := isa.NumIntRegs - 2; r >= 1; r-- { // x0 zero; x31 mt scratch
		b.intFree = append(b.intFree, isa.Reg(r))
	}
	for f := isa.NumFpRegs - 1; f >= 0; f-- {
		b.fpFree = append(b.fpFree, isa.FReg(f))
	}
	for v := isa.NumVecRegs - 1; v >= 0; v-- {
		b.vecFree = append(b.vecFree, uint8(v))
	}
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("prog %s: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// Fail records a construction error surfaced by Build. Kernel generators
// use it for unsupported shapes (e.g. a SIMD width the kernel cannot tile)
// instead of panicking out of the simulator.
func (b *Builder) Fail(format string, args ...any) { b.fail(format, args...) }

// Recover marks label as the program's fault-recovery entry point: when the
// machine breaks a vector group around a dead tile, surviving cores resume
// there in independent MIMD mode. The label must resolve to a nonzero pc.
func (b *Builder) Recover(label string) {
	if b.recoverLabel != "" {
		b.fail("duplicate recovery point %q (already %q)", label, b.recoverLabel)
		return
	}
	b.recoverLabel = label
}

// Int allocates an integer register; pair with FreeInt when done.
func (b *Builder) Int() isa.Reg {
	if len(b.intFree) == 0 {
		b.fail("out of integer registers")
		return 1
	}
	r := b.intFree[len(b.intFree)-1]
	b.intFree = b.intFree[:len(b.intFree)-1]
	return r
}

// FreeInt returns registers to the allocator. Inside a microthread block
// the call is ignored: vector lanes execute both the microthread and the
// surrounding independent-mode code with one register file, so a register
// recycled from a microthread body into later scalar-stream code would be
// clobbered on every microthread invocation. Such registers stay reserved.
func (b *Builder) FreeInt(rs ...isa.Reg) {
	if b.inMT {
		return
	}
	b.intFree = append(b.intFree, rs...)
}

// Fp allocates a floating-point register; pair with FreeFp.
func (b *Builder) Fp() isa.FReg {
	if len(b.fpFree) == 0 {
		b.fail("out of fp registers")
		return 0
	}
	f := b.fpFree[len(b.fpFree)-1]
	b.fpFree = b.fpFree[:len(b.fpFree)-1]
	return f
}

// FreeFp returns FP registers to the allocator (ignored inside a
// microthread block; see FreeInt).
func (b *Builder) FreeFp(fs ...isa.FReg) {
	if b.inMT {
		return
	}
	b.fpFree = append(b.fpFree, fs...)
}

// Vec allocates a per-core SIMD register; pair with FreeVec.
func (b *Builder) Vec() uint8 {
	if len(b.vecFree) == 0 {
		b.fail("out of simd registers")
		return 0
	}
	v := b.vecFree[len(b.vecFree)-1]
	b.vecFree = b.vecFree[:len(b.vecFree)-1]
	return v
}

// FreeVec returns SIMD registers to the allocator (ignored inside a
// microthread block; see FreeInt).
func (b *Builder) FreeVec(vs ...uint8) {
	if b.inMT {
		return
	}
	b.vecFree = append(b.vecFree, vs...)
}

// pos returns the stream-tagged position of the next instruction.
func (b *Builder) pos() int {
	if b.inMT {
		return mtTag + len(b.mts)
	}
	return len(b.main)
}

// Emit appends a raw instruction to the current stream.
func (b *Builder) Emit(in isa.Instr) {
	if b.inMT {
		b.mts = append(b.mts, in)
	} else {
		b.main = append(b.main, in)
	}
}

// Label binds name to the next instruction.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.labels[name] = b.pos()
}

// NewLabel returns a fresh unique label with the given prefix.
func (b *Builder) NewLabel(prefix string) string {
	b.uniq++
	return fmt.Sprintf("%s$%d", prefix, b.uniq)
}

// emitRef emits an instruction whose Imm will be patched to label's pc.
func (b *Builder) emitRef(in isa.Instr, label string) {
	b.fixups = append(b.fixups, fixup{pos: b.pos(), label: label})
	b.Emit(in)
}

// Build resolves labels, concatenates the microthread section after the
// main stream, validates, and returns the program.
func (b *Builder) Build() (*isa.Program, error) {
	if b.inMT {
		b.fail("build inside an open microthread block")
	}
	if b.err != nil {
		return nil, b.err
	}
	base := len(b.main)
	code := make([]isa.Instr, 0, base+len(b.mts))
	code = append(code, b.main...)
	code = append(code, b.mts...)
	resolve := func(pos int) int {
		if pos >= mtTag {
			return base + (pos - mtTag)
		}
		return pos
	}
	labels := make(map[string]int, len(b.labels))
	for name, pos := range b.labels {
		labels[name] = resolve(pos)
	}
	for _, f := range b.fixups {
		target, ok := labels[f.label]
		if !ok {
			return nil, fmt.Errorf("prog %s: undefined label %q", b.name, f.label)
		}
		code[resolve(f.pos)].Imm = int32(target)
	}
	p := &isa.Program{Name: b.name, Code: code, Labels: labels}
	if b.recoverLabel != "" {
		pc, ok := labels[b.recoverLabel]
		if !ok {
			return nil, fmt.Errorf("prog %s: undefined recovery label %q", b.name, b.recoverLabel)
		}
		if pc == 0 {
			return nil, fmt.Errorf("prog %s: recovery label %q at pc 0 (reserved for entry)", b.name, b.recoverLabel)
		}
		p.RecoverPC = pc
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Len returns the number of instructions emitted so far in the current
// stream (used by the DAE pipeline to measure microthread length).
func (b *Builder) Len() int {
	if b.inMT {
		return len(b.mts)
	}
	return len(b.main)
}
