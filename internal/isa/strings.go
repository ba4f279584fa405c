package isa

import (
	"fmt"
	"strings"
)

var nameToOp = func() map[string]Op {
	m := make(map[string]Op, len(Ops))
	for op := OpInvalid + 1; op < numOps; op++ {
		m[Ops[op].Name] = op
	}
	return m
}()

// String returns the mnemonic for op.
func (op Op) String() string {
	if n := info(op).Name; n != "" {
		return n
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// OpByName resolves a mnemonic to its Op.
func OpByName(name string) (Op, bool) {
	op, ok := nameToOp[name]
	return op, ok
}

var csrNames = map[CSR]string{
	CsrVconfig:   "vconfig",
	CsrFrameCfg:  "framecfg",
	CsrCoreID:    "coreid",
	CsrLaneID:    "laneid",
	CsrNumCores:  "numcores",
	CsrGroupID:   "groupid",
	CsrNumGroups: "numgroups",
	CsrCkpt:      "ckpt",
}

var nameToCSR = func() map[string]CSR {
	m := make(map[string]CSR, len(csrNames))
	for c, n := range csrNames {
		m[n] = c
	}
	return m
}()

// String returns the CSR's assembly name.
func (c CSR) String() string {
	if n, ok := csrNames[c]; ok {
		return n
	}
	return fmt.Sprintf("csr(%d)", uint8(c))
}

// CSRByName resolves an assembly CSR name.
func CSRByName(name string) (CSR, bool) {
	c, ok := nameToCSR[name]
	return c, ok
}

// String renders the instruction in the textual assembly syntax understood
// by package asm: the mnemonic, then each slot of the op's Syntax.
func (i Instr) String() string {
	var b strings.Builder
	b.WriteString(i.Op.String())
	for k, o := range info(i.Op).Syntax {
		if k == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		switch o {
		case Imm, Target:
			fmt.Fprintf(&b, "%d", i.Imm)
		case Mem:
			fmt.Fprintf(&b, "%d(x%d)", i.Imm, i.Rs1)
		case CsrOp:
			b.WriteString(i.Csr.String())
		case VlArgs:
			fmt.Fprintf(&b, "%d, %d, %s", i.Vl.BaseLane, i.Vl.Width, i.Vl.Dist)
			if i.Vl.Part != VloadWhole {
				b.WriteString(", " + i.Vl.Part.String())
			}
			if i.Vl.Float {
				b.WriteString(", f")
			}
		default:
			prefix, _ := o.File()
			fmt.Fprintf(&b, "%c%d", prefix, *i.Reg(o))
		}
	}
	return b.String()
}
