package isa

import (
	"fmt"
	"strconv"
)

// Instruction is one decoded machine instruction.
//
// Operand use depends on the opcode's Format:
//
//	FmtR    Rd = op(Rs1, Rs2)
//	FmtR2   Rd = op(Rs1)
//	FmtI    Rd = op(Rs1, Imm)
//	FmtLI   Rd = op(Imm)
//	FmtLd   Rd = mem[Rs1+Imm]
//	FmtSt   mem[Rs1+Imm] = Rs2
//	FmtB    branch on Rs1 (and Rs2 for beq/bne) to word address Imm
//	FmtJ    jump to word address Imm (Rd is the link register for jal)
//	FmtJR   jump to address in Rs1
//	FmtQ    queue mapping: Rs1 = read-mapped register, Rs2 = write-mapped
//	FmtTID  Rd = thread identifier
//	FmtN    no operands
type Instruction struct {
	Op  Opcode
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32
}

// Nop is the canonical no-operation instruction.
func Nop() Instruction {
	return Instruction{Op: NOP, Rd: NoReg, Rs1: NoReg, Rs2: NoReg}
}

// Dest returns the destination register of the instruction, or NoReg if it
// writes no register.
func (in Instruction) Dest() Reg {
	if opTable[in.Op].writesInt || opTable[in.Op].writesFP {
		return in.Rd
	}
	return NoReg
}

// Sources appends the source registers read by the instruction to dst and
// returns the extended slice. Branch condition registers count as sources.
func (in Instruction) Sources(dst []Reg) []Reg {
	switch in.Op.Fmt() {
	case FmtR:
		dst = append(dst, in.Rs1, in.Rs2)
	case FmtR2, FmtI, FmtLd:
		dst = append(dst, in.Rs1)
	case FmtSt:
		dst = append(dst, in.Rs1, in.Rs2)
	case FmtB:
		if in.Op == BEQ || in.Op == BNE {
			dst = append(dst, in.Rs1, in.Rs2)
		} else {
			dst = append(dst, in.Rs1)
		}
	case FmtJR:
		dst = append(dst, in.Rs1)
	}
	return dst
}

// Validate checks that the instruction's operands are consistent with its
// opcode's format: register classes, immediate range, and register validity.
func (in Instruction) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	chk := func(r Reg, wantFP bool, what string) error {
		if !r.Valid() {
			return fmt.Errorf("isa: %s: missing %s register", in.Op, what)
		}
		if r.IsFP() != wantFP {
			return fmt.Errorf("isa: %s: %s register %s has wrong class", in.Op, what, r)
		}
		return nil
	}
	fpOperands := in.fpOperands()
	switch in.Op.Fmt() {
	case FmtR:
		if err := chk(in.Rd, opTable[in.Op].writesFP, "destination"); err != nil {
			return err
		}
		if err := chk(in.Rs1, fpOperands, "first source"); err != nil {
			return err
		}
		return chk(in.Rs2, fpOperands, "second source")
	case FmtR2:
		if err := chk(in.Rd, opTable[in.Op].writesFP, "destination"); err != nil {
			return err
		}
		return chk(in.Rs1, fpOperands, "source")
	case FmtI, FmtLI:
		if err := chk(in.Rd, false, "destination"); err != nil {
			return err
		}
		if in.Op.Fmt() == FmtI {
			if err := chk(in.Rs1, false, "source"); err != nil {
				return err
			}
		}
		return in.checkImm()
	case FmtLd:
		if err := chk(in.Rd, in.Op == FLW, "destination"); err != nil {
			return err
		}
		if err := chk(in.Rs1, false, "base"); err != nil {
			return err
		}
		return in.checkImm()
	case FmtSt:
		if err := chk(in.Rs2, in.Op == FSW || in.Op == FSWP, "value"); err != nil {
			return err
		}
		if err := chk(in.Rs1, false, "base"); err != nil {
			return err
		}
		return in.checkImm()
	case FmtB:
		if err := chk(in.Rs1, false, "condition"); err != nil {
			return err
		}
		if in.Op == BEQ || in.Op == BNE {
			if err := chk(in.Rs2, false, "second condition"); err != nil {
				return err
			}
		}
		return in.checkImm()
	case FmtJ:
		if in.Op == JAL {
			if err := chk(in.Rd, false, "link"); err != nil {
				return err
			}
		}
		return in.checkImm()
	case FmtJR:
		return chk(in.Rs1, false, "target")
	case FmtQ:
		wantFP := in.Op == QENF
		if err := chk(in.Rs1, wantFP, "read-mapped"); err != nil {
			return err
		}
		if err := chk(in.Rs2, wantFP, "write-mapped"); err != nil {
			return err
		}
		if in.Rs1 == in.Rs2 {
			return fmt.Errorf("isa: %s: read- and write-mapped registers must differ", in.Op)
		}
		return nil
	case FmtTID:
		return chk(in.Rd, false, "destination")
	case FmtN:
		return nil
	}
	return fmt.Errorf("isa: %s: unknown format", in.Op)
}

// Same reports whether two instructions are semantically identical:
// equal opcodes and equal values in exactly the operand fields the
// opcode's format uses. Raw struct comparison (==) is wrong for this —
// unused operand slots may legitimately differ (NoReg in one encoding, a
// stale register in another) without changing the instruction's meaning.
// Use Same instead of == everywhere outside this package; the
// tools/analyzers instcompare pass enforces that.
func (in Instruction) Same(o Instruction) bool {
	if in.Op != o.Op {
		return false
	}
	switch in.Op.Fmt() {
	case FmtR:
		return in.Rd == o.Rd && in.Rs1 == o.Rs1 && in.Rs2 == o.Rs2
	case FmtR2:
		return in.Rd == o.Rd && in.Rs1 == o.Rs1
	case FmtI:
		return in.Rd == o.Rd && in.Rs1 == o.Rs1 && in.Imm == o.Imm
	case FmtLI:
		return in.Rd == o.Rd && in.Imm == o.Imm
	case FmtLd:
		return in.Rd == o.Rd && in.Rs1 == o.Rs1 && in.Imm == o.Imm
	case FmtSt:
		return in.Rs1 == o.Rs1 && in.Rs2 == o.Rs2 && in.Imm == o.Imm
	case FmtB:
		if in.Op == BEQ || in.Op == BNE {
			return in.Rs1 == o.Rs1 && in.Rs2 == o.Rs2 && in.Imm == o.Imm
		}
		return in.Rs1 == o.Rs1 && in.Imm == o.Imm
	case FmtJ:
		if in.Op == JAL {
			return in.Rd == o.Rd && in.Imm == o.Imm
		}
		return in.Imm == o.Imm
	case FmtJR:
		return in.Rs1 == o.Rs1
	case FmtQ:
		return in.Rs1 == o.Rs1 && in.Rs2 == o.Rs2
	case FmtTID:
		return in.Rd == o.Rd
	case FmtN:
		return true
	}
	return false
}

// fpOperands reports whether the instruction's Rs operands are FP registers.
func (in Instruction) fpOperands() bool {
	switch in.Op {
	case FADD, FSUB, FEQ, FLT, FLE, FTOI, FABS, FNEG, FMOV, FMUL, FDIV, FSQRT:
		return true
	}
	return false
}

// String renders the instruction in assembly syntax.
func (in Instruction) String() string {
	var buf [48]byte
	b := asmText(buf[:0])
	b = append(b, in.Op.String()...)
	switch in.Op.Fmt() {
	case FmtR:
		b = b.reg(" ", in.Rd).reg(", ", in.Rs1).reg(", ", in.Rs2)
	case FmtR2:
		b = b.reg(" ", in.Rd).reg(", ", in.Rs1)
	case FmtI:
		b = b.reg(" ", in.Rd).reg(", ", in.Rs1).imm(", ", in.Imm)
	case FmtLI:
		b = b.reg(" ", in.Rd).imm(", ", in.Imm)
	case FmtLd:
		b = append(b.reg(" ", in.Rd).imm(", ", in.Imm).reg("(", in.Rs1), ')')
	case FmtSt:
		b = append(b.reg(" ", in.Rs2).imm(", ", in.Imm).reg("(", in.Rs1), ')')
	case FmtB:
		if in.Op == BEQ || in.Op == BNE {
			b = b.reg(" ", in.Rs1).reg(", ", in.Rs2).imm(", ", in.Imm)
		} else {
			b = b.reg(" ", in.Rs1).imm(", ", in.Imm)
		}
	case FmtJ:
		if in.Op == JAL {
			b = b.reg(" ", in.Rd).imm(", ", in.Imm)
		} else {
			b = b.imm(" ", in.Imm)
		}
	case FmtJR:
		b = b.reg(" ", in.Rs1)
	case FmtQ:
		b = b.reg(" ", in.Rs1).reg(", ", in.Rs2)
	case FmtTID:
		b = b.reg(" ", in.Rd)
	case FmtN:
	}
	return string(b)
}

// asmText accumulates an instruction's assembly text without fmt, so
// String makes one allocation.
type asmText []byte

func (b asmText) reg(sep string, r Reg) asmText {
	b = append(b, sep...)
	if r != NoReg && !r.Valid() {
		// Reg.String panics here; render it as fmt always has, so String
		// never panics on a malformed instruction.
		return fmt.Appendf(b, "%s", r)
	}
	return r.appendText(b)
}

func (b asmText) imm(sep string, v int32) asmText {
	return strconv.AppendInt(append(b, sep...), int64(v), 10)
}

// checkImm validates the immediate range for the instruction's encoding.
func (in Instruction) checkImm() error {
	lo, hi := immRange(in.Op)
	if in.Imm < lo || in.Imm > hi {
		return fmt.Errorf("isa: %s: immediate %d outside encodable range [%d, %d]", in.Op, in.Imm, lo, hi)
	}
	return nil
}
