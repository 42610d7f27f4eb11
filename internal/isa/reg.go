// Package isa defines the instruction set architecture of the elementary
// multithreaded processor described in Hirata et al. (ISCA 1992): the
// register model, opcodes, functional-unit classes, issue/result latencies
// (Table 1 of the paper), and a 32-bit binary encoding.
//
// The ISA is a load/store RISC with 32 general-purpose integer registers and
// 32 floating-point registers per register bank. Register r0 is hardwired to
// zero. A handful of special instructions support the paper's multithreading
// model: fast-fork, change-priority, kill, priority stores, and queue-register
// mapping.
package isa

import (
	"fmt"
	"strconv"
)

// NumIntRegs and NumFPRegs give the size of each register file in a bank.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
)

// Reg identifies an architectural register. Values 0..31 name integer
// registers r0..r31; values 32..63 name floating-point registers f0..f31.
// The zero value is r0, the hardwired-zero integer register.
type Reg uint8

// Integer register names.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// Floating-point register names.
const (
	F0 Reg = iota + fpBase
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
	F16
	F17
	F18
	F19
	F20
	F21
	F22
	F23
	F24
	F25
	F26
	F27
	F28
	F29
	F30
	F31
)

const fpBase Reg = 32

// NoReg marks an unused register operand slot in an Instruction.
const NoReg Reg = 255

// IntReg returns the integer register with the given index (0..31).
func IntReg(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register index %d out of range", i))
	}
	return Reg(i)
}

// FPReg returns the floating-point register with the given index (0..31).
func FPReg(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register index %d out of range", i))
	}
	return fpBase + Reg(i)
}

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= fpBase && r != NoReg }

// IsInt reports whether r names an integer register.
func (r Reg) IsInt() bool { return r < fpBase }

// Valid reports whether r names an architectural register (not NoReg).
func (r Reg) Valid() bool { return r < 2*fpBase }

// Index returns the register's index within its file (0..31).
func (r Reg) Index() int {
	if !r.Valid() {
		panic("isa: Index on invalid register")
	}
	if r.IsFP() {
		return int(r - fpBase)
	}
	return int(r)
}

// String renders the register in assembly syntax ("r7", "f12").
func (r Reg) String() string {
	var buf [4]byte
	return string(r.appendText(buf[:0]))
}

// appendText appends the register's assembly name to b.
func (r Reg) appendText(b []byte) []byte {
	switch {
	case r == NoReg:
		return append(b, '-')
	case r.IsFP():
		return strconv.AppendInt(append(b, 'f'), int64(r.Index()), 10)
	default:
		return strconv.AppendInt(append(b, 'r'), int64(r.Index()), 10)
	}
}

// ParseReg parses an assembly register name ("r0".."r31", "f0".."f31").
func ParseReg(s string) (Reg, error) {
	if len(s) < 2 {
		return NoReg, fmt.Errorf("isa: invalid register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil {
		return NoReg, fmt.Errorf("isa: invalid register %q", s)
	}
	switch s[0] {
	case 'r', 'R':
		if n < 0 || n >= NumIntRegs {
			return NoReg, fmt.Errorf("isa: integer register %q out of range", s)
		}
		return IntReg(n), nil
	case 'f', 'F':
		if n < 0 || n >= NumFPRegs {
			return NoReg, fmt.Errorf("isa: fp register %q out of range", s)
		}
		return FPReg(n), nil
	}
	return NoReg, fmt.Errorf("isa: invalid register %q", s)
}
