package isa

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegClassification(t *testing.T) {
	for i := 0; i < NumIntRegs; i++ {
		r := IntReg(i)
		if !r.IsInt() || r.IsFP() {
			t.Errorf("IntReg(%d) misclassified", i)
		}
		if r.Index() != i {
			t.Errorf("IntReg(%d).Index() = %d", i, r.Index())
		}
	}
	for i := 0; i < NumFPRegs; i++ {
		r := FPReg(i)
		if r.IsInt() || !r.IsFP() {
			t.Errorf("FPReg(%d) misclassified", i)
		}
		if r.Index() != i {
			t.Errorf("FPReg(%d).Index() = %d", i, r.Index())
		}
	}
	if NoReg.Valid() {
		t.Error("NoReg must not be Valid")
	}
}

func TestRegStringParseRoundTrip(t *testing.T) {
	for i := 0; i < NumIntRegs; i++ {
		r := IntReg(i)
		got, err := ParseReg(r.String())
		if err != nil || got != r {
			t.Errorf("ParseReg(%q) = %v, %v; want %v", r.String(), got, err, r)
		}
	}
	for i := 0; i < NumFPRegs; i++ {
		r := FPReg(i)
		got, err := ParseReg(r.String())
		if err != nil || got != r {
			t.Errorf("ParseReg(%q) = %v, %v; want %v", r.String(), got, err, r)
		}
	}
}

func TestParseRegErrors(t *testing.T) {
	for _, s := range []string{"", "r", "x3", "r32", "f32", "r-1", "rr1", "f 1"} {
		if _, err := ParseReg(s); err == nil {
			t.Errorf("ParseReg(%q) succeeded, want error", s)
		}
	}
}

func TestOpcodeTableComplete(t *testing.T) {
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		if opTable[op].name == "" {
			t.Errorf("opcode %d has no table entry", uint8(op))
		}
		if opTable[op].issueLat < 1 {
			t.Errorf("%s: issue latency %d < 1", op, opTable[op].issueLat)
		}
		if opTable[op].resultLat < 1 {
			t.Errorf("%s: result latency %d < 1", op, opTable[op].resultLat)
		}
		if opTable[op].writesInt && opTable[op].writesFP {
			t.Errorf("%s: writes both register files", op)
		}
		got, ok := OpcodeByName(op.String())
		if !ok || got != op {
			t.Errorf("OpcodeByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
}

// TestTable1Latencies pins the paper's Table 1 latency values.
func TestTable1Latencies(t *testing.T) {
	cases := []struct {
		op            Opcode
		unit          UnitClass
		issue, result int
	}{
		{ADD, UnitIntALU, 1, 2},
		{SUB, UnitIntALU, 1, 2},
		{AND, UnitIntALU, 1, 2},
		{SLT, UnitIntALU, 1, 2},
		{SLL, UnitShifter, 1, 2},
		{SRAI, UnitShifter, 1, 2},
		{MUL, UnitIntMul, 1, 6},
		{DIV, UnitIntMul, 1, 6},
		{FADD, UnitFPAdd, 1, 4},
		{FSUB, UnitFPAdd, 1, 4},
		{FLT, UnitFPAdd, 1, 4},
		{FABS, UnitFPAdd, 1, 2},
		{FNEG, UnitFPAdd, 1, 2},
		{FMUL, UnitFPMul, 1, 6},
		{FDIV, UnitFPDiv, 1, 12},
		{LW, UnitLoadStore, 2, 4},
		{SW, UnitLoadStore, 2, 2},
		{FLW, UnitLoadStore, 2, 4},
		{FSW, UnitLoadStore, 2, 2},
	}
	for _, c := range cases {
		if c.op.Unit() != c.unit {
			t.Errorf("%s: unit = %s, want %s", c.op, c.op.Unit(), c.unit)
		}
		if c.op.IssueLatency() != c.issue {
			t.Errorf("%s: issue latency = %d, want %d", c.op, c.op.IssueLatency(), c.issue)
		}
		if c.op.ResultLatency() != c.result {
			t.Errorf("%s: result latency = %d, want %d", c.op, c.op.ResultLatency(), c.result)
		}
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !LW.IsLoad() || !FLW.IsLoad() || SW.IsLoad() {
		t.Error("IsLoad misclassifies")
	}
	if !SW.IsStore() || !FSWP.IsStore() || LW.IsStore() {
		t.Error("IsStore misclassifies")
	}
	for _, op := range []Opcode{BEQ, BNE, BEQZ, BNEZ, BLTZ, BGEZ, J, JAL, JR} {
		if !op.IsBranch() {
			t.Errorf("%s: IsBranch = false", op)
		}
	}
	if J.IsConditionalBranch() || JR.IsConditionalBranch() || JAL.IsConditionalBranch() {
		t.Error("unconditional jumps misreported as conditional")
	}
	if !BEQ.IsConditionalBranch() || !BGEZ.IsConditionalBranch() {
		t.Error("conditional branches misreported")
	}
	for _, op := range []Opcode{CHGPRI, KILL, SWP, FSWP} {
		if !op.NeedsHighestPriority() {
			t.Errorf("%s: NeedsHighestPriority = false", op)
		}
	}
	if ADD.NeedsHighestPriority() || SW.NeedsHighestPriority() {
		t.Error("ordinary instructions flagged as priority-interlocked")
	}
}

// randInstruction builds a random valid instruction for property tests.
func randInstruction(rng *rand.Rand) Instruction {
	for {
		op := Opcode(rng.Intn(NumOpcodes))
		in := Instruction{Op: op, Rd: NoReg, Rs1: NoReg, Rs2: NoReg}
		ir := func() Reg { return IntReg(rng.Intn(NumIntRegs)) }
		fr := func() Reg { return FPReg(rng.Intn(NumFPRegs)) }
		pick := func(fp bool) Reg {
			if fp {
				return fr()
			}
			return ir()
		}
		fpOps := in.fpOperands()
		lo, hi := immRange(op)
		imm := lo + int32(rng.Int63n(int64(hi)-int64(lo)+1))
		switch op.Fmt() {
		case FmtR:
			in.Rd = pick(opTable[op].writesFP)
			in.Rs1, in.Rs2 = pick(fpOps), pick(fpOps)
		case FmtR2:
			in.Rd = pick(opTable[op].writesFP)
			in.Rs1 = pick(fpOps)
		case FmtI:
			in.Rd, in.Rs1, in.Imm = ir(), ir(), imm
		case FmtLI:
			in.Rd, in.Imm = ir(), imm
		case FmtLd:
			in.Rd = pick(op == FLW)
			in.Rs1, in.Imm = ir(), imm
		case FmtSt:
			in.Rs1 = ir()
			in.Rs2 = pick(op == FSW || op == FSWP)
			in.Imm = imm
		case FmtB:
			in.Rs1, in.Imm = ir(), imm
			if op == BEQ || op == BNE {
				in.Rs2 = ir()
			}
		case FmtJ:
			in.Imm = imm
			if op == JAL {
				in.Rd = ir()
			}
		case FmtJR:
			in.Rs1 = ir()
		case FmtQ:
			fp := op == QENF
			in.Rs1, in.Rs2 = pick(fp), pick(fp)
			if in.Rs1 == in.Rs2 {
				continue
			}
		case FmtTID:
			in.Rd = ir()
		}
		if err := in.Validate(); err != nil {
			panic("randInstruction built invalid instruction: " + err.Error())
		}
		return in
	}
}

// TestEncodeDecodeRoundTrip is the core property: Decode(Encode(x)) == x for
// every valid instruction.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		in := randInstruction(rng)
		w, err := Encode(in)
		if err != nil {
			t.Logf("Encode(%v): %v", in, err)
			return false
		}
		out, err := Decode(w)
		if err != nil {
			t.Logf("Decode(%v): %v", in, err)
			return false
		}
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestProgramEncodeRoundTrip checks the byte-level program codec.
func TestProgramEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := make([]Instruction, 200)
	for i := range prog {
		prog[i] = randInstruction(rng)
	}
	buf, err := EncodeProgram(prog)
	if err != nil {
		t.Fatalf("EncodeProgram: %v", err)
	}
	if len(buf) != 4*len(prog) {
		t.Fatalf("encoded length = %d, want %d", len(buf), 4*len(prog))
	}
	out, err := DecodeProgram(buf)
	if err != nil {
		t.Fatalf("DecodeProgram: %v", err)
	}
	for i := range prog {
		if out[i] != prog[i] {
			t.Fatalf("instruction %d: got %v, want %v", i, out[i], prog[i])
		}
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode(Word(uint32(numOpcodes) << 24)); err == nil {
		t.Error("Decode accepted invalid opcode")
	}
	if _, err := Decode(Word(0xFF << 24)); err == nil {
		t.Error("Decode accepted opcode 255")
	}
	if _, err := DecodeProgram([]byte{1, 2, 3}); err == nil {
		t.Error("DecodeProgram accepted misaligned input")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Instruction{
		{Op: ADD, Rd: F1, Rs1: R1, Rs2: R2},           // wrong dest class
		{Op: ADD, Rd: R1, Rs1: F1, Rs2: R2},           // wrong source class
		{Op: FADD, Rd: R1, Rs1: F1, Rs2: F2},          // FP op writing int reg
		{Op: ADDI, Rd: R1, Rs1: R2, Imm: immSMax + 1}, // imm overflow
		{Op: BEQZ, Rs1: R1, Imm: -1},                  // negative branch target
		{Op: J, Imm: immUMax + 1},                     // jump target overflow
		{Op: LW, Rd: F1, Rs1: R1},                     // LW to FP reg
		{Op: FLW, Rd: R1, Rs1: R1},                    // FLW to int reg
		{Op: QEN, Rs1: R5, Rs2: R5},                   // identical queue maps
		{Op: QENF, Rs1: R5, Rs2: R6},                  // int regs on QENF
		{Op: ADD, Rd: NoReg, Rs1: R1, Rs2: R2},        // missing dest
		{Op: Opcode(200), Rd: R1},                     // invalid opcode
		{Op: SW, Rs1: R1, Rs2: F1},                    // FP value on SW
		{Op: FSW, Rs1: R1, Rs2: R2},                   // int value on FSW
		{Op: TID, Rd: F3},                             // TID to FP reg
		{Op: BEQ, Rs1: R1, Rs2: F1, Imm: 0},           // FP condition reg
		{Op: JR, Rs1: F1},                             // FP jump target
		{Op: SLLI, Rd: R1, Rs1: R2, Imm: immSMin - 1}, // imm underflow
		{Op: JAL, Rd: NoReg, Imm: 4},                  // missing link reg
		{Op: ITOF, Rd: R1, Rs1: R2},                   // ITOF writes FP
		{Op: FTOI, Rd: F1, Rs1: F2},                   // FTOI writes int
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("Validate(%+v) succeeded, want error", in)
		}
	}
}

func TestSourcesAndDest(t *testing.T) {
	cases := []struct {
		in   Instruction
		srcs []Reg
		dest Reg
	}{
		{Instruction{Op: ADD, Rd: R1, Rs1: R2, Rs2: R3}, []Reg{R2, R3}, R1},
		{Instruction{Op: LW, Rd: R1, Rs1: R2, Imm: 4}, []Reg{R2}, R1},
		{Instruction{Op: SW, Rs1: R2, Rs2: R3, Imm: 4}, []Reg{R2, R3}, NoReg},
		{Instruction{Op: BEQ, Rs1: R2, Rs2: R3, Imm: 4}, []Reg{R2, R3}, NoReg},
		{Instruction{Op: BEQZ, Rs1: R2, Imm: 4}, []Reg{R2}, NoReg},
		{Instruction{Op: FADD, Rd: F1, Rs1: F2, Rs2: F3}, []Reg{F2, F3}, F1},
		{Instruction{Op: FTOI, Rd: R1, Rs1: F2}, []Reg{F2}, R1},
		{Instruction{Op: JR, Rs1: R31}, []Reg{R31}, NoReg},
		{Instruction{Op: JAL, Rd: R31, Imm: 10}, nil, R31},
		{Instruction{Op: TID, Rd: R9}, nil, R9},
		{Nop(), nil, NoReg},
	}
	for _, c := range cases {
		got := c.in.Sources(nil)
		if len(got) != len(c.srcs) {
			t.Errorf("%v: sources = %v, want %v", c.in, got, c.srcs)
			continue
		}
		for i := range got {
			if got[i] != c.srcs[i] {
				t.Errorf("%v: sources = %v, want %v", c.in, got, c.srcs)
			}
		}
		if d := c.in.Dest(); d != c.dest {
			t.Errorf("%v: dest = %v, want %v", c.in, d, c.dest)
		}
	}
}

func TestInstructionString(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Instruction{Op: ADD, Rd: R1, Rs1: R2, Rs2: R3}, "add r1, r2, r3"},
		{Instruction{Op: ADDI, Rd: R1, Rs1: R0, Imm: -7}, "addi r1, r0, -7"},
		{Instruction{Op: LW, Rd: R4, Rs1: R5, Imm: 16}, "lw r4, 16(r5)"},
		{Instruction{Op: FSW, Rs1: R5, Rs2: F6, Imm: -8}, "fsw f6, -8(r5)"},
		{Instruction{Op: BEQ, Rs1: R1, Rs2: R2, Imm: 12}, "beq r1, r2, 12"},
		{Instruction{Op: BNEZ, Rs1: R1, Imm: 3}, "bnez r1, 3"},
		{Instruction{Op: J, Imm: 100}, "j 100"},
		{Instruction{Op: JAL, Rd: R31, Imm: 100}, "jal r31, 100"},
		{Instruction{Op: FMUL, Rd: F1, Rs1: F2, Rs2: F3}, "fmul f1, f2, f3"},
		{Instruction{Op: FSQRT, Rd: F1, Rs1: F2}, "fsqrt f1, f2"},
		{Instruction{Op: QEN, Rs1: R30, Rs2: R31}, "qen r30, r31"},
		{Instruction{Op: TID, Rd: R10}, "tid r10"},
		{Instruction{Op: HALT}, "halt"},
		{Nop(), "nop"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestUnitClassString(t *testing.T) {
	names := map[UnitClass]string{
		UnitNone: "decode", UnitIntALU: "IntALU", UnitShifter: "Shifter",
		UnitIntMul: "IntMul", UnitFPAdd: "FPAdd", UnitFPMul: "FPMul",
		UnitFPDiv: "FPDiv", UnitLoadStore: "LoadStore",
	}
	for u, want := range names {
		if u.String() != want {
			t.Errorf("UnitClass(%d).String() = %q, want %q", u, u.String(), want)
		}
	}
}

// TestEncodingGolden pins exact bit patterns so the binary format stays
// stable across refactors (traces and .bin files depend on it).
func TestEncodingGolden(t *testing.T) {
	cases := []struct {
		in   Instruction
		want uint32
	}{
		// add r1, r2, r3: op=1, rd=1, rs1=2, rs2=3
		{Instruction{Op: ADD, Rd: R1, Rs1: R2, Rs2: R3}, 1<<24 | 1<<19 | 2<<14 | 3<<9},
		// addi r1, r0, -1: imm field = 0x3FFF
		{Instruction{Op: ADDI, Rd: R1, Rs1: R0, Rs2: NoReg, Imm: -1}, uint32(ADDI)<<24 | 1<<19 | 0x3FFF},
		// lw r4, 8(r5)
		{Instruction{Op: LW, Rd: R4, Rs1: R5, Rs2: NoReg, Imm: 8}, uint32(LW)<<24 | 4<<19 | 5<<14 | 8},
		// sw r3, 2(r1): rs1 in the first field, rs2 in the second
		{Instruction{Op: SW, Rs1: R1, Rs2: R3, Rd: NoReg, Imm: 2}, uint32(SW)<<24 | 1<<19 | 3<<14 | 2},
		// beqz r7, 100
		{Instruction{Op: BEQZ, Rs1: R7, Rs2: NoReg, Rd: NoReg, Imm: 100}, uint32(BEQZ)<<24 | 7<<19 | 31<<14 | 100},
		// fadd f1, f2, f3: register indices, class implied
		{Instruction{Op: FADD, Rd: F1, Rs1: F2, Rs2: F3}, uint32(FADD)<<24 | 1<<19 | 2<<14 | 3<<9},
		// halt: all register fields padded
		{Instruction{Op: HALT, Rd: NoReg, Rs1: NoReg, Rs2: NoReg}, uint32(HALT)<<24 | 31<<19 | 31<<14 | 31<<9},
	}
	for _, c := range cases {
		w, err := Encode(c.in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", c.in, err)
		}
		if uint32(w) != c.want {
			t.Errorf("Encode(%v) = %#08x, want %#08x", c.in, uint32(w), c.want)
		}
	}
}

// fmtString is the fmt-based rendering String replaced; String must match
// it byte for byte.
func fmtString(in Instruction) string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	switch in.Op.Fmt() {
	case FmtR:
		fmt.Fprintf(&b, " %s, %s, %s", in.Rd, in.Rs1, in.Rs2)
	case FmtR2:
		fmt.Fprintf(&b, " %s, %s", in.Rd, in.Rs1)
	case FmtI:
		fmt.Fprintf(&b, " %s, %s, %d", in.Rd, in.Rs1, in.Imm)
	case FmtLI:
		fmt.Fprintf(&b, " %s, %d", in.Rd, in.Imm)
	case FmtLd:
		fmt.Fprintf(&b, " %s, %d(%s)", in.Rd, in.Imm, in.Rs1)
	case FmtSt:
		fmt.Fprintf(&b, " %s, %d(%s)", in.Rs2, in.Imm, in.Rs1)
	case FmtB:
		if in.Op == BEQ || in.Op == BNE {
			fmt.Fprintf(&b, " %s, %s, %d", in.Rs1, in.Rs2, in.Imm)
		} else {
			fmt.Fprintf(&b, " %s, %d", in.Rs1, in.Imm)
		}
	case FmtJ:
		if in.Op == JAL {
			fmt.Fprintf(&b, " %s, %d", in.Rd, in.Imm)
		} else {
			fmt.Fprintf(&b, " %d", in.Imm)
		}
	case FmtJR:
		fmt.Fprintf(&b, " %s", in.Rs1)
	case FmtQ:
		fmt.Fprintf(&b, " %s, %s", in.Rs1, in.Rs2)
	case FmtTID:
		fmt.Fprintf(&b, " %s", in.Rd)
	}
	return b.String()
}

func TestInstructionStringMatchesFmt(t *testing.T) {
	regs := []Reg{R0, R1, R9, R10, R31, F0, F9, F10, F31, NoReg, Reg(100)}
	imms := []int32{0, 1, -1, 9, -10, 255, 256, 1 << 20, math.MaxInt32, math.MinInt32, -100}
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		for i, r := range regs {
			in := Instruction{Op: op, Rd: r, Rs1: regs[(i+3)%len(regs)], Rs2: regs[(i+7)%len(regs)], Imm: imms[i]}
			if got, want := in.String(), fmtString(in); got != want {
				t.Errorf("%#v.String() = %q, want %q", in, got, want)
			}
		}
	}
	for r := Reg(0); r.Valid(); r++ {
		want := fmt.Sprintf("r%d", r.Index())
		if r.IsFP() {
			want = fmt.Sprintf("f%d", r.Index())
		}
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
	if got := NoReg.String(); got != "-" {
		t.Errorf("NoReg.String() = %q, want \"-\"", got)
	}
}
