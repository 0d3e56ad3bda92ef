package vm

import (
	"strings"
	"testing"
)

func expectBuildPanic(t *testing.T, wantSub string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want %q)", wantSub)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, wantSub) {
			t.Fatalf("panic %v, want substring %q", r, wantSub)
		}
	}()
	f()
}

func TestBuilderUndefinedLabelPanics(t *testing.T) {
	expectBuildPanic(t, "undefined label", func() {
		NewCodeBuilder().Br("nowhere").Build("m", 0, 0, false)
	})
}

func TestBuilderDuplicateLabelFails(t *testing.T) {
	expectBuildPanic(t, "duplicate label", func() {
		NewCodeBuilder().Label("a").Label("a").Build("m", 0, 0, false)
	})
}

func TestBuilderOperandMisuse(t *testing.T) {
	expectBuildPanic(t, "requires an operand", func() {
		NewCodeBuilder().Op(OpLdLoc).Build("m", 0, 0, false)
	})
	expectBuildPanic(t, "does not take a u16", func() {
		NewCodeBuilder().U16(OpAdd, 1).Build("m", 0, 0, false)
	})
	expectBuildPanic(t, "out of range", func() {
		NewCodeBuilder().U16(OpLdLoc, 1<<17).Build("m", 0, 0, false)
	})
}

func TestBuilderUnknownFieldFails(t *testing.T) {
	v := testVM(t)
	pt := pointClass(v)
	expectBuildPanic(t, "no field", func() {
		NewCodeBuilder().LdFld(pt, "z").Build("m", 0, 0, false)
	})
}

func TestBuilderBranchOffsets(t *testing.T) {
	// Forward and backward branches both resolve to correct targets.
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(3).StLoc(0).
		LdcI4(0).StLoc(1).
		Label("top").
		LdLoc(0).BrFalse("end").
		LdLoc(1).LdcI4(1).Op(OpAdd).StLoc(1).
		LdLoc(0).LdcI4(1).Op(OpSub).StLoc(0).
		Br("top").
		Label("end").
		LdLoc(1).RetVal().
		Build("m", 0, 2, true))
	if got := runMethod(t, v, m); got.Int() != 3 {
		t.Errorf("loop count %d", got.Int())
	}
}

func TestBuilderInternNameUnknown(t *testing.T) {
	v := testVM(t)
	expectBuildPanic(t, "unknown internal call", func() {
		NewCodeBuilder().InternName(v, "no.such.call").Build("m", 0, 0, false)
	})
}

func TestInterpStackOps(t *testing.T) {
	v := testVM(t)
	// dup and pop.
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(21).Op(OpDup).Op(OpAdd). // 42
		LdcI4(99).Op(OpPop).           // discard
		RetVal().
		Build("m", 0, 0, true))
	if got := runMethod(t, v, m); got.Int() != 42 {
		t.Errorf("got %d", got.Int())
	}
}

func TestInterpBitwiseOps(t *testing.T) {
	v := testVM(t)
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpShl, 3, 4, 48},
		{OpShr, -16, 2, -4},
		{OpRem, 17, 5, 2},
	}
	for _, tc := range cases {
		m := v.AddMethod(nil, NewCodeBuilder().
			LdArg(0).LdArg(1).Op(tc.op).RetVal().
			Build("m_"+tc.op.Name(), 2, 0, true))
		if got := runMethod(t, v, m, IntValue(tc.a), IntValue(tc.b)); got.Int() != tc.want {
			t.Errorf("%s(%d,%d) = %d, want %d", tc.op.Name(), tc.a, tc.b, got.Int(), tc.want)
		}
	}
}

func TestInterpNotNeg(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).Op(OpNot).RetVal().Build("not", 1, 0, true))
	if got := runMethod(t, v, m, IntValue(0)); got.Int() != -1 {
		t.Errorf("not 0 = %d", got.Int())
	}
	m2 := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).Op(OpNegF).RetVal().Build("negf", 1, 0, true))
	if got := runMethod(t, v, m2, FloatValue(2.5)); got.Float() != -2.5 {
		t.Errorf("negf = %g", got.Float())
	}
}

func TestInterpComparisons(t *testing.T) {
	v := testVM(t)
	intCases := []struct {
		op   Op
		a, b int64
		want bool
	}{
		{OpCeq, 5, 5, true}, {OpCeq, 5, 6, false},
		{OpClt, -1, 0, true}, {OpClt, 0, 0, false},
		{OpCgt, 7, 3, true}, {OpCgt, 3, 7, false},
	}
	for _, tc := range intCases {
		m := v.AddMethod(nil, NewCodeBuilder().
			LdArg(0).LdArg(1).Op(tc.op).RetVal().Build("c"+tc.op.Name(), 2, 0, true))
		if got := runMethod(t, v, m, IntValue(tc.a), IntValue(tc.b)); got.Bool() != tc.want {
			t.Errorf("%s(%d,%d) = %v", tc.op.Name(), tc.a, tc.b, got.Bool())
		}
	}
	floatCases := []struct {
		op   Op
		a, b float64
		want bool
	}{
		{OpCeqF, 1.5, 1.5, true},
		{OpCltF, 1.0, 1.5, true},
		{OpCgtF, 2.0, 1.5, true},
		{OpCgtF, 1.0, 1.5, false},
	}
	for _, tc := range floatCases {
		m := v.AddMethod(nil, NewCodeBuilder().
			LdArg(0).LdArg(1).Op(tc.op).RetVal().Build("f"+tc.op.Name(), 2, 0, true))
		if got := runMethod(t, v, m, FloatValue(tc.a), FloatValue(tc.b)); got.Bool() != tc.want {
			t.Errorf("%s(%g,%g) = %v", tc.op.Name(), tc.a, tc.b, got.Bool())
		}
	}
}

func TestInterpArgsMismatch(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().Ret().Build("m", 2, 0, false))
	v.WithThread("t", func(th *Thread) {
		if _, err := th.Call(m, IntValue(1)); err == nil {
			t.Error("arity mismatch accepted")
		}
	})
}

func TestInterpStArg(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).LdcI4(1).Op(OpAdd).StArg(0).
		LdArg(0).RetVal().
		Build("m", 1, 0, true))
	if got := runMethod(t, v, m, IntValue(9)); got.Int() != 10 {
		t.Errorf("starg result %d", got.Int())
	}
}

func TestInterpFellOffEnd(t *testing.T) {
	// A method without ret: treated as void return.
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().LdcI4(1).Op(OpPop).Build("m", 0, 0, false))
	v.WithThread("t", func(th *Thread) {
		if _, err := th.Call(m); err != nil {
			t.Errorf("fell-off-end: %v", err)
		}
	})
}

func TestOpcodeTableConsistency(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); op < opCount; op++ {
		name := opTable[op].name
		if name == "" {
			t.Errorf("opcode %d has no name", op)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("duplicate mnemonic %q (%d and %d)", name, prev, op)
		}
		seen[name] = op
		if got := opByName[name]; got != op {
			t.Errorf("opByName[%q] = %d, want %d", name, got, op)
		}
	}
}

func TestDisassembleEveryOpcode(t *testing.T) {
	// Build a (non-executable) method containing one instance of every
	// opcode and confirm the disassembler renders each mnemonic.
	v := testVM(t)
	pt := pointClass(v)
	callee := v.AddMethod(nil, NewCodeBuilder().Ret().Build("callee", 0, 0, false))
	vcallee := &Method{Name: "vm", NArgs: 1, Virtual: true}
	v.AddMethod(pt, vcallee)
	vcallee.Code = NewCodeBuilder().Ret().Build("vm", 1, 0, false).Code
	g := v.AddGlobal("g")
	i32arr := v.ArrayType(KindInt32, nil, 1)
	md := v.ArrayType(KindFloat64, nil, 2)

	b := NewCodeBuilder()
	b.Op(OpNop).LdcI4(1).LdcI8(2).LdcR8(3.5).LdNull().
		LdLoc(0).StLoc(0).LdArg(0).StArg(0).
		Op(OpDup).Op(OpPop).
		Op(OpAdd).Op(OpSub).Op(OpMul).Op(OpDiv).Op(OpRem).Op(OpNeg).
		Op(OpAnd).Op(OpOr).Op(OpXor).Op(OpShl).Op(OpShr).Op(OpNot).
		Op(OpAddF).Op(OpSubF).Op(OpMulF).Op(OpDivF).Op(OpNegF).
		Op(OpCeq).Op(OpClt).Op(OpCgt).Op(OpCeqF).Op(OpCltF).Op(OpCgtF).
		Op(OpConvI2F).Op(OpConvF2I).
		Label("l").Br("l").BrTrue("l").BrFalse("l").
		Call(callee).CallVirt(vcallee).InternName(v, "console.newline").
		NewObj(pt).NewArr(i32arr).U16(OpNewMD, md.Index).
		Op(OpLdLen).Op(OpLdElem).Op(OpStElem).
		LdFld(pt, "x").StFld(pt, "x").LdSFld(g).StSFld(g).
		Ret().RetVal()
	m := v.AddMethod(nil, b.Build("everything", 1, 1, false))
	dis := v.Disassemble(m)
	for op := Op(0); op < opCount; op++ {
		if !strings.Contains(dis, op.Name()) {
			t.Errorf("disassembly missing %q", op.Name())
		}
	}
	// Operand rendering: resolved names appear.
	for _, want := range []string{"callee", "Point.vm", "console.newline", "Point", "int32[rank=1]"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing operand %q:\n%s", want, dis)
		}
	}
}
