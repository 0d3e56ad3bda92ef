package vm

import (
	"errors"
	"fmt"
	"testing"
)

// Regression tests for malformed-bytecode hardening: unverified code
// that underflows the operand stack, indexes frame slots out of range,
// or truncates an operand must surface as a typed *Trap from
// Thread.Call — never as a Go panic that kills the host. A Go runtime
// panic in the quickened loop reports the last committed pc (here the
// method's entry, 0): the loop does not commit pc per instruction.

func callExpectTrap(t *testing.T, v *VM, m *Method, kind string, pc int) {
	t.Helper()
	v.WithThread("t", func(th *Thread) {
		_, err := th.Call(m)
		if err == nil {
			t.Fatalf("%s: expected a trap, got success", m.FullName())
		}
		var trap *Trap
		if !errors.As(err, &trap) {
			t.Fatalf("%s: error %v (%T) is not a *Trap", m.FullName(), err, err)
		}
		if trap.Kind != kind || trap.Method != m.FullName() || trap.PC != pc {
			t.Fatalf("%s: trap %+v, want kind %q at pc=%d", m.FullName(), trap, kind, pc)
		}
	})
}

func TestTrapOnStackUnderflow(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, &Method{Name: "underflow", Code: []byte{byte(OpAdd), byte(OpRet)}})
	callExpectTrap(t, v, m, "invalid program", 0)
}

func TestTrapOnLocalOutOfRange(t *testing.T) {
	v := testVM(t)
	// ldloc 5 with zero locals.
	m := v.AddMethod(nil, &Method{Name: "badlocal", Code: []byte{byte(OpLdLoc), 5, 0, byte(OpRet)}})
	callExpectTrap(t, v, m, "invalid program", 0)
}

func TestTrapOnTruncatedOperand(t *testing.T) {
	v := testVM(t)
	// ldc.i4 needs 4 operand bytes; provide one.
	m := v.AddMethod(nil, &Method{Name: "truncated", Code: []byte{byte(OpLdcI4), 1}})
	callExpectTrap(t, v, m, "invalid program", 0)
}

func TestTrapOnUndefinedOpcode(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, &Method{Name: "badop", Code: []byte{0xEE}})
	callExpectTrap(t, v, m, "bad opcode", 0)
}

func TestTrapOnArgOutOfRange(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, &Method{Name: "badarg", Code: []byte{byte(OpLdArg), 3, 0, byte(OpRet)}})
	callExpectTrap(t, v, m, "invalid program", 0)
}

// TestMalformedCodeTrapsOnlyWhenReached: each malformed instruction
// placed after a ret is never reached, so the method returns normally;
// the same bytes reached trap with the kind and detail a
// decode-and-switch interpreter raises, at their pc — on the quickened
// loop and the reference interpreter alike.
func TestMalformedCodeTrapsOnlyWhenReached(t *testing.T) {
	v := testVM(t)
	pt := pointClass(v)
	at := v.ArrayType(KindInt64, nil, 1)
	op16 := func(op Op, x int) []byte { return []byte{byte(op), byte(x), byte(x >> 8)} }
	for _, c := range []struct {
		name, kind, detail string
		code               []byte
	}{
		{"undefined-opcode", "bad opcode", "238", []byte{0xEE, 0x01}},
		{"truncated-ldc", "invalid program", "runtime error: index out of range [3] with length 2", []byte{byte(OpLdcI4), 1, 2}},
		{"truncated-ldloc", "invalid program", "runtime error: index out of range [1] with length 0", []byte{byte(OpLdLoc)}},
		{"bad-method", "bad method index", "999", op16(OpCall, 999)},
		{"bad-callvirt", "bad method index", "998", op16(OpCallVirt, 998)},
		{"bad-internal", "bad internal index", "997", op16(OpIntern, 997)},
		{"bad-type", "bad type index", "996", op16(OpNewObj, 996)},
		{"newobj-array", "bad type index", fmt.Sprint(at.Index), op16(OpNewObj, at.Index)},
		{"newarr-class", "bad array type index", fmt.Sprint(pt.Index), op16(OpNewArr, pt.Index)},
		{"newmd-vector", "bad multidim type index", fmt.Sprint(at.Index), op16(OpNewMD, at.Index)},
	} {
		prefix := NewCodeBuilder().LdcI4(7).RetVal().Build("", 0, 0, true).Code
		m := v.AddMethod(nil, &Method{Name: "after_ret_" + c.name, HasRet: true, Code: append(prefix, c.code...)})
		if got, err := callBoth(t, v, m); err != nil || got.Int() != 7 {
			t.Errorf("%s after ret: %v, %v; want 7", c.name, got, err)
		}
		// ldc.i4 7; pop; <tail>: the tail sits at pc 6.
		prefix = NewCodeBuilder().LdcI4(7).Op(OpPop).Build("", 0, 0, false).Code
		m = v.AddMethod(nil, &Method{Name: "reached_" + c.name, Code: append(prefix, c.code...)})
		_, err := callBoth(t, v, m)
		wantTrap(t, err, c.kind, c.detail, 6)
	}
}

// TestBranchToNonInstructionTraps: a taken branch to a negative offset
// or into the middle of an instruction traps "invalid program" at the
// branch's pc (for a fused compare-and-branch, the branch half's). A
// decode-and-switch interpreter decodes the operand bytes as opcodes
// there instead, so these are not compared with the reference. The same
// branch not taken does nothing, and a branch past the end of the code
// is a void return, as it always was.
func TestBranchToNonInstructionTraps(t *testing.T) {
	v := testVM(t)
	// ldc.i4 1 (pc 0-4); brtrue rel (pc 5-9); ldc.i4 5 (pc 10-14); ret.val
	cond := func(taken bool, rel int32) *Method {
		c := int32(0)
		if taken {
			c = 1
		}
		code := NewCodeBuilder().LdcI4(c).Build("", 0, 0, false).Code
		code = append(code, byte(OpBrTrue), byte(rel), byte(rel>>8), byte(rel>>16), byte(rel>>24))
		code = append(code, NewCodeBuilder().LdcI4(5).RetVal().Build("", 0, 0, true).Code...)
		return v.AddMethod(nil, &Method{Name: fmt.Sprintf("br_%v_%d", taken, rel), HasRet: true, Code: code})
	}
	for _, rel := range []int32{-100, -8, 1} { // to pc -90, into ldc.i4 1's operand, into ldc.i4 5's
		var err error
		v.WithThread("t", func(th *Thread) { _, err = th.Call(cond(true, rel)) })
		wantTrap(t, err, "invalid program", fmt.Sprintf("branch target %d is not an instruction", 10+rel), 5)
		if got, err := callBoth(t, v, cond(false, rel)); err != nil || got.Int() != 5 {
			t.Errorf("untaken branch to %d: %v, %v; want 5", 10+rel, got, err)
		}
	}
	if got, err := callBoth(t, v, cond(true, 100)); err != nil || got != (Value{}) {
		t.Errorf("branch past the end: %v, %v; want a void return", got, err)
	}

	// ldc.i4 1; ldc.i4 2; clt; brtrue -14 (into the second ldc.i4's operand).
	code := NewCodeBuilder().LdcI4(1).LdcI4(2).Op(OpClt).Build("", 0, 0, false).Code
	m := v.AddMethod(nil, &Method{Name: "cmpbr_mid", Code: append(code, byte(OpBrTrue), 0xF2, 0xFF, 0xFF, 0xFF)})
	var err error
	v.WithThread("t", func(th *Thread) { _, err = th.Call(m) })
	if countQ(m, qCmpBr) != 1 {
		t.Fatal("compare and branch did not fuse")
	}
	wantTrap(t, err, "invalid program", "branch target 2 is not an instruction", 11)
}

// TestHostFCallPanicEscapes: a Go runtime error raised inside a host
// FCall implementation is a bug in engine/host code, not malformed
// bytecode. It must escape Thread.Call as a panic so it crashes loudly
// instead of being converted into an "invalid program" trap that
// blames the guest.
func TestHostFCallPanicEscapes(t *testing.T) {
	v := testVM(t)
	idx := v.RegisterInternal(InternalFunc{
		Name:  "test.crash",
		NArgs: 0,
		Fn: func(th *Thread, args []Value) (Value, error) {
			var m map[string]int
			m["boom"] = 1 // nil map write: a genuine runtime.Error
			return Value{}, nil
		},
	})
	m := v.AddMethod(nil, &Method{Name: "crasher",
		Code: []byte{byte(OpIntern), byte(idx), byte(idx >> 8), byte(OpRet)}})
	v.WithThread("t", func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("host FCall runtime error was swallowed, want it to escape as a panic")
			}
		}()
		_, _ = th.Call(m)
	})
}

// --- fused-superinstruction trap attribution -------------------------------
//
// Quickened superinstructions cover several bytecode offsets; a trap
// raised by a fused component must report the component's own pc (and
// therefore its own masm line via LineForPC), exactly as the reference
// interpreter does. Each test runs the method on both and demands
// field-identical *Trap values.

// trapBoth executes m through Thread.Call and on the reference
// interpreter and returns the (identical) trap, failing the test on any
// divergence.
func trapBoth(t *testing.T, v *VM, m *Method, args ...Value) *Trap {
	t.Helper()
	var qerr, rerr error
	v.WithThread("quick", func(th *Thread) { _, qerr = th.Call(m, args...) })
	v.WithThread("ref", func(th *Thread) { _, rerr = th.refCall(m, args...) })
	return sameTrap(t, m, qerr, rerr)
}

// sameTrap fails the test unless both errors are the same trap.
func sameTrap(t *testing.T, m *Method, qerr, rerr error) *Trap {
	t.Helper()
	var qt, rt *Trap
	if !errors.As(qerr, &qt) || !errors.As(rerr, &rt) {
		t.Fatalf("%s: errors %v / %v are not both traps", m.FullName(), qerr, rerr)
	}
	if *qt != *rt {
		t.Fatalf("%s: quickened trap %+v != reference trap %+v", m.FullName(), *qt, *rt)
	}
	return qt
}

// TestFusedLdLocFldTrapAttribution: a null receiver inside the fused
// ldloc+ldfld superinstruction reports the ldfld's pc and line — the
// second component faults, not the fusion head.
func TestFusedLdLocFldTrapAttribution(t *testing.T) {
	v := testVM(t)
	pt := pointClass(v)
	m := v.AddMethod(nil, NewCodeBuilder().
		MarkLine(1).LdNull().StLoc(0).
		MarkLine(2).LdLoc(0).
		MarkLine(3).LdFld(pt, "x").
		MarkLine(4).RetVal().
		Build("nullfld", 0, 1, true))
	info := mustQuicken(t, v, m)
	if info.Fused == 0 {
		t.Fatal("ldloc+ldfld did not fuse")
	}
	trap := trapBoth(t, v, m)
	if trap.Kind != "null reference" || trap.Detail != "ldfld" {
		t.Fatalf("trap = %+v, want null reference / ldfld", trap)
	}
	if line := m.LineForPC(trap.PC); line != 3 {
		t.Fatalf("trap attributed to line %d (pc=%d), want the ldfld's line 3", line, trap.PC)
	}
}

// TestFusedIncLocThenDivTrapAttribution: a division by zero in a loop
// body whose counter update and exit test are both fused still reports
// the div's pc/line on both loops.
func TestFusedIncLocThenDivTrapAttribution(t *testing.T) {
	v := testVM(t)
	// for (i = 0; i < 4; i++) { x = 10 / (2 - i) }  — traps at i == 2.
	m := v.AddMethod(nil, NewCodeBuilder().
		MarkLine(1).LdcI4(0).StLoc(0).
		Label("loop").
		MarkLine(2).LdcI4(10).LdcI4(2).LdLoc(0).Op(OpSub).Op(OpDiv).StLoc(1).
		MarkLine(3).LdLoc(0).LdcI4(1).Op(OpAdd).StLoc(0).
		MarkLine(4).LdLoc(0).LdcI4(4).Op(OpClt).BrTrue("loop").
		MarkLine(5).LdLoc(1).RetVal().
		Build("divloop", 0, 2, true))
	info := mustQuicken(t, v, m)
	if info.Fused < 2 {
		t.Fatalf("Fused = %d, want the increment and the compare-branch", info.Fused)
	}
	trap := trapBoth(t, v, m)
	if trap.Kind != "division by zero" || trap.Detail != "div" {
		t.Fatalf("trap = %+v, want division by zero / div", trap)
	}
	if line := m.LineForPC(trap.PC); line != 2 {
		t.Fatalf("trap attributed to line %d (pc=%d), want the div's line 2", line, trap.PC)
	}
}

// TestFusedLdArgCallTrapAttribution: a trap raised while PUSHING a
// fused ldarg+call (step-budget exhaustion) charges the call half's
// pc, and a trap inside the callee names the callee, on both loops.
func TestFusedLdArgCallTrapAttribution(t *testing.T) {
	v := testVM(t)
	inv := v.AddMethod(nil, NewCodeBuilder().
		MarkLine(1).LdcI4(100).LdArg(0).Op(OpDiv).RetVal().
		Build("inv", 1, 0, true))
	caller := v.AddMethod(nil, NewCodeBuilder().
		MarkLine(1).LdArg(0).Call(inv).
		MarkLine(2).RetVal().
		Build("callinv", 1, 0, true))
	if info := mustQuicken(t, v, caller); info.Fused != 1 {
		t.Fatalf("Fused = %d, want 1 (ldarg+call)", info.Fused)
	}
	mustQuicken(t, v, inv)
	// Callee trap: attribution is the callee's div, caller unaffected.
	trap := trapBoth(t, v, caller, IntValue(0))
	if trap.Kind != "division by zero" || trap.Method != inv.FullName() {
		t.Fatalf("trap = %+v, want division by zero in %s", trap, inv.FullName())
	}
	// Budget exhaustion at the fused call site: the call half charges.
	qerr, rerr := budgetBoth(v, caller, 1, IntValue(1))
	qt := sameTrap(t, caller, qerr, rerr)
	if qt.Kind != "step budget exhausted" || qt.Detail != inv.FullName() {
		t.Fatalf("budget trap = %+v", qt)
	}
}

// TestFusedCmpBrStepBudgetAttribution: when the step budget dies on a
// fused compare+branch's backward edge, the charge is attributed to
// the branch half's pc — the same offset the reference reports.
func TestFusedCmpBrStepBudgetAttribution(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().
		MarkLine(1).LdcI4(0).StLoc(0).
		Label("loop").
		MarkLine(2).LdLoc(0).LdcI4(1).Op(OpAdd).StLoc(0).
		MarkLine(3).LdLoc(0).LdcI4(1000000).Op(OpClt).BrTrue("loop").
		MarkLine(4).Ret().
		Build("spincmp", 0, 1, false))
	mustQuicken(t, v, m)
	qerr, rerr := budgetBoth(v, m, 10)
	qt := sameTrap(t, m, qerr, rerr)
	if qt.Detail != "backward branch" {
		t.Fatalf("budget trap = %+v, want backward-branch charge", qt)
	}
	if line := m.LineForPC(qt.PC); line != 3 {
		t.Fatalf("budget charge attributed to line %d, want the branch's line 3", line)
	}
}

// TestFusedBoundsTrapAttribution: an out-of-bounds element access in
// quickened code unwinds through the BoundsError recover with the
// committed pc — identical to the reference.
func TestFusedBoundsTrapAttribution(t *testing.T) {
	// A bounds trap's detail embeds the object's heap address, so each
	// side gets a fresh VM with an identical allocation history.
	build := func(ref bool) *Trap {
		t.Helper()
		v := testVM(t)
		at := v.ArrayType(KindInt32, nil, 1)
		m := v.AddMethod(nil, NewCodeBuilder().
			MarkLine(1).LdcI4(2).NewArr(at).StLoc(0).
			MarkLine(2).LdLoc(0).LdcI4(9).Op(OpLdElem).RetVal().
			Build("oob", 0, 1, true))
		m.Verified = true
		var callErr error
		v.WithThread("t", func(th *Thread) {
			if ref {
				_, callErr = th.refCall(m)
			} else {
				_, callErr = th.Call(m)
			}
		})
		var trap *Trap
		if !errors.As(callErr, &trap) {
			t.Fatalf("error %v is not a trap", callErr)
		}
		if line := m.LineForPC(trap.PC); line != 2 {
			t.Fatalf("trap attributed to line %d (pc=%d), want 2", line, trap.PC)
		}
		return trap
	}
	qt, rt := build(false), build(true)
	if *qt != *rt {
		t.Fatalf("quickened trap %+v != reference trap %+v", *qt, *rt)
	}
	if qt.Kind != "index out of range" {
		t.Fatalf("trap = %+v, want index out of range", qt)
	}
}

// TestTrapAfterFCallStaysTrap: the FCall passthrough must not widen —
// a dispatch-loop runtime error in bytecode that runs after a
// successful FCall is still the guest's fault and still traps.
func TestTrapAfterFCallStaysTrap(t *testing.T) {
	v := testVM(t)
	idx := v.RegisterInternal(InternalFunc{
		Name:  "test.ok",
		NArgs: 0,
		Fn:    func(th *Thread, args []Value) (Value, error) { return Value{}, nil },
	})
	// intern test.ok, then underflow the stack.
	m := v.AddMethod(nil, &Method{Name: "afterfcall",
		Code: []byte{byte(OpIntern), byte(idx), byte(idx >> 8), byte(OpAdd), byte(OpRet)}})
	callExpectTrap(t, v, m, "invalid program", 0)
}
