package vm

import (
	"errors"
	"math"
	"testing"
	"unsafe"
)

// Unit tests for the quickening compiler and the dispatch loop: fusion
// formation, specialization, devirtualization, and — above all —
// observable equivalence with the reference interpreter
// (refinterp_test.go). Every test that executes quickened code
// re-executes the same method on the reference interpreter and demands
// identical results and identical traps.

// mustQuicken marks m verified (these are hand-built, structurally
// sound bodies) and lowers it.
func mustQuicken(t *testing.T, v *VM, m *Method) QuickenInfo {
	t.Helper()
	m.Verified = true
	info := v.QuickenMethod(m)
	if !m.Quickened() {
		t.Fatalf("quicken %s: no quick body installed", m.FullName())
	}
	return info
}

// callBoth runs m through Thread.Call, then on the reference
// interpreter, and fails unless both produce the same value and the
// same error (including every *Trap field). It returns the shared
// outcome.
func callBoth(t *testing.T, v *VM, m *Method, args ...Value) (Value, error) {
	t.Helper()
	var qv, rv Value
	var qerr, rerr error
	v.WithThread("quick", func(th *Thread) { qv, qerr = th.Call(m, args...) })
	v.WithThread("ref", func(th *Thread) { rv, rerr = th.refCall(m, args...) })
	if qv != rv {
		t.Errorf("%s: quickened value %+v, reference %+v", m.FullName(), qv, rv)
	}
	compareErrs(t, m.FullName(), qerr, rerr)
	return qv, qerr
}

// budgetBoth runs m with the step budget set to budget through
// Thread.Call and on the reference interpreter, and returns both errors.
func budgetBoth(v *VM, m *Method, budget int64, args ...Value) (qerr, rerr error) {
	v.WithThread("quick", func(th *Thread) {
		th.SetStepBudget(budget)
		_, qerr = th.Call(m, args...)
	})
	v.WithThread("ref", func(th *Thread) {
		th.SetStepBudget(budget)
		_, rerr = th.refCall(m, args...)
	})
	return qerr, rerr
}

func compareErrs(t *testing.T, name string, qerr, rerr error) {
	t.Helper()
	switch {
	case qerr == nil && rerr == nil:
	case qerr == nil || rerr == nil:
		t.Errorf("%s: quickened err %v, reference err %v", name, qerr, rerr)
	default:
		var qt, rt *Trap
		qIsTrap, rIsTrap := errors.As(qerr, &qt), errors.As(rerr, &rt)
		if qIsTrap != rIsTrap {
			t.Errorf("%s: quickened err %v (%T), reference %v (%T)", name, qerr, qerr, rerr, rerr)
		} else if qIsTrap {
			if *qt != *rt {
				t.Errorf("%s: quickened trap %+v, reference trap %+v", name, *qt, *rt)
			}
		} else if qerr.Error() != rerr.Error() {
			t.Errorf("%s: quickened err %q, reference err %q", name, qerr, rerr)
		}
	}
}

// TestQuickenUnverifiedIgnoresFacts: an unverified method is lowered
// like a verified one but without its facts — an exact-type fact that
// would bake a field and skip a store check is not spent until the
// method is verified — and both lowerings agree with the reference.
func TestQuickenUnverifiedIgnoresFacts(t *testing.T) {
	v := testVM(t)
	pt := pointClass(v)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).LdcI4(7).StFld(pt, "x"). // pcs 0,3,8
		LdArg(0).LdFld(pt, "x").          // pcs 11,14
		RetVal().Build("fld", 1, 0, true))
	m.Facts = map[int]InstFact{
		8:  {ExactType: uint32(pt.Index) + 1, StoreChecked: true},
		14: {ExactType: uint32(pt.Index) + 1},
	}
	ref, err := v.Heap.AllocClass(pt)
	if err != nil {
		t.Fatal(err)
	}
	for _, verified := range []bool{false, true} {
		m.Verified = verified
		v.QuickenMethod(m)
		baked, checked := countQ(m, qLdFldD)+countQ(m, qStFldD), 0
		for _, q := range m.quick.insts {
			checked += int(q.b)
		}
		if want := map[bool]int{false: 0, true: 2}[verified]; baked != want || checked != want/2 {
			t.Errorf("verified=%v: %d baked field sites, %d checked stores; want %d and %d", verified, baked, checked, want, want/2)
		}
		if got, err := callBoth(t, v, m, RefValue(ref)); err != nil || got.Int() != 7 {
			t.Fatalf("verified=%v: fld = %v, %v; want 7", verified, got, err)
		}
	}
}

// TestConvF2ISaturation pins the deterministic conv.f2i semantics on
// both dispatch paths: NaN → 0, out-of-range saturates to the int64
// extremes (Go's undefined-overflow float-to-int conversion must never
// leak through), in-range truncates toward zero.
func TestConvF2ISaturation(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).Op(OpConvF2I).RetVal().
		Build("f2i", 1, 0, true))
	mustQuicken(t, v, m)

	cases := []struct {
		in   float64
		want int64
	}{
		{0, 0},
		{1.9, 1},
		{-1.9, -1},
		{123456.5, 123456},
		{math.NaN(), 0},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), math.MinInt64},
		// 2^63 exactly: not representable as int64, saturates high.
		{9223372036854775808.0, math.MaxInt64},
		// MaxInt64 rounds up to 2^63 as a float64: still saturates.
		{9223372036854775807.0, math.MaxInt64},
		// -2^63 is exactly representable: converts, no saturation path.
		{-9223372036854775808.0, math.MinInt64},
		// First float64 below -2^63: saturates low.
		{-9223372036854777856.0, math.MinInt64},
		{1e300, math.MaxInt64},
		{-1e300, math.MinInt64},
		{2147483648.7, 2147483648},
	}
	for _, tc := range cases {
		got, err := callBoth(t, v, m, FloatValue(tc.in))
		if err != nil {
			t.Fatalf("f2i(%g): %v", tc.in, err)
		}
		if got.Int() != tc.want {
			t.Errorf("f2i(%g) = %d, want %d", tc.in, got.Int(), tc.want)
		}
	}
}

// TestQuickenIncAndCmpBrFusion: the canonical counted loop quickens
// into exactly two superinstructions (qIncLoc and a backward qCmpBr)
// and still counts correctly.
func TestQuickenIncAndCmpBrFusion(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(0).StLoc(0).
		Label("loop").
		LdLoc(0).LdcI4(1).Op(OpAdd).StLoc(0).
		LdLoc(0).LdcI4(10).Op(OpClt).BrTrue("loop").
		LdLoc(0).RetVal().
		Build("count10", 0, 1, true))
	info := mustQuicken(t, v, m)
	if info.Fused != 2 {
		t.Errorf("Fused = %d, want 2 (inc-local + compare-branch)", info.Fused)
	}
	got, err := callBoth(t, v, m)
	if err != nil || got.Int() != 10 {
		t.Fatalf("count10 = %v, %v; want 10", got, err)
	}
}

// TestQuickenBranchTargetBlocksFusion: a branch landing on the second
// instruction of a fusable pattern must keep that pattern unfused —
// the target needs its own quickened index.
func TestQuickenBranchTargetBlocksFusion(t *testing.T) {
	v := testVM(t)
	// The ldc.i4 1 of the increment pattern is also a join point
	// reached with one int already on the stack.
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(0).StLoc(0).
		LdLoc(0).
		Label("mid").
		LdcI4(1).Op(OpAdd).StLoc(0).
		LdLoc(0).LdcI4(3).Op(OpClt).BrFalse("done").
		LdLoc(0).Br("mid").
		Label("done").
		LdLoc(0).RetVal().
		Build("joinmid", 0, 1, true))
	info := mustQuicken(t, v, m)
	// The increment is torn by the "mid" label; what fuses is the
	// compare+branch and, headed at "mid", the add reading its constant
	// in place.
	if info.Fused != 2 {
		t.Errorf("Fused = %d, want 2", info.Fused)
	}
	midPC := opPC(t, m, OpLdcI4, 1)
	for _, q := range m.quick.insts {
		if q.op == qBr && (m.quick.insts[q.t].pc != int32(midPC) || m.quick.insts[q.t].op != qAdd) {
			t.Errorf("br lands on %+v, want the folded add at mid (pc %d)", m.quick.insts[q.t], midPC)
		}
	}
	got, err := callBoth(t, v, m)
	if err != nil || got.Int() != 3 {
		t.Fatalf("joinmid = %v, %v; want 3", got, err)
	}
}

// TestQuickenInstSize: the folded forms reuse qinst's fields, so the
// record every dispatch loads stays at 80 bytes on a 64-bit host.
func TestQuickenInstSize(t *testing.T) {
	if n := unsafe.Sizeof(qinst{}); unsafe.Sizeof(uintptr(0)) == 8 && n > 80 {
		t.Errorf("qinst is %d bytes, want <= 80", n)
	}
}

// TestQuickenLdArgCallFusion: ldarg feeding a static call fuses, and
// the fused form passes the argument in the right position (it is the
// LAST argument of the callee).
func TestQuickenLdArgCallFusion(t *testing.T) {
	v := testVM(t)
	sub := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).LdArg(1).Op(OpSub).RetVal().
		Build("sub", 2, 0, true))
	sub.Verified = true
	caller := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(10).LdArg(0).Call(sub).RetVal().
		Build("caller", 1, 0, true))
	info := mustQuicken(t, v, caller)
	if info.Fused != 1 {
		t.Errorf("Fused = %d, want 1", info.Fused)
	}
	got, err := callBoth(t, v, caller, IntValue(3))
	if err != nil || got.Int() != 7 {
		t.Fatalf("caller(3) = %v, %v; want 10-3 = 7", got, err)
	}
}

// TestQuickenRecursion: self-recursive quickened methods (frame
// suspend/resume through fr.qpc) compute correctly.
func TestQuickenRecursion(t *testing.T) {
	v := testVM(t)
	// fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
	b := NewCodeBuilder()
	fib := &Method{Name: "fib", NArgs: 1, HasRet: true}
	fib = v.AddMethod(nil, fib)
	b.LdArg(0).LdcI4(2).Op(OpClt).BrFalse("rec").
		LdArg(0).RetVal().
		Label("rec").
		LdArg(0).LdcI4(1).Op(OpSub).Call(fib).
		LdArg(0).LdcI4(2).Op(OpSub).Call(fib).
		Op(OpAdd).RetVal()
	built := b.Build("fib", 1, 0, true)
	fib.Code, fib.Lines = built.Code, built.Lines
	mustQuicken(t, v, fib)

	got, err := callBoth(t, v, fib, IntValue(15))
	if err != nil || got.Int() != 610 {
		t.Fatalf("fib(15) = %v, %v; want 610", got, err)
	}
}

// addVirtual registers a virtual method on owner.
func addVirtual(v *VM, owner *MethodTable, name string, ret int32) *Method {
	m := &Method{Name: name, NArgs: 1, HasRet: true, Virtual: true,
		Code: NewCodeBuilder().LdcI4(ret).RetVal().Build("x", 1, 0, true).Code}
	m.Verified = true
	return v.AddMethod(owner, m)
}

func TestQuickenVirtualDispatch(t *testing.T) {
	v := testVM(t)
	base := v.MustNewClass("VBase", nil, nil)
	derived := v.MustNewClass("VDerived", base, nil)
	baseGet := addVirtual(v, base, "get", 1)
	addVirtual(v, derived, "get", 2)

	caller := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).CallVirt(baseGet).RetVal().
		Build("vcall", 1, 0, true))
	mustQuicken(t, v, caller)

	alloc := func(mt *MethodTable) Value {
		ref, err := v.Heap.AllocClass(mt)
		if err != nil {
			t.Fatal(err)
		}
		return RefValue(ref)
	}
	// Same quickened site sees both receiver types: the inline cache
	// must re-resolve, not serve the stale implementation.
	for i := 0; i < 3; i++ {
		if got, err := callBoth(t, v, caller, alloc(base)); err != nil || got.Int() != 1 {
			t.Fatalf("vcall(base) = %v, %v; want 1", got, err)
		}
		if got, err := callBoth(t, v, caller, alloc(derived)); err != nil || got.Int() != 2 {
			t.Fatalf("vcall(derived) = %v, %v; want 2", got, err)
		}
	}
	// Null receiver traps identically.
	if _, err := callBoth(t, v, caller, Value{IsRef: true}); err == nil {
		t.Fatal("null receiver did not trap")
	}
}

// TestQuickenDevirtualization: an exact-type fact at a callvirt site
// binds the implementation at quicken time (qCallExact), and the
// devirtualized call still null-checks its receiver.
func TestQuickenDevirtualization(t *testing.T) {
	v := testVM(t)
	base := v.MustNewClass("DBase", nil, nil)
	derived := v.MustNewClass("DDerived", base, nil)
	baseGet := addVirtual(v, base, "get", 1)
	addVirtual(v, derived, "get", 2)

	caller := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).CallVirt(baseGet).RetVal().
		Build("dcall", 1, 0, true))
	// ldarg is 3 bytes; the callvirt sits at pc=3. Claim the receiver
	// is exactly DDerived, as the verifier would for an allocation-site
	// receiver.
	caller.Facts = map[int]InstFact{3: {ExactType: uint32(derived.Index) + 1}}
	info := mustQuicken(t, v, caller)
	if info.Devirted != 1 {
		t.Fatalf("Devirted = %d, want 1", info.Devirted)
	}

	ref, err := v.Heap.AllocClass(derived)
	if err != nil {
		t.Fatal(err)
	}
	got, cerr := callBoth(t, v, caller, RefValue(ref))
	if cerr != nil || got.Int() != 2 {
		t.Fatalf("dcall = %v, %v; want 2", got, cerr)
	}
	// Exactness proves the implementation, never non-nullness.
	var trap *Trap
	_, cerr = callBoth(t, v, caller, Value{IsRef: true})
	if !errors.As(cerr, &trap) || trap.Kind != "null reference" || trap.Detail != "callvirt receiver" {
		t.Fatalf("null receiver on devirtualized call: %v, want null-reference trap", cerr)
	}
}

// TestQuickenExactFieldAccess: exact receiver facts bake the field
// descriptor (qLdFldD / qStFldD) without changing observable results.
func TestQuickenExactFieldAccess(t *testing.T) {
	v := testVM(t)
	pt := pointClass(v)
	b := NewCodeBuilder().
		LdArg(0).LdcI4(7).StFld(pt, "x"). // pcs 0,3,8
		LdArg(0).LdFld(pt, "x").          // pcs 11,14
		RetVal()
	m := v.AddMethod(nil, b.Build("fld", 1, 0, true))
	m.Facts = map[int]InstFact{
		8:  {ExactType: uint32(pt.Index) + 1, StoreChecked: true},
		14: {ExactType: uint32(pt.Index) + 1},
	}
	mustQuicken(t, v, m)
	ref, err := v.Heap.AllocClass(pt)
	if err != nil {
		t.Fatal(err)
	}
	got, cerr := callBoth(t, v, m, RefValue(ref))
	if cerr != nil || got.Int() != 7 {
		t.Fatalf("fld = %v, %v; want 7", got, cerr)
	}
}

// TestQuickenArrayOps: allocation, stores, loads and ldlen round-trip
// identically, with and without an exact array-type fact.
func TestQuickenArrayOps(t *testing.T) {
	v := testVM(t)
	at := v.ArrayType(KindInt64, nil, 1)
	build := func(name string) *Method {
		return NewCodeBuilder().
			LdcI4(4).NewArr(at).StLoc(0). // arr = new int64[4]
			LdLoc(0).LdcI4(2).LdcI4(41).Op(OpStElem).
			LdLoc(0).LdcI4(2).Op(OpLdElem).
			LdLoc(0).Op(OpLdLen).
			Op(OpAdd).RetVal(). // 41 + 4
			Build(name, 0, 1, true)
	}
	m := v.AddMethod(nil, build("arr"))
	mustQuicken(t, v, m)
	got, err := callBoth(t, v, m)
	if err != nil || got.Int() != 45 {
		t.Fatalf("arr = %v, %v; want 45", got, err)
	}

	// Same body with exact facts on the element ops (layout baked).
	m2 := v.AddMethod(nil, build("arrK"))
	// Locate the stelem/ldelem pcs from the built code.
	facts := map[int]InstFact{}
	for pc := 0; pc < len(m2.Code); {
		op := Op(m2.Code[pc])
		if op == OpStElem {
			facts[pc] = InstFact{ExactType: uint32(at.Index) + 1, StoreChecked: true}
		}
		if op == OpLdElem {
			facts[pc] = InstFact{ExactType: uint32(at.Index) + 1}
		}
		pc += 1 + op.operandBytes()
	}
	m2.Facts = facts
	mustQuicken(t, v, m2)
	got, err = callBoth(t, v, m2)
	if err != nil || got.Int() != 45 {
		t.Fatalf("arrK = %v, %v; want 45", got, err)
	}
}

// TestQuickenStepBudgetParity: the step budget is charged at the same
// program points on the quickened loop and the reference — exhaustion surfaces the same trap at
// the same pc after the same number of steps.
func TestQuickenStepBudgetParity(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(0).StLoc(0).
		Label("loop").
		LdLoc(0).LdcI4(1).Op(OpAdd).StLoc(0).
		Br("loop").
		Build("spin", 0, 1, false))
	mustQuicken(t, v, m)

	for _, budget := range []int64{1, 2, 3, 17} {
		qerr, rerr := budgetBoth(v, m, budget)
		if qerr == nil || rerr == nil {
			t.Fatalf("budget %d: expected traps, got %v / %v", budget, qerr, rerr)
		}
		compareErrs(t, "spin", qerr, rerr)
	}
}

// TestQuickenInternAndGlobals: FCalls and static slots behave
// identically; the intern index is resolved per dispatch so a
// re-registered internal is honored by already-quickened code.
func TestQuickenInternAndGlobals(t *testing.T) {
	v := testVM(t)
	g := v.AddGlobal("qtest.g")
	val := int64(5)
	v.RegisterInternal(InternalFunc{
		Name: "qtest.val", NArgs: 0, HasRet: true,
		Fn: func(t *Thread, args []Value) (Value, error) { return IntValue(val), nil },
	})
	m := v.AddMethod(nil, NewCodeBuilder().
		InternName(v, "qtest.val").StSFld(g).
		LdSFld(g).LdcI4(100).Op(OpAdd).RetVal().
		Build("ig", 0, 0, true))
	mustQuicken(t, v, m)
	got, err := callBoth(t, v, m)
	if err != nil || got.Int() != 105 {
		t.Fatalf("ig = %v, %v; want 105", got, err)
	}
	// Re-point the internal; the quickened body must see the new one.
	v.RegisterInternal(InternalFunc{
		Name: "qtest.val", NArgs: 0, HasRet: true,
		Fn: func(t *Thread, args []Value) (Value, error) { return IntValue(900), nil },
	})
	got, err = callBoth(t, v, m)
	if err != nil || got.Int() != 1000 {
		t.Fatalf("ig after re-register = %v, %v; want 1000", got, err)
	}
}
