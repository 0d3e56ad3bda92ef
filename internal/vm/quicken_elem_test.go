package vm

import (
	"errors"
	"math"
	"testing"
)

// Differential tests for the fused array load (qLdElemAt) and the
// per-site element-layout cache. Everything observable — value, trap
// kind/detail/pc, step-budget exhaustion — is compared against the
// reference interpreter through callBoth.

// opPC returns the offset of the n-th (0-based) occurrence of op.
func opPC(t *testing.T, m *Method, op Op, n int) int {
	t.Helper()
	for pc := 0; pc < len(m.Code); {
		o := Op(m.Code[pc])
		if o == op {
			if n == 0 {
				return pc
			}
			n--
		}
		pc += 1 + o.operandBytes()
	}
	t.Fatalf("%s: no %s #%d", m.FullName(), op.Name(), n)
	return -1
}

func countQ(m *Method, op qOp) int {
	n := 0
	for i := range m.quick.insts {
		if m.quick.insts[i].op == op {
			n++
		}
	}
	return n
}

// elemSites returns the element sites among insts, in order.
func elemSites(insts []qinst) []*qinst {
	var out []*qinst
	for i := range insts {
		switch q := &insts[i]; q.op {
		case qLdElem, qLdElemAt, qStElem:
			out = append(out, q)
		}
	}
	return out
}

func wantTrap(t *testing.T, err error, kind, detail string, pc int) {
	t.Helper()
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("err = %v, want a %q trap", err, kind)
	}
	if trap.Kind != kind || (detail != "" && trap.Detail != detail) || trap.PC != pc {
		t.Errorf("trap = %+v, want kind %q detail %q pc %d", *trap, kind, detail, pc)
	}
}

// int64Array allocates and fills an int64[] inside a temporary thread.
func int64Array(t *testing.T, v *VM, vals ...int64) Ref {
	t.Helper()
	var ref Ref
	v.WithThread("alloc", func(*Thread) {
		var err error
		if ref, err = v.Heap.AllocArray(v.ArrayType(KindInt64, nil, 1), len(vals)); err != nil {
			t.Fatal(err)
		}
		for i, x := range vals {
			v.Heap.SetElem(ref, i, uint64(x))
		}
	})
	return ref
}

// TestFusedLoadNullArrayTrapPC: a null array inside a fused load traps
// at the ldelem component's pc, as the reference does — not at the head.
func TestFusedLoadNullArrayTrapPC(t *testing.T) {
	v := testVM(t)
	g := v.AddGlobal("fused.null")
	for name, head := range map[string]func(*CodeBuilder) *CodeBuilder{
		"ldloc":  func(b *CodeBuilder) *CodeBuilder { return b.LdLoc(1) },
		"ldarg":  func(b *CodeBuilder) *CodeBuilder { return b.LdArg(0) },
		"ldsfld": func(b *CodeBuilder) *CodeBuilder { return b.LdSFld(g) },
	} {
		b := NewCodeBuilder().LdArg(0).StLoc(1).MarkLine(1)
		b = head(b).LdLoc(0).LdcI4(1).Op(OpAdd).MarkLine(2).Op(OpLdElem).RetVal()
		m := v.AddMethod(nil, b.Build("null_"+name, 1, 2, true))
		if info := mustQuicken(t, v, m); info.Fused != 1 || countQ(m, qLdElemAt) != 1 {
			t.Fatalf("%s: %d fusions, %d qLdElemAt; want 1 and 1", name, info.Fused, countQ(m, qLdElemAt))
		}
		_, err := callBoth(t, v, m, Value{IsRef: true})
		pc := opPC(t, m, OpLdElem, 0)
		wantTrap(t, err, "null reference", "ldelem", pc)
		if m.LineForPC(pc) != 2 {
			t.Fatalf("%s: ldelem is on line %d, want 2", name, m.LineForPC(pc))
		}
	}
}

// TestFusedLoadIndexArithmetic: index == length, -1 through the fused
// sub, and int64 wrap-around of I+K and I-K, trapping or landing in
// range exactly as the unfused add/sub would.
func TestFusedLoadIndexArithmetic(t *testing.T) {
	v := testVM(t)
	arr := RefValue(int64Array(t, v, 10, 11, 12, 13))
	build := func(name string, off func(*CodeBuilder) *CodeBuilder) *Method {
		b := NewCodeBuilder().LdArg(1).StLoc(0).LdArg(2).StLoc(1).LdArg(0).LdLoc(0)
		m := v.AddMethod(nil, off(b).Op(OpLdElem).RetVal().Build(name, 3, 2, true))
		mustQuicken(t, v, m)
		if countQ(m, qLdElemAt) != 1 {
			t.Fatalf("%s: not fused", name)
		}
		return m
	}
	plain := build("plain", func(b *CodeBuilder) *CodeBuilder { return b })
	subC := build("subc", func(b *CodeBuilder) *CodeBuilder { return b.LdcI4(1).Op(OpSub) })
	addC := build("addc", func(b *CodeBuilder) *CodeBuilder { return b.LdcI4(2).Op(OpAdd) })
	addK := build("addk", func(b *CodeBuilder) *CodeBuilder { return b.LdLoc(1).Op(OpAdd) })
	subK := build("subk", func(b *CodeBuilder) *CodeBuilder { return b.LdLoc(1).Op(OpSub) })

	const oob = math.MinInt64 // marks the cases that must trap
	for _, c := range []struct {
		m    *Method
		i, k int64
		want int64
	}{
		{plain, 3, 0, 13},
		{plain, 4, 0, oob}, // index == length
		{plain, -1, 0, oob},
		{subC, 1, 0, 10},
		{subC, 0, 0, oob}, // -1 via the fused sub
		{addC, 1, 0, 13},
		{addC, 2, 0, oob},
		{addC, math.MaxInt64, 0, oob},                // wraps to MinInt64+1
		{addK, math.MaxInt64, math.MaxInt64, oob},    // wraps to -2
		{addK, math.MaxInt64, math.MinInt64 + 3, 12}, // lands on 2
		{subK, math.MinInt64, math.MaxInt64, 11},     // wraps to 1
		{subK, 2, 3, oob},
		{subK, 5, 2, 13},
	} {
		got, err := callBoth(t, v, c.m, arr, IntValue(c.i), IntValue(c.k))
		if c.want == oob {
			var trap *Trap
			if !errors.As(err, &trap) || trap.Kind != "index out of range" || trap.PC != opPC(t, c.m, OpLdElem, 0) {
				t.Errorf("%s(%d,%d): err %v, want a bounds trap at the ldelem", c.m.Name, c.i, c.k, err)
			}
		} else if err != nil || got.Int() != c.want {
			t.Errorf("%s(%d,%d) = %v, %v; want %d", c.m.Name, c.i, c.k, got, err, c.want)
		}
	}
}

// TestFusedLoadBranchTargetBlocksFusion: a branch landing on the index
// load, the offset, the add or the ldelem itself keeps the site unfused
// (the jump target must keep its own quickened index), and both paths
// into it compute what the reference computes.
func TestFusedLoadBranchTargetBlocksFusion(t *testing.T) {
	v := testVM(t)
	arr := RefValue(int64Array(t, v, 10, 11, 12, 13))
	// The straight path runs ldarg 0; ldloc 0; ldc.i4 1; add; ldelem.
	// The side path (arg 1 != 0) pushes the operands the landing
	// component expects and jumps into the middle.
	for target := 1; target <= 4; target++ {
		b := NewCodeBuilder().LdcI4(2).StLoc(0).LdArg(1).BrFalse("straight").LdArg(0)
		if target >= 2 {
			b.LdcI4(0)
		}
		if target == 3 {
			b.LdcI4(1)
		}
		b.Br("mid").Label("straight")
		comps := []func(){
			func() { b.LdArg(0) },
			func() { b.LdLoc(0) },
			func() { b.LdcI4(1) },
			func() { b.Op(OpAdd) },
			func() { b.Op(OpLdElem) },
		}
		for i, emit := range comps {
			if i == target {
				b.Label("mid")
			}
			emit()
		}
		m := v.AddMethod(nil, b.RetVal().Build("mid"+string(rune('0'+target)), 2, 1, true))
		mustQuicken(t, v, m)
		if countQ(m, qLdElemAt) != 0 || countQ(m, qLdElem) != 1 {
			t.Fatalf("target %d: site fused across a branch target", target)
		}
		// straight: arr[2+1]; side: arr[2+1], arr[0+1], arr[0+1], arr[0].
		for side, want := range map[int64]int64{0: 13, 1: []int64{0, 13, 11, 11, 10}[target]} {
			got, err := callBoth(t, v, m, arr, IntValue(side))
			if err != nil || got.Int() != want {
				t.Errorf("target %d side %d = %v, %v; want %d", target, side, got, err, want)
			}
		}
	}
	// Control: no branch target inside, the same shape fuses.
	m := v.AddMethod(nil, NewCodeBuilder().LdcI4(2).StLoc(0).
		LdArg(0).LdLoc(0).LdcI4(1).Op(OpAdd).Op(OpLdElem).RetVal().Build("nomid", 2, 1, true))
	mustQuicken(t, v, m)
	if countQ(m, qLdElemAt) != 1 {
		t.Fatal("control shape did not fuse")
	}
}

// TestQuickenElemCachePolymorphicSite feeds one load site and one store
// site a float64[], an int32[] (sign extension), a float32[], a
// reference array (IsRef on the result, write barrier on the store), a
// rank-2 array and a class instance in turn: every miss and refill
// agrees with the reference, only rank-1 array types are ever cached,
// and a cached site still rejects everything the reference rejects.
func TestQuickenElemCachePolymorphicSite(t *testing.T) {
	v := testVM(t)
	pt := pointClass(v)
	get := v.AddMethod(nil, NewCodeBuilder().LdArg(1).StLoc(0).
		LdArg(0).LdLoc(0).Op(OpLdElem).RetVal().Build("get", 2, 1, true))
	put := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).LdArg(1).LdArg(2).Op(OpStElem).Ret().Build("put", 3, 0, false))
	mustQuicken(t, v, get)
	mustQuicken(t, v, put)
	ld, st := elemSites(get.quick.insts)[0], elemSites(put.quick.insts)[0]
	if ld.op != qLdElemAt || st.op != qStElem || ld.ekey != freeSentinel || st.ekey != freeSentinel {
		t.Fatalf("sites: load op %d key %#x, store op %d key %#x", ld.op, ld.ekey, st.op, st.ekey)
	}

	// The operands live in globals: rooted across the calls, and
	// re-read after the scavenge below has moved the young ones.
	hold := func(name string, ref Ref, err error) func() Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		g := v.AddGlobal("poly." + name)
		v.SetGlobal(g, RefValue(ref))
		return func() Value { return v.GetGlobal(g) }
	}
	var f64, i32, f32, refs, md, obj, young func() Value
	refT := v.ArrayType(KindRef, pt, 1)
	v.WithThread("alloc", func(*Thread) {
		h := v.Heap
		ref, err := h.AllocArray(v.ArrayType(KindFloat64, nil, 1), 4)
		f64 = hold("f64", ref, err)
		ref, err = h.AllocArray(v.ArrayType(KindInt32, nil, 1), 4)
		i32 = hold("i32", ref, err)
		ref, err = h.AllocArray(v.ArrayType(KindFloat32, nil, 1), 4)
		f32 = hold("f32", ref, err)
		// Large enough to be allocated straight into the elder space, so
		// storing a young object into it must hit the write barrier.
		ref, err = h.AllocArray(refT, 16<<10)
		refs = hold("refs", ref, err)
		if h.IsYoung(ref) {
			t.Fatal("reference array is young; the barrier case needs it elder")
		}
		ref, err = h.AllocMultiDim(v.ArrayType(KindFloat64, nil, 2), []int{2, 3})
		md = hold("md", ref, err)
		ref, err = h.AllocClass(pt)
		obj = hold("obj", ref, err)
		ref, err = h.AllocClass(pt)
		young = hold("young", ref, err)
		h.SetScalar(ref, pt.FieldByName("tag"), 77)
	})

	step := func(arr Value, i int64, val Value, wantKey *MethodTable) Value {
		t.Helper()
		if _, err := callBoth(t, v, put, arr, IntValue(i), val); err != nil {
			t.Fatalf("put: %v", err)
		}
		got, err := callBoth(t, v, get, arr, IntValue(i))
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		for _, q := range []*qinst{ld, st} {
			if q.ekey != uint32(wantKey.Index) || q.ekind != wantKey.Elem || int(q.esize) != wantKey.ElemSize() {
				t.Fatalf("site caches type %d kind %s, want %s", q.ekey, q.ekind, wantKey)
			}
		}
		return got
	}

	if got := step(f64(), 1, FloatValue(2.5), v.ArrayType(KindFloat64, nil, 1)); got != FloatValue(2.5) {
		t.Errorf("float64[] round trip = %+v", got)
	}
	if got := step(i32(), 2, IntValue(-7), v.ArrayType(KindInt32, nil, 1)); got != IntValue(-7) {
		t.Errorf("int32[] round trip = %+v, want sign-extended -7", got)
	}
	if got := step(f32(), 3, FloatValue(1.1), v.ArrayType(KindFloat32, nil, 1)); got != FloatValue(float64(float32(1.1))) {
		t.Errorf("float32[] round trip = %+v, want 1.1 narrowed to single", got)
	}
	if got := step(refs(), 9, young(), refT); got != young() {
		t.Errorf("reference array round trip = %+v, want %+v (IsRef set)", got, young())
	}
	if _, ok := v.Heap.remembered[refs().Ref()]; !ok {
		t.Error("quickened stelem of a young object into an elder array skipped the write barrier")
	}
	before := young().Ref()
	v.WithThread("gc", func(th *Thread) { th.CollectYoung() })
	if moved := v.Heap.GetElemRef(refs().Ref(), 9); moved == before || moved != young().Ref() ||
		v.Heap.GetScalar(moved, pt.FieldByName("tag")) != 77 {
		t.Errorf("element %#x after the scavenge does not follow the promoted object", moved)
	}
	// A scalar into the (now cached) reference array is still rejected.
	_, err := callBoth(t, v, put, refs(), IntValue(0), IntValue(5))
	wantTrap(t, err, "type mismatch", "storing scalar into reference array", opPC(t, put, OpStElem, 0))

	// Rank-2: linear indexing past the dims words; never cached, so the
	// reference-array entry survives it.
	if got := step(md(), 5, FloatValue(6.5), refT); got != FloatValue(6.5) {
		t.Errorf("rank-2 round trip = %+v", got)
	}
	_, err = callBoth(t, v, get, md(), IntValue(6))
	wantTrap(t, err, "index out of range", "", opPC(t, get, OpLdElem, 0))

	// A class instance is a type mismatch on both sites, on both loops.
	_, err = callBoth(t, v, get, obj(), IntValue(0))
	wantTrap(t, err, "type mismatch", "ldelem on non-array Point", opPC(t, get, OpLdElem, 0))
	_, err = callBoth(t, v, put, obj(), IntValue(0), IntValue(1))
	wantTrap(t, err, "type mismatch", "stelem on non-array Point", opPC(t, put, OpStElem, 0))
	if ld.ekey != uint32(refT.Index) || st.ekey != uint32(refT.Index) {
		t.Error("a rank-2 array or a class instance refilled the cache")
	}
	// And back to the first type: one more miss, same answer.
	if got := step(f64(), 1, FloatValue(-0.5), v.ArrayType(KindFloat64, nil, 1)); got != FloatValue(-0.5) {
		t.Errorf("float64[] after the tour = %+v", got)
	}
}

// TestQuickenElemCachePreseed: an exact array fact fills the cache at
// quicken time (there is no baked opcode any more), StoreChecked rides
// on the store site, and a fact naming a class seeds nothing.
func TestQuickenElemCachePreseed(t *testing.T) {
	v := testVM(t)
	at := v.ArrayType(KindInt64, nil, 1)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(4).NewArr(at).StLoc(0).
		LdLoc(0).LdcI4(2).LdcI4(41).Op(OpStElem).
		LdcI4(2).StLoc(1).
		LdLoc(0).LdLoc(1).Op(OpLdElem).RetVal().
		Build("seeded", 0, 2, true))
	m.Facts = map[int]InstFact{
		opPC(t, m, OpStElem, 0): {ExactType: uint32(at.Index) + 1, StoreChecked: true},
		opPC(t, m, OpLdElem, 0): {ExactType: uint32(at.Index) + 1},
	}
	mustQuicken(t, v, m)
	sites := elemSites(m.quick.insts)
	if len(sites) != 2 || sites[0].op != qStElem || sites[1].op != qLdElemAt || sites[0].b != 1 {
		t.Fatalf("sites = %+v", sites)
	}
	for _, q := range sites {
		if q.ekey != uint32(at.Index) || q.ekind != KindInt64 || q.esize != 8 {
			t.Errorf("site at pc=%d not pre-seeded with %s: key %#x kind %s size %d", q.pc2, at, q.ekey, q.ekind, q.esize)
		}
	}
	if got, err := callBoth(t, v, m); err != nil || got.Int() != 41 {
		t.Fatalf("seeded = %v, %v; want 41", got, err)
	}

	m.Facts[opPC(t, m, OpLdElem, 0)] = InstFact{ExactType: uint32(pointClass(v).Index) + 1}
	mustQuicken(t, v, m)
	if q := elemSites(m.quick.insts)[1]; q.ekey != freeSentinel {
		t.Errorf("a class fact seeded the element cache with %#x", q.ekey)
	}
}

// TestQuickenElemCacheSurvivesScavenge: a scavenge moves the array
// between two executions of a cached site; the cache is keyed on the
// type index in the header, so the second execution hits and reads the
// moved copy.
func TestQuickenElemCacheSurvivesScavenge(t *testing.T) {
	v := testVM(t)
	g := v.AddGlobal("scav.arr")
	// sum = g[1] on each of two passes, with a scavenge after each.
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(1).StLoc(0).LdcI4(0).StLoc(1).LdcI4(0).StLoc(2).
		Label("pass").
		LdLoc(1).LdSFld(g).LdLoc(0).Op(OpLdElem).Op(OpAdd).StLoc(1).
		LdcI4(0).InternName(v, "gc.collect").
		LdLoc(2).LdcI4(1).Op(OpAdd).StLoc(2).
		LdLoc(2).LdcI4(2).Op(OpClt).BrTrue("pass").
		LdLoc(1).RetVal().Build("scav", 0, 3, true))
	mustQuicken(t, v, m)
	site := elemSites(m.quick.insts)[0]
	if site.op != qLdElemAt {
		t.Fatal("site not fused")
	}
	for _, ref := range []bool{false, true} {
		before := int64Array(t, v, 5, 21, 7)
		v.SetGlobal(g, RefValue(before))
		if !v.Heap.IsYoung(before) {
			t.Fatal("array not allocated young")
		}
		var got Value
		var err error
		v.WithThread("scav", func(th *Thread) {
			if ref {
				got, err = th.refCall(m)
			} else {
				got, err = th.Call(m)
			}
		})
		if err != nil || got.Int() != 42 {
			t.Fatalf("ref=%v: sum = %v, %v; want 42", ref, got, err)
		}
		if v.GetGlobal(g).Ref() == before {
			t.Fatalf("ref=%v: the scavenge did not move the array", ref)
		}
	}
	if site.ekey != uint32(v.ArrayType(KindInt64, nil, 1).Index) {
		t.Errorf("site caches %#x, want int64[]", site.ekey)
	}
}

// TestFusedLoadStepBudgetParity: a loop whose body is only fused loads
// charges the step budget at its back edge alone — exhaustion surfaces
// the same trap at the same pc after the same number of steps.
func TestFusedLoadStepBudgetParity(t *testing.T) {
	v := testVM(t)
	arr := RefValue(int64Array(t, v, 1, 2, 3))
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(1).StLoc(0).
		Label("loop").
		LdArg(0).LdLoc(0).Op(OpLdElem).Op(OpPop).
		LdArg(0).LdLoc(0).LdcI4(1).Op(OpSub).Op(OpLdElem).Op(OpPop).
		Br("loop").
		Build("spinload", 1, 1, false))
	mustQuicken(t, v, m)
	if countQ(m, qLdElemAt) != 2 {
		t.Fatal("loop body not fused")
	}
	for _, budget := range []int64{1, 2, 3, 17} {
		qerr, rerr := budgetBoth(v, m, budget, arr)
		wantTrap(t, qerr, "step budget exhausted", "backward branch", opPC(t, m, OpBr, 0))
		compareErrs(t, "spinload", qerr, rerr)
	}
}

// TestQuickenRotatedLatchStepBudgetParity: a while loop's backward br runs the
// compare-branch at its head itself, but first charges the step budget
// and polls at its own pc, as a br that jumps to the head does. The
// budget runs out with the same trap at the br's pc after the same
// number of steps, and a run that completes leaves the same budget: the
// loops charge, and poll with every charge, equally often.
func TestQuickenRotatedLatchStepBudgetParity(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(0).StLoc(0).
		Label("head").
		LdLoc(0).LdArg(0).Op(OpClt).BrFalse("done").
		LdLoc(0).LdcI4(1).Op(OpAdd).StLoc(0).
		Br("head").
		Label("done").
		LdLoc(0).RetVal().
		Build("while", 1, 1, true))
	mustQuicken(t, v, m)
	for _, budget := range []int64{1, 2, 3, 17} {
		qerr, rerr := budgetBoth(v, m, budget, IntValue(100))
		wantTrap(t, qerr, "step budget exhausted", "backward branch", opPC(t, m, OpBr, 0))
		compareErrs(t, "while", qerr, rerr)
	}
	left := func(ref bool) (n int64) {
		v.WithThread("t", func(th *Thread) {
			th.SetStepBudget(1000)
			call := th.Call
			if ref {
				call = th.refCall
			}
			if got, err := call(m, IntValue(100)); err != nil || got.Int() != 100 {
				t.Fatalf("ref=%v: while(100) = %v, %v", ref, got, err)
			}
			n = th.stepBudget
		})
		return n
	}
	if q, r := left(false), left(true); q != r || q != 1000-100 {
		t.Errorf("budget left: quickened %d, reference %d; want %d (one charge per iteration)", q, r, 1000-100)
	}
}
