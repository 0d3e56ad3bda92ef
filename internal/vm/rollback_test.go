package vm

import "testing"

// Tests for registry rollback: a rejected module must leave no types,
// globals or callable methods behind, and its names must be free for a
// corrected retry (Rank.Load relies on this when verification fails
// after assembly has already registered the module).

const rollbackBadModule = `
.class Pair
  .field int64 a
  .field int64 b
.end
.global counter
.method helper (0) void
  ret
.end
.method main (0) void
  nosuchop
  ret
.end`

const rollbackGoodModule = `
.class Pair
  .field int64 a
  .field int64 b
.end
.global counter
.method helper (0) void
  ret
.end
.method main (0) int32
  ldc.i4 41
  ldc.i4 1
  add
  ret.val
.end`

func TestAssembleErrorRollsBackRegistries(t *testing.T) {
	v := testVM(t)
	nt, nm, ng := v.NumTypes(), v.NumMethods(), v.NumGlobals()

	// The bad module fails in pass 2 (unknown mnemonic), after its
	// class, global and method shells were registered.
	if _, err := v.AssembleModule(rollbackBadModule); err == nil {
		t.Fatal("assembled a module with an unknown mnemonic")
	}
	if got := v.NumTypes(); got != nt {
		t.Errorf("types after rejected assembly: %d, want %d", got, nt)
	}
	if got := v.NumMethods(); got != nm {
		t.Errorf("methods after rejected assembly: %d, want %d", got, nm)
	}
	if got := v.NumGlobals(); got != ng {
		t.Errorf("globals after rejected assembly: %d, want %d", got, ng)
	}
	if _, ok := v.TypeByName("Pair"); ok {
		t.Error("rejected module's class Pair still registered")
	}
	if _, ok := v.GlobalIndex("counter"); ok {
		t.Error("rejected module's global counter still registered")
	}
	if _, ok := v.MethodByName("main"); ok {
		t.Error("rejected module's main still registered")
	}

	// The same names must now assemble cleanly, and the module must run.
	mod, err := v.AssembleModule(rollbackGoodModule)
	if err != nil {
		t.Fatalf("corrected module failed to assemble: %v", err)
	}
	v.WithThread("t", func(th *Thread) {
		res, err := th.Call(mod.Main)
		if err != nil {
			t.Fatalf("corrected main: %v", err)
		}
		if res.Int() != 42 {
			t.Fatalf("corrected main returned %d, want 42", res.Int())
		}
	})
}

// TestRollbackRestoresVTableOverride covers detaching a post-mark
// method from a pre-existing (surviving) owner type: the vtable slot
// must fall back to the inherited implementation.
func TestRollbackRestoresVTableOverride(t *testing.T) {
	v := testVM(t)
	base := v.MustNewClass("RbBase", nil, nil)
	bm := v.AddMethod(base, &Method{Name: "f", Virtual: true,
		NArgs: 1, Code: []byte{byte(OpRet)}})
	sub := v.MustNewClass("RbSub", base, nil)

	mark := v.Mark()
	om := v.AddMethod(sub, &Method{Name: "f", Virtual: true,
		NArgs: 1, Code: []byte{byte(OpRet)}})
	if got := lookupVSlot(sub, bm.VSlot); got != om {
		t.Fatal("override not installed")
	}
	v.RollbackRegistry(mark)

	if got := v.NumMethods(); got != bm.Index+1 {
		t.Errorf("methods after rollback: %d, want %d", got, bm.Index+1)
	}
	if got := lookupVSlot(sub, bm.VSlot); got != bm {
		t.Errorf("sub vtable slot %d resolves to %v, want the inherited base method", bm.VSlot, got)
	}
	if len(sub.Methods) != 0 {
		t.Errorf("sub.Methods = %v, want empty after rollback", sub.Methods)
	}
}
