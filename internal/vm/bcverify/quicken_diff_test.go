package bcverify_test

// End-to-end quickening tests at the masm level: the verifier's fact
// collection feeding vm.QuickenMethod, and the differential property
// that spending those facts changes nothing observable — a module run
// verified (the lowering with facts) and the same module run unverified
// (the fact-free lowering, what -noverify runs) agree on results,
// stdout and traps — over the valid corpus and the kernels. That the
// lowering with facts matches the reference interpreter is checked in
// package vm (masm_diff_test.go), which can see it.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"motor/internal/core"
	"motor/internal/vm"
	"motor/internal/vm/bcverify"
)

// TestFactsFromAllocationSite: a receiver flowing straight from
// newobj carries an exact-type fact at its field accesses, and the
// store's value category is recorded as checked.
func TestFactsFromAllocationSite(t *testing.T) {
	src := `
.class P
  .field int32 x
.end
.method main (0) int32
  .locals 1
  newobj P
  stloc 0
  ldloc 0
  ldc.i4 5
  stfld P.x
  ldloc 0
  ldfld P.x
  ret.val
.end
`
	mod, _, verr := verifyCorpusModule(t, src)
	if verr != nil {
		t.Fatal(verr)
	}
	var main *vm.Method
	for _, m := range mod.Methods {
		if m.Name == "main" {
			main = m
		}
	}
	if main == nil || main.Facts == nil {
		t.Fatalf("main has no facts")
	}
	if len(main.Facts) != 2 {
		t.Fatalf("facts = %v, want exactly the stfld and the ldfld", main.Facts)
	}
	var checked int
	for pc, f := range main.Facts {
		if f.ExactType == 0 {
			t.Errorf("fact at pc=%d has no exact type", pc)
		}
		if f.StoreChecked {
			checked++
		}
	}
	if checked != 1 {
		t.Errorf("%d store-checked facts, want 1 (the stfld)", checked)
	}
}

// TestFactsNotFromUpperBound: a receiver read back out of a field has
// a declared class (an upper bound) but no allocation-site exactness —
// no fact may be recorded, so quickening keeps dynamic dispatch.
func TestFactsNotFromUpperBound(t *testing.T) {
	src := `
.class Q
  .field int32 x
.end
.class Holder
  .field Q q
.end
.method main (0) int32
  .locals 1
  newobj Holder
  stloc 0
  ldloc 0
  ldfld Holder.q
  ldfld Q.x
  ret.val
.end
`
	mod, _, verr := verifyCorpusModule(t, src)
	if verr != nil {
		t.Fatal(verr)
	}
	for _, m := range mod.Methods {
		if m.Name != "main" {
			continue
		}
		// The first ldfld's receiver (the Holder) IS exact; the second
		// ldfld's receiver (the loaded Q) must not be.
		exact := 0
		for _, f := range m.Facts {
			if f.ExactType != 0 {
				exact++
			}
		}
		if exact != 1 {
			t.Fatalf("facts = %v, want exactly one exact receiver (the Holder)", m.Facts)
		}
	}
}

// --- masm-level differential execution -------------------------------------

type masmOutcome struct {
	val vm.Value
	err error
	out string
}

// execModule assembles src on a fresh VM with the System.MP surface
// stubbed and a deterministic clock, mirroring the `motor -mode check`
// environment plus execution, verifies it when verify is set, and runs
// main. It reports false when there is no main to run.
func execModule(t *testing.T, src string, verify bool) (masmOutcome, bool) {
	t.Helper()
	var buf bytes.Buffer
	v := newVM(t, vm.Config{Name: "diff", Stdout: &buf,
		Heap: vm.HeapConfig{YoungSize: 64 << 10, InitialElder: 256 << 10, ArenaMax: 32 << 20}})
	core.RegisterVerifyStubs(v)
	// sys.ticks is wall-clock; re-point it at a counter so two runs of
	// the same module cannot diverge through time.
	ticks := int64(0)
	v.RegisterInternal(vm.InternalFunc{
		Name: "sys.ticks", NArgs: 0, HasRet: true,
		Fn: func(t *vm.Thread, args []vm.Value) (vm.Value, error) {
			ticks++
			return vm.IntValue(ticks), nil
		},
	})
	mod, err := v.AssembleModule(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if verify {
		if _, verr := bcverify.VerifyModule(v, mod.Methods, bcverify.Options{Sigs: core.Signatures()}); verr != nil {
			t.Fatalf("verify: %v", verr)
		}
	}
	if mod.Main == nil || mod.Main.NArgs != 0 {
		return masmOutcome{}, false
	}
	o := masmOutcome{}
	v.WithThread("t", func(th *vm.Thread) {
		th.SetStepBudget(200_000)
		o.val, o.err = th.Call(mod.Main)
	})
	o.out = buf.String()
	return o, true
}

// diffModule runs src verified and unverified and fails on any
// observable divergence; it reports whether a main existed to run.
func diffModule(t *testing.T, src string) bool {
	t.Helper()
	f, ran := execModule(t, src, true)
	if !ran {
		return false
	}
	u, _ := execModule(t, src, false)
	if f.val != u.val {
		t.Errorf("verified value %+v, unverified %+v", f.val, u.val)
	}
	if f.out != u.out {
		t.Errorf("verified stdout %q, unverified %q", f.out, u.out)
	}
	switch {
	case (f.err == nil) != (u.err == nil):
		t.Errorf("verified err %v, unverified err %v", f.err, u.err)
	case f.err != nil:
		var ft, ut *vm.Trap
		fTrap, uTrap := errors.As(f.err, &ft), errors.As(u.err, &ut)
		if fTrap != uTrap {
			t.Errorf("verified err %v (%T), unverified %v (%T)", f.err, f.err, u.err, u.err)
		} else if fTrap && *ft != *ut {
			t.Errorf("verified trap %+v, unverified trap %+v", *ft, *ut)
		} else if !fTrap && f.err.Error() != u.err.Error() {
			t.Errorf("verified err %q, unverified err %q", f.err, u.err)
		}
	}
	return true
}

// TestQuickenValidCorpusDifferential executes every valid-corpus
// module verified and unverified. Most of them hit the mp.* stubs and
// stop with the stub error — which must still be byte-identical.
func TestQuickenValidCorpusDifferential(t *testing.T) {
	ran := 0
	for _, path := range corpusFiles(t, "valid") {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			if diffModule(t, string(raw)) {
				ran++
			}
		})
	}
	if ran == 0 {
		t.Fatal("no valid-corpus module had a runnable main")
	}
}

// TestQuickenMasmDevirt: the full pipeline — assemble, verify (facts),
// quicken — devirtualizes an allocation-site virtual call, computes
// 49, and agrees with the fact-free lowering.
func TestQuickenMasmDevirt(t *testing.T) {
	raw, err := os.ReadFile("testdata/kernels/devirt.masm")
	if err != nil {
		t.Fatal(err)
	}
	v := newVM(t, vm.Config{})
	mod, err := v.AssembleModule(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bcverify.VerifyModule(v, mod.Methods, bcverify.Options{}); err != nil {
		t.Fatal(err)
	}
	devirted := 0
	for _, m := range mod.Methods {
		devirted += v.QuickenMethod(m).Devirted
	}
	if devirted != 1 {
		t.Errorf("Devirted = %d, want 1 (the allocation-site callvirt)", devirted)
	}
	if got, ok := execModule(t, string(raw), true); !ok || got.err != nil || got.val.Int() != 49 {
		t.Fatalf("main = %v, %v; want 49", got.val, got.err)
	}
	diffModule(t, string(raw))
}

// TestQuickenMasmKernels: compute-bound masm kernels agree verified and
// unverified, including console output and conv.f2i rounding.
func TestQuickenMasmKernels(t *testing.T) {
	for _, path := range corpusFiles(t, "kernels") {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(strings.TrimSuffix(filepath.Base(path), ".masm"), func(t *testing.T) {
			if !diffModule(t, string(raw)) {
				t.Fatal("kernel did not run")
			}
		})
	}
}
