package vm_test

// Masm-level differential execution: modules assembled and verified
// exactly as Rank.Load does it, run on the quickened loop (with the
// verifier's facts spent) and on the reference interpreter
// (refinterp_test.go, reached through RefCall), which must agree on
// result, stdout and trap identity. The corpus is bcverify's valid
// modules and kernels and testdata/folds (the folded operands and
// rotated latches of the lowering, some of them malformed), each run
// verified and as -noverify loads it. bcverify's own tests hold the
// lowering with facts against the fact-free one; they cannot see the
// reference.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"motor/internal/core"
	"motor/internal/vm"
	"motor/internal/vm/bcverify"
)

type masmOutcome struct {
	ran  bool
	val  vm.Value
	err  string
	trap vm.Trap
	out  string
}

// execMasm assembles and verifies src on a fresh VM with the System.MP
// surface stubbed and a deterministic clock, then runs main on the
// reference interpreter or through Thread.Call. Unless verify is set it
// skips the verifier, as -noverify does: every method is lowered
// without facts. ran is false when the source does not assemble or
// verify, or has no main to run.
func execMasm(src string, ref, verify bool, budget int64) masmOutcome {
	var buf bytes.Buffer
	v := vm.New(vm.Config{Name: "diff", Stdout: &buf,
		Heap: vm.HeapConfig{YoungSize: 64 << 10, InitialElder: 256 << 10, ArenaMax: 32 << 20}})
	defer v.Close()
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
		return masmOutcome{}
	}
	if verify {
		if _, err := bcverify.VerifyModule(v, mod.Methods, bcverify.Options{Sigs: core.Signatures()}); err != nil {
			return masmOutcome{}
		}
	}
	if mod.Main == nil || mod.Main.NArgs != 0 {
		return masmOutcome{}
	}
	o := masmOutcome{ran: true}
	v.WithThread("t", func(th *vm.Thread) {
		th.SetStepBudget(budget)
		var cerr error
		if ref {
			o.val, cerr = th.RefCall(mod.Main)
		} else {
			o.val, cerr = th.Call(mod.Main)
		}
		if cerr != nil {
			o.err = cerr.Error()
			var trap *vm.Trap
			if errors.As(cerr, &trap) {
				o.trap = *trap
			}
		}
	})
	o.out = buf.String()
	return o
}

// diffMasm fails unless src runs identically on both; it reports
// whether there was a main to run.
func diffMasm(t *testing.T, src string, budget int64) bool {
	t.Helper()
	return diffMasmAs(t, src, true, budget)
}

// diffMasmAs is diffMasm, verified or not. A Go runtime panic in
// malformed code traps at the last committed pc on the quickened loop
// and at the faulting instruction on the reference (refinterp_test.go):
// a module that reaches one names the former in a "; committed pc: N"
// line, and the two runs must agree on everything else.
func diffMasmAs(t *testing.T, src string, verify bool, budget int64) bool {
	t.Helper()
	q, r := execMasm(src, false, verify, budget), execMasm(src, true, verify, budget)
	if pc, ok := committedPC(src); ok && q.ran {
		if q.trap.Kind != "invalid program" || q.trap.PC != pc {
			t.Fatalf("quickened run %+v, want an invalid program trap at the committed pc %d", q, pc)
		}
		q.trap.PC, q.err = r.trap.PC, r.err
	}
	if q != r {
		t.Fatalf("quickened and reference runs diverge:\nquickened: %+v\nreference: %+v\nsource:\n%s", q, r, src)
	}
	return q.ran
}

// committedPC reads a module's "; committed pc: N" line.
func committedPC(src string) (int, bool) {
	for _, line := range strings.Split(src, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "; committed pc:"); ok {
			pc, err := strconv.Atoi(strings.TrimSpace(rest))
			return pc, err == nil
		}
	}
	return 0, false
}

// TestMasmCorpusDifferential runs every corpus module on both, verified
// and not. Most valid-corpus modules hit the mp.* stubs and stop with
// the stub error, which must still be byte-identical.
func TestMasmCorpusDifferential(t *testing.T) {
	for _, dir := range []string{"bcverify/testdata/valid", "bcverify/testdata/kernels", "testdata/folds"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.masm"))
		if err != nil {
			t.Fatal(err)
		}
		for _, verify := range []bool{true, false} {
			prefix := filepath.Base(dir) + "/"
			if !verify {
				prefix = "noverify/" + prefix
			}
			ran := 0
			for _, path := range paths {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(prefix+strings.TrimSuffix(filepath.Base(path), ".masm"), func(t *testing.T) {
					if diffMasmAs(t, string(raw), verify, 200_000) {
						ran++
					}
				})
			}
			if ran == 0 {
				t.Fatalf("no module under %s had a runnable main", dir)
			}
		}
	}
}

// FuzzQuickenMasm executes every source that assembles and verifies on
// both, which must agree on result, stdout and trap identity: the
// load-path contract that quickening never changes the observable
// behaviour of verified code. Its seed corpus is FuzzVerifyMasm's.
func FuzzQuickenMasm(f *testing.F) {
	f.Add(".method main (0) void\n  ret\n.end")
	f.Add(".method main (0) int32\n  ldc.i4 3\n  ret.val\n.end")
	f.Add(".method main (0) void\n  add\n  ret\n.end")
	f.Add(".method main (0) void\n.locals 1\n  ldloc 0\n  pop\n  ret\n.end")
	f.Add(".class C\n.field int32 x\n.end\n.method main (0) void\n  newobj C\n  pop\n  ret\n.end")
	// Seeds that reach the execution comparison, including a fused
	// loop, a conv.f2i edge and a trap path.
	f.Add(".method main (0) int32\n.locals 1\n  ldc.i4 0\n  stloc 0\nl:\n  ldloc 0\n  ldc.i4 1\n  add\n  stloc 0\n  ldloc 0\n  ldc.i4 9\n  clt\n  brtrue l\n  ldloc 0\n  ret.val\n.end")
	f.Add(".method main (0) int32\n  ldc.r8 1e300\n  conv.f2i\n  ret.val\n.end")
	f.Add(".method main (0) int32\n  ldc.i4 1\n  ldc.i4 0\n  div\n  ret.val\n.end")
	f.Fuzz(func(t *testing.T, src string) { diffMasm(t, src, 100_000) })
}
