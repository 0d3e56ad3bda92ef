package bcverify_test

// Smoke tests for the abstract interpreter core, independent of the
// Motor engine signatures (those are exercised by corpus_test.go).

import (
	"strings"
	"testing"

	"motor/internal/vm"
	"motor/internal/vm/bcverify"
)

func assembleModule(t *testing.T, src string) (*vm.VM, *vm.Module) {
	t.Helper()
	v := newVM(t, vm.Config{})
	mod, err := v.AssembleModule(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return v, mod
}

func TestVerifyValidModule(t *testing.T) {
	v, mod := assembleModule(t, `
.method main (0) void
.locals 2
    ldc.i4 10
    stloc 0
    ldc.i4 0
    stloc 1
loop:
    ldloc 1
    ldloc 0
    ceq
    brtrue done
    ldloc 1
    intern console.writei
    intern console.newline
    ldloc 1
    ldc.i4 1
    add
    stloc 1
    br loop
done:
    ret
.end
`)
	stats, err := bcverify.VerifyModule(v, mod.Methods, bcverify.Options{})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if stats.Methods != 1 || stats.Insts == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if !mod.Main.Verified || !mod.Main.TransportVerified {
		t.Fatalf("flags not set: %+v", mod.Main)
	}
}

func TestVerifyRejects(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"underflow", ".method main (0) void\n    add\n    ret\n.end\n", "stack underflow"},
		{"uninit-local", ".method main (0) void\n.locals 1\n    ldloc 0\n    pop\n    ret\n.end\n", "before initialization"},
		{"fallthrough-valued", ".method f (0) int64\n    ldc.i4 1\n    pop\n.end\n.method main (0) void\n    ret\n.end\n", "falls off the end"},
		{"ret-nonempty", ".method main (0) void\n    ldc.i4 1\n    ret\n.end\n", "stack not empty"},
		{"merge-confusion", `
.method main (0) void
.locals 1
    ldc.i4 1
    brtrue a
    ldc.r8 1.5
    br join
a:
    ldc.i4 7
join:
    pop
    ret
.end
`, "type confusion on merge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, mod := assembleModule(t, tc.src)
			_, err := bcverify.VerifyModule(v, mod.Methods, bcverify.Options{})
			if err == nil {
				t.Fatalf("verified, want rejection containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			var ve *bcverify.Error
			if !errorsAs(err, &ve) {
				t.Fatalf("err %T is not *bcverify.Error", err)
			}
		})
	}
}

func errorsAs(err error, target **bcverify.Error) bool {
	e, ok := err.(*bcverify.Error)
	if ok {
		*target = e
	}
	return ok
}

// TestBuiltinSigsCoverRegistry walks every console/sys/gc internal a
// fresh VM registers and requires a BuiltinSigs entry with the same
// arity and return kind, so a module calling only builtins can always
// be proven transport-safe.
func TestBuiltinSigsCoverRegistry(t *testing.T) {
	reg := newVM(t, vm.Config{})
	sigs := bcverify.BuiltinSigs()
	for i := 0; ; i++ {
		f, ok := reg.InternalByIndex(i)
		if !ok {
			break
		}
		prefix, _, _ := strings.Cut(f.Name, ".")
		if prefix != "console" && prefix != "sys" && prefix != "gc" {
			continue
		}
		s, ok := sigs[f.Name]
		switch {
		case !ok:
			t.Errorf("%s: registered, but BuiltinSigs has no entry", f.Name)
		case s.NArgs != f.NArgs:
			t.Errorf("%s: BuiltinSigs arity %d, registry %d", f.Name, s.NArgs, f.NArgs)
		case (s.Ret != vm.KindVoid) != f.HasRet:
			t.Errorf("%s: BuiltinSigs returns %v, registry HasRet=%v", f.Name, s.Ret, f.HasRet)
		}
	}

	// The GC control calls return an int (gc.workers) and collect
	// (gc.compact); a method using them is transport-safe.
	v, mod := assembleModule(t, `
.method main (0) int64
    intern gc.compact
    intern gc.workers
    ret.val
.end
`)
	if _, err := bcverify.VerifyModule(v, mod.Methods, bcverify.Options{}); err != nil {
		t.Fatal(err)
	}
	if !mod.Main.TransportVerified {
		t.Error("a method calling only gc builtins is not TransportVerified")
	}
}
