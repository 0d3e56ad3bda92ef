package bcverify_test

// Corpus-driven verifier tests.
//
// testdata/invalid holds modules the verifier must reject; the first
// "; expect: <substring>" comment names the diagnostic. testdata/valid
// holds modules that must verify cleanly (and, unless the module says
// otherwise, prove every method transport-safe). Both assemble against
// a bare VM with the System.MP surface stubbed in, exactly like
// `motor -mode check`.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"motor/internal/core"
	"motor/internal/vm"
	"motor/internal/vm/bcverify"
)

func corpusFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", dir, "*.masm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no corpus files under testdata/%s", dir)
	}
	return files
}

// expectMarker extracts the "; expect: ..." diagnostic substring.
func expectMarker(t *testing.T, src string) string {
	t.Helper()
	for _, line := range strings.Split(src, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "; expect:"); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatal("corpus file has no '; expect:' marker")
	return ""
}

func verifyCorpusModule(t *testing.T, src string) (*vm.Module, bcverify.Stats, error) {
	t.Helper()
	v := newVM(t, vm.Config{})
	core.RegisterVerifyStubs(v)
	mod, err := v.AssembleModule(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	stats, verr := bcverify.VerifyModule(v, mod.Methods, bcverify.Options{Sigs: core.Signatures()})
	return mod, stats, verr
}

func TestInvalidCorpusRejected(t *testing.T) {
	files := corpusFiles(t, "invalid")
	if len(files) < 15 {
		t.Fatalf("invalid corpus has %d modules, want >= 15", len(files))
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := expectMarker(t, string(raw))
			_, _, verr := verifyCorpusModule(t, string(raw))
			if verr == nil {
				t.Fatalf("verified, want rejection containing %q", want)
			}
			ve, ok := verr.(*bcverify.Error)
			if !ok {
				t.Fatalf("rejection %v (%T) is not *bcverify.Error", verr, verr)
			}
			if !strings.Contains(ve.Error(), want) {
				t.Fatalf("rejection %q does not contain %q", ve.Error(), want)
			}
			// Diagnostics must locate the failure: a method name always,
			// and for instruction-level errors a masm source line.
			if ve.Method == "" {
				t.Errorf("rejection has no method name: %v", ve)
			}
			if ve.Inst >= 0 && ve.Line <= 0 {
				t.Errorf("instruction-level rejection has no source line: %v", ve)
			}
		})
	}
}

func TestValidCorpusVerifies(t *testing.T) {
	for _, path := range corpusFiles(t, "valid") {
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mod, stats, verr := verifyCorpusModule(t, string(raw))
			if verr != nil {
				t.Fatalf("verify: %v", verr)
			}
			if stats.Methods != len(mod.Methods) {
				t.Errorf("verified %d of %d methods", stats.Methods, len(mod.Methods))
			}
			for _, m := range mod.Methods {
				if !m.Verified {
					t.Errorf("%s not flagged Verified", m.FullName())
				}
			}
		})
	}
}

// TestValidCorpusTransferability pins down the static transferability
// judgment per module: every method provable except where the module
// is specifically about keeping the dynamic check.
func TestValidCorpusTransferability(t *testing.T) {
	wantDynamic := map[string]bool{
		// sendit's buffer arrives as an untyped argument.
		"unknown-buffer-dynamic.masm": true,
		// A superclass join is an upper bound, not an exact type.
		"join-keeps-dynamic.masm": true,
		// A field's declared class is an upper bound, not an exact type.
		"field-load-keeps-dynamic.masm": true,
	}
	for _, path := range corpusFiles(t, "valid") {
		base := filepath.Base(path)
		t.Run(base, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mod, stats, verr := verifyCorpusModule(t, string(raw))
			if verr != nil {
				t.Fatalf("verify: %v", verr)
			}
			if wantDynamic[base] {
				if stats.Transportable == len(mod.Methods) {
					t.Errorf("all %d methods proven transportable, expected at least one dynamic", len(mod.Methods))
				}
			} else if stats.Transportable != len(mod.Methods) {
				for _, m := range mod.Methods {
					if !m.TransportVerified {
						t.Errorf("%s not proven transport-safe", m.FullName())
					}
				}
			}
		})
	}
}
