package vm

import (
	"os"
	"path/filepath"
	"testing"
)

// addSeedCorpus feeds every module under testdata/fuzz-seeds into the
// fuzzer. `go test` runs exactly this corpus (no mutation), so the
// targets double as deterministic regression tests in CI.
func addSeedCorpus(f *testing.F) {
	f.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz-seeds", "*.masm"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no fuzz seeds: %v", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
}

// FuzzParseModule asserts the assembler's contract: any input either
// assembles or returns an *AsmError — it never panics and never
// produces a module with a nil method.
func FuzzParseModule(f *testing.F) {
	addSeedCorpus(f)
	f.Add("")
	f.Add(".method main (0) void\n.end")
	f.Add(".class C\n.field int32 x\n.end")
	f.Add(".method m (99999) void\nret\n.end")
	f.Add(".method m (0) NoSuchClass\nret\n.end")
	f.Fuzz(func(t *testing.T, src string) {
		v := closing(t, New(Config{}))
		mod, err := v.AssembleModule(src)
		if err != nil {
			if mod != nil {
				t.Fatalf("error %v with non-nil module", err)
			}
			return
		}
		for i, m := range mod.Methods {
			if m == nil {
				t.Fatalf("method %d is nil", i)
			}
		}
	})
}
