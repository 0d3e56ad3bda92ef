package core

import (
	"fmt"
	"testing"

	"motor/internal/mp"
	"motor/internal/vm"
)

// quickenTestSrc is a module with an allocation-site exact receiver
// so the cached verdict carries non-trivial quickening facts.
const quickenTestSrc = `
.class Pair
  .field int32 a
  .field int32 b
.end
.method main (0) int32
  .locals 1
  newobj Pair
  stloc 0
  ldloc 0
  ldc.i4 20
  stfld Pair.a
  ldloc 0
  ldc.i4 22
  stfld Pair.b
  ldloc 0
  ldfld Pair.a
  ldloc 0
  ldfld Pair.b
  add
  ret.val
.end
`

// loadAndRun assembles, cache-verifies, quickens and executes the
// module on one rank, returning main's result.
func loadAndRun(r *rank, src string) (int64, error) {
	mod, err := r.v.AssembleModule(src)
	if err != nil {
		return 0, err
	}
	if err := r.e.VerifyModuleCached(src, mod.Methods); err != nil {
		return 0, err
	}
	r.e.QuickenModule(mod.Methods)
	for _, m := range mod.Methods {
		if !m.Quickened() {
			return 0, fmt.Errorf("%s: verified method not quickened", m.FullName())
		}
	}
	val, err := r.th.Call(mod.Main)
	if err != nil {
		return 0, err
	}
	return val.Int(), nil
}

// TestVerdictCacheAcrossRanks is the cache's reason to exist: N ranks
// with identical registration histories load the same module; the
// first pays the verifier fixpoint, the siblings hit the cache, and
// every rank's quickened execution (driven by the cached facts) still
// computes the right answer.
func TestVerdictCacheAcrossRanks(t *testing.T) {
	FlushVerdictCache()
	hits, misses := make(chan uint64, 4), make(chan uint64, 4)
	runRanks(t, 4, nil, func(r *rank) error {
		got, err := loadAndRun(r, quickenTestSrc)
		if err != nil {
			return err
		}
		if got != 42 {
			return fmt.Errorf("main = %d, want 42", got)
		}
		st := r.e.Quicken.Snapshot()
		if st.Methods == 0 {
			return fmt.Errorf("no methods quickened")
		}
		hits <- st.VerifyCacheHits
		misses <- st.VerifyCacheMisses
		return nil
	})
	var h, m uint64
	for i := 0; i < 4; i++ {
		h += <-hits
		m += <-misses
	}
	// Ranks race to the first load, so at least one miss fills the
	// cache and at least one sibling must have reused it; exactly one
	// miss in the common (serialized enough) case.
	if m == 0 || h == 0 || h+m != 4 {
		t.Fatalf("hits=%d misses=%d, want them to sum to 4 with both nonzero", h, m)
	}
}

// TestVerdictCacheFingerprintMiss: the same source against a VM with a
// divergent registry (an extra class shifts type indices) must not hit
// the cached verdict — its facts would bake wrong layouts.
func TestVerdictCacheFingerprintMiss(t *testing.T) {
	FlushVerdictCache()
	run := func(diverge bool) (uint64, uint64) {
		var hits, misses uint64
		worlds, err := mp.NewLocalWorlds(mp.ChannelShm, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		w := worlds[0]
		defer w.Close()
		v := vm.New(vm.Config{Name: "fp",
			Heap: vm.HeapConfig{YoungSize: 64 << 10, InitialElder: 512 << 10, ArenaMax: 64 << 20}})
		defer v.Close()
		if diverge {
			v.MustNewClass("Divergence", nil, []vm.FieldSpec{{Name: "x", Kind: vm.KindInt64}})
		}
		e := Attach(v, w)
		th := v.StartThread("main")
		defer th.End()
		if _, err := loadAndRun(&rank{v: v, e: e, th: th}, quickenTestSrc); err != nil {
			t.Fatal(err)
		}
		st := e.Quicken.Snapshot()
		hits, misses = st.VerifyCacheHits, st.VerifyCacheMisses
		e.Close()
		return hits, misses
	}
	if _, m := run(false); m != 1 {
		t.Fatalf("first load: misses = %d, want 1", m)
	}
	if h, m := run(true); h != 0 || m != 1 {
		t.Fatalf("divergent registry: hits=%d misses=%d, want 0/1 (fingerprint must differ)", h, m)
	}
	if h, m := run(false); h != 1 || m != 0 {
		t.Fatalf("matching registry: hits=%d misses=%d, want 1/0", h, m)
	}
	FlushVerdictCache()
	if h, m := run(false); h != 0 || m != 1 {
		t.Fatalf("after flush: hits=%d misses=%d, want 0/1", h, m)
	}
}
