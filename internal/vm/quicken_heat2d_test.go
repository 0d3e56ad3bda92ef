package vm

import (
	"os"
	"testing"
)

// The benchmark's heat2d workload, read from disk, is the program the
// element-access quickening exists for. These tests pin the shape the
// quickener gives its relax loop; nothing under benchmark/ changes.

// loadHeat2d assembles benchmark/workloads/heat2d.masm on a fresh VM
// with the three mp.* internals it names stubbed (rank 0, no peer: the
// halo rows stay zero), quickens every method, and runs setup on a
// rows x cols band.
func loadHeat2d(tb testing.TB, rows, cols int) *VM {
	tb.Helper()
	src, err := os.ReadFile("../../benchmark/workloads/heat2d.masm")
	if err != nil {
		tb.Fatal(err)
	}
	v := New(Config{Name: "heat2d"})
	for _, fn := range []InternalFunc{
		{Name: "mp.rank", NArgs: 0, HasRet: true},
		{Name: "mp.sendrecv", NArgs: 6, HasRet: true},
		{Name: "mp.allreduce", NArgs: 3, HasRet: false},
	} {
		fn.Fn = func(*Thread, []Value) (Value, error) { return IntValue(0), nil }
		v.RegisterInternal(fn)
	}
	mod, err := v.AssembleModule(string(src))
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range mod.Methods {
		m.Verified, m.MaxStack = true, 16
		v.QuickenMethod(m)
	}
	init := make([]float64, (rows+2)*cols)
	for i := range init {
		init[i] = float64(i%17) * 0.5
	}
	v.WithThread("setup", func(th *Thread) {
		arr, err := v.Heap.NewFloat64Array(init)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := th.Call(heat2dMethod(tb, v, "setup"), RefValue(arr), IntValue(int64(rows)), IntValue(int64(cols))); err != nil {
			tb.Fatal(err)
		}
	})
	return v
}

func heat2dMethod(tb testing.TB, v *VM, name string) *Method {
	tb.Helper()
	m, ok := v.MethodByName(name)
	if !ok {
		tb.Fatalf("heat2d.masm has no method %s", name)
	}
	return m
}

// TestQuickenHeat2dRelaxLoop: the relax inner loop is at most 18
// quickened dispatches per cell (34 before the fused array loads), and
// every one of its five element sites holds float64[] in its layout
// cache once the first cell has been relaxed — so every later cell is
// a hit.
func TestQuickenHeat2dRelaxLoop(t *testing.T) {
	// rows=3 on rank 0 updates rows 2..3; cols=3 leaves one interior
	// cell per row: the first call runs the inner loop body twice.
	v := loadHeat2d(t, 3, 3)
	relax := heat2dMethod(t, v, "relax")
	info := mustQuicken(t, v, relax)
	insts := relax.quick.insts
	// QuickenInfo.Fused (mpstat's quicken line) counts the new form.
	super := 0
	for _, q := range insts {
		switch q.op {
		case qCmpBr, qIncLoc, qLdElemAt:
			super++
		}
	}
	if info.Fused != super || countQ(relax, qLdElemAt) != 4 {
		t.Errorf("relax: Fused = %d with %d superinstructions in the body, %d of them qLdElemAt; want equal counts and 4",
			info.Fused, super, countQ(relax, qLdElemAt))
	}

	// The inner loop is the back edge with the shortest span.
	lo, hi := 0, len(insts)
	for idx, q := range insts {
		if q.back && idx-int(q.t) < hi-lo {
			lo, hi = int(q.t), idx
		}
	}
	if n := hi - lo + 1; n > 18 {
		t.Errorf("relax inner loop is %d quickened instructions per cell, want <= 18", n)
	}
	sites := elemSites(insts[lo : hi+1])
	if len(sites) != 5 || len(elemSites(insts)) != 5 {
		t.Fatalf("relax has %d element sites, %d of them in the inner loop; want 5 and 5", len(elemSites(insts)), len(sites))
	}
	for _, q := range sites {
		if q.ekey != freeSentinel {
			t.Fatalf("site at pc=%d is seeded before it ran: arrays read from globals carry no exact fact", q.pc2)
		}
	}

	var err error
	v.WithThread("relax", func(th *Thread) { _, err = th.Call(relax) })
	if err != nil {
		t.Fatal(err)
	}
	f64 := v.ArrayType(KindFloat64, nil, 1)
	for _, q := range sites {
		if q.ekey != uint32(f64.Index) || q.ekind != KindFloat64 || q.esize != 8 {
			t.Errorf("site at pc=%d caches type %d kind %s size %d, want %s", q.pc2, q.ekey, q.ekind, q.esize, f64)
		}
	}
}

// BenchmarkHeat2dStep times one whole step (exchange with the mp.*
// internals stubbed, relax, a residual every tenth step, flip) of the
// benchmark's 256-column band, 128 rows per rank, on the quickened
// engine. It is the profile target behind the interpreter table in
// EXPERIMENTS.md; 128*254 cells are relaxed per op.
func BenchmarkHeat2dStep(b *testing.B) {
	v := loadHeat2d(b, 128, 256)
	steps := heat2dMethod(b, v, "steps")
	v.WithThread("steps", func(th *Thread) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := th.Call(steps, IntValue(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
