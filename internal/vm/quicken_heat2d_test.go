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
	v := closing(tb, New(Config{Name: "heat2d"}))
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

// innerLoop returns the quickened span one iteration of m's innermost
// loop dispatches: the back edge with the shortest span, entered at its
// target, or for a rotated latch (which runs its head's compare itself)
// at the instruction after the head.
func innerLoop(tb testing.TB, m *Method) (lo, hi int) {
	tb.Helper()
	insts := m.quick.insts
	lo, hi = 0, len(insts)
	for idx, q := range insts {
		from := int(q.t)
		if q.op == qBr && q.b == 1 {
			from++
		}
		if q.back && idx-from < hi-lo {
			lo, hi = from, idx
		}
	}
	if hi == len(insts) {
		tb.Fatalf("%s has no loop", m.FullName())
	}
	return lo, hi
}

// TestQuickenHeat2dRelaxLoop: the relax inner loop is at most 12
// quickened dispatches per cell (34 before the fused array loads, 18
// before operand folding and rotated latches), and every one of its
// five element sites holds float64[] in its layout cache once the first
// cell has been relaxed — so every later cell is a hit.
func TestQuickenHeat2dRelaxLoop(t *testing.T) {
	// rows=3 on rank 0 updates rows 2..3; cols=3 leaves one interior
	// cell per row: the first call runs the inner loop body twice.
	v := loadHeat2d(t, 3, 3)
	relax := heat2dMethod(t, v, "relax")
	info := mustQuicken(t, v, relax)
	insts := relax.quick.insts
	// QuickenInfo.Fused (mpstat's quicken line) counts the new forms.
	super := 0
	for _, q := range insts {
		switch {
		case q.op == qCmpBr, q.op == qIncLoc, q.op == qLdElemAt, q.op.binary() && q.bsrc != 0:
			super++
		}
	}
	if info.Fused != super || countQ(relax, qLdElemAt) != 4 {
		t.Errorf("relax: Fused = %d with %d superinstructions in the body, %d of them qLdElemAt; want equal counts and 4",
			info.Fused, super, countQ(relax, qLdElemAt))
	}

	lo, hi := innerLoop(t, relax)
	if q := insts[hi]; q.op != qBr || q.b != 1 {
		t.Errorf("relax's inner back edge is op %d b=%d, want a rotated latch", q.op, q.b)
	}
	if n := hi - lo + 1; n > 12 {
		t.Errorf("relax inner loop is %d quickened instructions per cell, want <= 12", n)
	} else {
		t.Logf("relax: %d dispatches per cell", n)
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

// TestQuickenOverlapComputeLoop: the compute kernel the benchmark's
// overlap workload hides its transfers behind (read from disk, not
// edited) is at most 8 quickened dispatches per iteration, and agrees
// with the reference.
func TestQuickenOverlapComputeLoop(t *testing.T) {
	v, compute := loadOverlapCompute(t)
	lo, hi := innerLoop(t, compute)
	if n := hi - lo + 1; n > 8 {
		t.Errorf("compute loop is %d quickened instructions per iteration, want <= 8", n)
	} else {
		t.Logf("compute: %d dispatches per iteration", n)
	}
	if got, err := callBoth(t, v, compute, IntValue(1000)); err != nil || got.Float() <= 0 || got.Float() >= 1 {
		t.Fatalf("compute(1000) = %v, %v; want a value in (0, 1)", got.Float(), err)
	}
}

// loadOverlapCompute assembles benchmark/workloads/overlap.masm with the
// mp.* internals it names stubbed and quickens its compute method.
func loadOverlapCompute(tb testing.TB) (*VM, *Method) {
	tb.Helper()
	src, err := os.ReadFile("../../benchmark/workloads/overlap.masm")
	if err != nil {
		tb.Fatal(err)
	}
	v := closing(tb, New(Config{Name: "overlap"}))
	for _, fn := range []InternalFunc{
		{Name: "mp.rank", NArgs: 0, HasRet: true},
		{Name: "mp.irecv", NArgs: 3, HasRet: true},
		{Name: "mp.isend", NArgs: 3, HasRet: true},
		{Name: "mp.wait", NArgs: 1, HasRet: true},
	} {
		fn.Fn = func(*Thread, []Value) (Value, error) { return IntValue(0), nil }
		v.RegisterInternal(fn)
	}
	if _, err := v.AssembleModule(string(src)); err != nil {
		tb.Fatal(err)
	}
	m, ok := v.MethodByName("compute")
	if !ok {
		tb.Fatal("overlap.masm has no method compute")
	}
	m.Verified, m.MaxStack = true, 16
	v.QuickenMethod(m)
	return v, m
}

// BenchmarkOverlapCompute times the overlap workload's compute kernel
// at the benchmark's 400 000 iterations per op on the quickened loop:
// the interpreter half of that workload's op time, and its profile
// target.
func BenchmarkOverlapCompute(b *testing.B) {
	v, compute := loadOverlapCompute(b)
	v.WithThread("compute", func(th *Thread) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := th.Call(compute, IntValue(400_000)); err != nil {
				b.Fatal(err)
			}
		}
	})
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
