//go:build !race

package serial

import (
	"testing"
)

// TestAllocsSerializeStreamPendingQueue: the one-shot SerializeStream
// builds fresh writer state each call, so its allocations may grow
// with the logarithm of the object count (slice and table doubling),
// never once per object. A queue that loses its capacity on every pop
// re-grows about once per object emitted. Excluded under -race, whose
// instrumentation allocates on its own.
func TestAllocsSerializeStreamPendingQueue(t *testing.T) {
	modeName := map[VisitedMode]string{VisitedLinear: "linear", VisitedMap: "table"}
	for _, mode := range []VisitedMode{VisitedLinear, VisitedMap} {
		var allocs [2]float64
		for i, cells := range []int{16, 256} {
			v := newVM(t)
			head := buildList(v, linkedArrayTypes(v), cells, 4)
			buf, err := SerializeStream(v.Heap, head, Options{Visited: mode}, nil)
			if err != nil {
				t.Fatal(err)
			}
			allocs[i] = testing.AllocsPerRun(20, func() {
				buf, err = SerializeStream(v.Heap, head, Options{Visited: mode}, buf[:0])
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("%s: %.0f allocs at 16 cells, %.0f at 256", modeName[mode], allocs[0], allocs[1])
		if allocs[1] > allocs[0]+16 {
			t.Errorf("%s: %.0f allocs at 16 cells but %.0f at 256: the writer allocates per object", modeName[mode], allocs[0], allocs[1])
		}
	}
}
