//go:build !race

package vm

import (
	"fmt"
	"runtime"
	"testing"
)

// TestAllocsScavenge: a forced scavenge that evacuates a small live
// graph (a global holding a young object that holds another) allocates
// no Go objects: its forwarding state, scan stack, remembered set,
// thread snapshot, resolver and pin set are the Heap's and the VM's,
// reused.
func TestAllocsScavenge(t *testing.T) {
	v := testVM(t)
	node := v.MustNewClass("Node", nil, []FieldSpec{{Name: "next", Kind: KindRef}})
	g := v.AddGlobal("allocs.root")
	v.WithThread("t", func(th *Thread) {
		step := func() {
			a, err := v.Heap.AllocClass(node)
			if err != nil {
				t.Fatal(err)
			}
			b, err := v.Heap.AllocClass(node)
			if err != nil {
				t.Fatal(err)
			}
			v.Heap.storeField(a, &node.Fields[0], RefValue(b))
			v.SetGlobal(g, RefValue(a))
			th.CollectYoung()
		}
		step()
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
			t.Errorf("%.1f Go allocations per scavenge, want 0", allocs)
		}
	})
}

// TestAllocsCompaction: a compacting full collection over a chain of
// n live objects, with promoted garbage between them, allocates no Go
// memory per live object: the plan lives in the objects' headers, the
// mark stacks and bitmap are the Heap's, and the free list is rebuilt
// in place. What remains is per collection (worker goroutines, the
// range sort), the same at both sizes.
func TestAllocsCompaction(t *testing.T) {
	for _, n := range []int{1000, 64000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			v := closing(t, New(Config{Name: "compact", Heap: HeapConfig{
				YoungSize: 1 << 20, InitialElder: 1 << 20, ArenaMax: 64 << 20, GCWorkers: 4,
			}}))
			node := nodeClass(v)
			fData, fNext := node.FieldByName("data"), node.FieldByName("next")
			ints := v.ArrayType(KindInt32, nil, 1)
			g := v.AddGlobal("compact.head")
			v.WithThread("t", func(th *Thread) {
				h := v.Heap
				for i := 0; i < n; i++ {
					a, err := h.AllocClass(node)
					if err != nil {
						t.Fatal(err)
					}
					h.SetRef(a, fNext, Ref(v.GetGlobal(g).Bits))
					v.SetGlobal(g, RefValue(a))
					junk, err := h.AllocArray(ints, 4)
					if err != nil {
						t.Fatal(err)
					}
					h.SetRef(Ref(v.GetGlobal(g).Bits), fData, junk)
				}
				// Promote the chain with its junk interleaved, warm the
				// collector's reused state, then drop the junk.
				th.CollectFull()
				for r := Ref(v.GetGlobal(g).Bits); r != NullRef; r = h.GetRef(r, fNext) {
					h.SetRef(r, fData, NullRef)
				}
				before := h.Stats.Snapshot()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				th.CollectCompact()
				runtime.ReadMemStats(&m1)
				after := h.Stats.Snapshot()
				if after.Compactions != before.Compactions+1 || after.BytesCompacted == before.BytesCompacted {
					t.Fatalf("the collection did not compact: %+v", after)
				}
				bytes, objs := m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
				t.Logf("n=%d: %d B in %d Go objects", n, bytes, objs)
				if bytes >= 4<<10 {
					t.Errorf("n=%d: a compacting collection allocated %d B in %d Go objects, want under 4 KiB", n, bytes, objs)
				}
				if err := h.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
