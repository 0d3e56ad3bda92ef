//go:build !race

package vm

import "testing"

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
