package vm

import (
	"math/rand"
	"testing"
)

// gcVM builds a VM with a tiny nursery so collections are frequent.
func gcVM(t testing.TB) *VM {
	return closing(t, New(Config{Name: "gc", Heap: HeapConfig{YoungSize: 16 << 10, InitialElder: 128 << 10, ArenaMax: 64 << 20}}))
}

func TestScavengeForwardsRoots(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		ref, _ := v.Heap.NewInt32Array([]int32{1, 2, 3, 4})
		if !v.Heap.IsYoung(ref) {
			t.Fatal("expected nursery allocation")
		}
		pop := th.VM().Protect(&ref)
		defer pop()
		th.CollectYoung()
		if v.Heap.IsYoung(ref) {
			t.Error("object not promoted")
		}
		if got := v.Heap.Int32Slice(ref); got[0] != 1 || got[3] != 4 {
			t.Errorf("content lost after promotion: %v", got)
		}
	})
}

func TestScavengeCollectsGarbage(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		for i := 0; i < 100; i++ {
			if _, err := v.Heap.NewInt32Array(make([]int32, 16)); err != nil {
				t.Fatal(err)
			}
		}
		before := v.Heap.Stats.BytesPromoted
		th.CollectYoung()
		if v.Heap.Stats.BytesPromoted != before {
			t.Errorf("unreachable objects promoted: %d bytes", v.Heap.Stats.BytesPromoted-before)
		}
		_, used, _ := v.Heap.MemUse()
		if used != 0 {
			t.Errorf("nursery not reset: %d bytes used", used)
		}
	})
}

func TestScavengeForwardsInteriorGraph(t *testing.T) {
	v := gcVM(t)
	node := nodeClass(v)
	fData, fNext := node.FieldByName("data"), node.FieldByName("next")
	v.WithThread("t", func(th *Thread) {
		// head -> mid -> tail, each with a data array.
		var head Ref
		pop := th.VM().Protect(&head)
		defer pop()

		build := func(id int32) Ref {
			n, _ := v.Heap.AllocClass(node)
			protect := th.VM().Protect(&n)
			arr, _ := v.Heap.NewInt32Array([]int32{id, id * 2})
			v.Heap.SetRef(n, fData, arr)
			protect()
			return n
		}
		head = build(1)
		mid := build(2)
		v.Heap.SetRef(head, fNext, mid)
		tail := build(3)
		v.Heap.SetRef(v.Heap.GetRef(head, fNext), fNext, tail)

		th.CollectYoung()

		m := v.Heap.GetRef(head, fNext)
		ta := v.Heap.GetRef(m, fNext)
		if m == NullRef || ta == NullRef {
			t.Fatal("graph broken after scavenge")
		}
		if got := v.Heap.Int32Slice(v.Heap.GetRef(ta, fData)); got[0] != 3 || got[1] != 6 {
			t.Errorf("tail data %v", got)
		}
		if v.Heap.GetRef(ta, fNext) != NullRef {
			t.Error("tail.next should be null")
		}
	})
}

func TestWriteBarrierRemembersElderToYoung(t *testing.T) {
	v := gcVM(t)
	node := nodeClass(v)
	fNext := node.FieldByName("next")
	v.WithThread("t", func(th *Thread) {
		elder, _ := v.Heap.AllocClass(node)
		pop := th.VM().Protect(&elder)
		defer pop()
		th.CollectYoung() // promote elder
		if v.Heap.IsYoung(elder) {
			t.Fatal("not promoted")
		}
		// Young object referenced ONLY from the elder object.
		young, _ := v.Heap.AllocClass(node)
		v.Heap.SetRef(elder, fNext, young)
		young = NullRef // drop the stack reference
		_ = young
		th.CollectYoung()
		got := v.Heap.GetRef(elder, fNext)
		if got == NullRef {
			t.Fatal("young object lost: write barrier failed")
		}
		if v.Heap.IsYoung(got) {
			t.Error("referent not promoted")
		}
		if v.Heap.MT(got) != node {
			t.Error("referent header corrupt")
		}
	})
}

func TestExplicitPinPreventsMovement(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		ref, _ := v.Heap.NewInt32Array([]int32{7, 7, 7})
		if !v.Heap.IsYoung(ref) {
			t.Fatal("want nursery object")
		}
		v.Heap.Pin(ref)
		before := ref
		pop := th.VM().Protect(&ref)
		th.CollectYoung()
		pop()
		if ref != before {
			t.Fatalf("pinned object moved: %#x -> %#x", before, ref)
		}
		if got := v.Heap.Int32Slice(ref); got[0] != 7 {
			t.Errorf("content %v", got)
		}
		// The modern collector (default) segregates the pinned survivor
		// into a dedicated pinned block instead of donating the whole
		// younger block.
		if v.Heap.Stats.PinnedSegregated == 0 {
			t.Error("pinned survivor was not segregated")
		}
		if v.Heap.Stats.BlocksDonated != 0 {
			t.Error("sparse pinned survivor donated the whole block")
		}
		// After segregation the object's address is elder space.
		if v.Heap.IsYoung(ref) {
			t.Error("segregated object still counted young")
		}
		v.Heap.Unpin(ref)
	})
}

func TestExplicitPinDonatesBlockLegacy(t *testing.T) {
	// gcworkers=1 is the exact-legacy collector: one pinned survivor
	// donates the whole younger block (§5.2).
	v := closing(t, New(Config{Heap: HeapConfig{YoungSize: 16 << 10, InitialElder: 128 << 10, ArenaMax: 64 << 20, GCWorkers: 1}}))
	v.WithThread("t", func(th *Thread) {
		ref, _ := v.Heap.NewInt32Array([]int32{7, 7, 7})
		v.Heap.Pin(ref)
		before := ref
		pop := th.VM().Protect(&ref)
		th.CollectYoung()
		pop()
		if ref != before {
			t.Fatalf("pinned object moved: %#x -> %#x", before, ref)
		}
		if v.Heap.Stats.BlocksDonated == 0 {
			t.Error("young block with pinned survivor was not donated")
		}
		if v.Heap.Stats.PinnedSegregated != 0 {
			t.Error("legacy collector segregated")
		}
		if v.Heap.IsYoung(ref) {
			t.Error("donated object still counted young")
		}
		// Donation accounting: live + dead bytes cover the walked block.
		s := v.Heap.Stats.Snapshot()
		if s.DonatedLiveBytes == 0 {
			t.Error("donated pinned survivor not accounted live")
		}
		if s.DonatedDeadBytes == 0 {
			t.Error("donated dead gaps not accounted")
		}
		v.Heap.Unpin(ref)
	})
}

func TestPinIsRootEvenWithoutManagedReference(t *testing.T) {
	// An object being written by a transport must survive even if the
	// managed program dropped all references to it.
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		ref, _ := v.Heap.NewInt32Array([]int32{42})
		v.Heap.Pin(ref)
		th.CollectYoung()
		if !v.Heap.Valid(ref) {
			t.Fatal("pinned object freed")
		}
		if got := v.Heap.Int32Slice(ref); got[0] != 42 {
			t.Errorf("content %v", got)
		}
		v.Heap.Unpin(ref)
	})
}

func TestConditionalPinHeldThenDropped(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		ref, _ := v.Heap.NewInt32Array([]int32{9})
		inFlight := true
		v.Heap.AddCondPin(ref, func() bool { return inFlight })
		before := ref

		// First collection: the operation is in flight, the request
		// pins the object in place.
		th.CollectYoung()
		if !v.Heap.Valid(before) || v.Heap.Int32Slice(before)[0] != 9 {
			t.Fatal("object moved or freed while conditionally pinned")
		}
		if v.Heap.CondPinCount() != 1 {
			t.Fatalf("request dropped early: %d", v.Heap.CondPinCount())
		}
		if v.Heap.Stats.CondPinsHeld != 1 {
			t.Errorf("CondPinsHeld = %d", v.Heap.Stats.CondPinsHeld)
		}

		// Operation completes: the next mark phase discards the
		// request (paper §7.4) and the unreferenced object dies.
		inFlight = false
		th.CollectFull()
		if v.Heap.CondPinCount() != 0 {
			t.Errorf("request not discarded: %d", v.Heap.CondPinCount())
		}
		if v.Heap.Stats.CondPinsDropped != 1 {
			t.Errorf("CondPinsDropped = %d", v.Heap.Stats.CondPinsDropped)
		}
	})
}

func TestFullGCSweepsElderGarbage(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		var keep Ref
		pop := th.VM().Protect(&keep)
		defer pop()
		keep, _ = v.Heap.NewInt32Array([]int32{1})
		// Promote a batch, then drop it.
		var junk Ref
		popJunk := th.VM().Protect(&junk)
		junk, _ = v.Heap.NewInt32Array(make([]int32, 512))
		th.CollectYoung() // promotes keep and junk
		popJunk()
		junk = NullRef
		_ = junk
		usedBefore := v.Heap.elderUsed
		th.CollectFull()
		if v.Heap.elderUsed >= usedBefore {
			t.Errorf("elder space not reclaimed: %d -> %d", usedBefore, v.Heap.elderUsed)
		}
		if !v.Heap.Valid(keep) || v.Heap.Int32Slice(keep)[0] != 1 {
			t.Error("live object swept")
		}
	})
}

func TestElderSpaceReuseAfterSweep(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		// Fill elder with garbage, sweep, then confirm new allocations
		// fit without growing the arena.
		for i := 0; i < 20; i++ {
			var r Ref
			pop := th.VM().Protect(&r)
			r, _ = v.Heap.NewInt32Array(make([]int32, 256))
			th.CollectYoung()
			pop()
		}
		th.CollectFull()
		arenaBefore, _, _ := v.Heap.MemUse()
		for i := 0; i < 10; i++ {
			var r Ref
			pop := th.VM().Protect(&r)
			r, _ = v.Heap.NewInt32Array(make([]int32, 256))
			th.CollectYoung()
			pop()
			th.CollectFull()
		}
		arenaAfter, _, _ := v.Heap.MemUse()
		if arenaAfter > arenaBefore {
			t.Errorf("arena grew %d -> %d despite reusable free space", arenaBefore, arenaAfter)
		}
	})
}

func TestHandleUpdatedByGC(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		ref, _ := v.Heap.NewInt32Array([]int32{11, 22})
		h := v.Handles.Alloc(ref)
		th.CollectYoung()
		moved := v.Handles.Get(h)
		if moved == ref {
			t.Error("young object did not move (test ineffective)")
		}
		if got := v.Heap.Int32Slice(moved); got[1] != 22 {
			t.Errorf("content %v", got)
		}
		v.Handles.Free(h)
	})
}

func TestGlobalsAreRoots(t *testing.T) {
	v := gcVM(t)
	gi := v.AddGlobal("g")
	v.WithThread("t", func(th *Thread) {
		ref, _ := v.Heap.NewInt32Array([]int32{5})
		v.SetGlobal(gi, RefValue(ref))
		th.CollectYoung()
		got := v.GetGlobal(gi)
		if !got.IsRef || got.Ref() == NullRef {
			t.Fatal("global lost")
		}
		if v.Heap.Int32Slice(got.Ref())[0] != 5 {
			t.Error("global content lost")
		}
	})
}

func TestGCHookRunsBeforeMark(t *testing.T) {
	v := gcVM(t)
	ran := 0
	v.AddGCHook(func() { ran++ })
	v.WithThread("t", func(th *Thread) {
		th.CollectYoung()
		th.CollectFull()
	})
	if ran != 2 {
		t.Errorf("hook ran %d times, want 2", ran)
	}
}

func TestObjectArrayElementsTraced(t *testing.T) {
	v := gcVM(t)
	node := nodeClass(v)
	arrT := v.ArrayType(KindRef, node, 1)
	fID := node.FieldByName("id")
	v.WithThread("t", func(th *Thread) {
		var arr Ref
		pop := th.VM().Protect(&arr)
		defer pop()
		arr, _ = v.Heap.AllocArray(arrT, 8)
		for i := 0; i < 8; i++ {
			n, _ := v.Heap.AllocClass(node)
			v.Heap.SetScalar(n, fID, uint64(uint32(int32(i+100))))
			v.Heap.SetElemRef(arr, i, n)
		}
		th.CollectYoung()
		for i := 0; i < 8; i++ {
			n := v.Heap.GetElemRef(arr, i)
			if n == NullRef {
				t.Fatalf("element %d lost", i)
			}
			if got := int32(uint32(v.Heap.GetScalar(n, fID))); got != int32(i+100) {
				t.Errorf("element %d id = %d", i, got)
			}
		}
	})
}

// TestGCStressRandomGraph builds a random object graph, mutates it
// across many collections, and verifies reachability and content are
// preserved — the core GC invariant.
func TestGCStressRandomGraph(t *testing.T) {
	v := gcVM(t)
	node := nodeClass(v)
	fData, fNext, fID := node.FieldByName("data"), node.FieldByName("next"), node.FieldByName("id")
	rng := rand.New(rand.NewSource(42))

	v.WithThread("t", func(th *Thread) {
		const n = 50
		roots := make([]Ref, n)
		ids := make([]int32, n)
		v.AddRootProvider(RootFunc(func(visit func(Ref) Ref) {
			for i := range roots {
				if roots[i] != NullRef {
					roots[i] = visit(roots[i])
				}
			}
		}))
		for round := 0; round < 40; round++ {
			// Mutate: allocate new nodes, rewire, drop some roots.
			for k := 0; k < 10; k++ {
				i := rng.Intn(n)
				nd, err := v.Heap.AllocClass(node)
				if err != nil {
					t.Fatal(err)
				}
				// nd must be protected across the array allocation
				// below — the exact discipline FCalls follow with
				// protected pointer frames (paper §5.1).
				pop := th.VM().Protect(&nd)
				id := rng.Int31()
				v.Heap.SetScalar(nd, fID, uint64(uint32(id)))
				// Random data array.
				if rng.Intn(2) == 0 {
					arr, err := v.Heap.NewInt32Array([]int32{id, id ^ 7})
					if err != nil {
						t.Fatal(err)
					}
					v.Heap.SetRef(nd, fData, arr)
				}
				// Random linkage to another root.
				j := rng.Intn(n)
				if roots[j] != NullRef {
					v.Heap.SetRef(nd, fNext, roots[j])
				}
				pop()
				roots[i], ids[i] = nd, id
			}
			if round%4 == 3 {
				th.CollectFull()
			} else {
				th.CollectYoung()
			}
			// Verify all roots.
			for i, r := range roots {
				if r == NullRef {
					continue
				}
				if got := int32(uint32(v.Heap.GetScalar(r, fID))); got != ids[i] {
					t.Fatalf("round %d: root %d id %d, want %d", round, i, got, ids[i])
				}
				if d := v.Heap.GetRef(r, fData); d != NullRef {
					s := v.Heap.Int32Slice(d)
					if s[0] != ids[i] || s[1] != ids[i]^7 {
						t.Fatalf("round %d: root %d data %v", round, i, s)
					}
				}
			}
		}
	})
}

func TestPinLinearListMode(t *testing.T) {
	v := closing(t, New(Config{Heap: HeapConfig{YoungSize: 16 << 10, InitialElder: 128 << 10, ArenaMax: 16 << 20, PinMode: PinLinearList}}))
	v.WithThread("t", func(th *Thread) {
		a, _ := v.Heap.NewInt32Array([]int32{1})
		b, _ := v.Heap.NewInt32Array([]int32{2})
		v.Heap.Pin(a)
		v.Heap.Pin(a) // nested
		v.Heap.Pin(b)
		if !v.Heap.Pinned(a) || !v.Heap.Pinned(b) {
			t.Fatal("pin not recorded")
		}
		v.Heap.Unpin(a)
		if !v.Heap.Pinned(a) {
			t.Error("nested pin released early")
		}
		v.Heap.Unpin(a)
		if v.Heap.Pinned(a) {
			t.Error("pin not released")
		}
		th.CollectYoung()
		if !v.Heap.Valid(b) || v.Heap.Int32Slice(b)[0] != 2 {
			t.Error("pinned object lost in linear mode")
		}
		v.Heap.Unpin(b)
	})
}

func TestUnpinnedYoungBlockIsReset(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		for i := 0; i < 10; i++ {
			v.Heap.NewInt32Array(make([]int32, 64))
		}
		donatedBefore := v.Heap.Stats.BlocksDonated
		th.CollectYoung()
		if v.Heap.Stats.BlocksDonated != donatedBefore {
			t.Error("block donated with no pinned survivors")
		}
	})
}
