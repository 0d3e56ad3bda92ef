package vm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// TestQuickAllocSizes is a property test: arrays of arbitrary sizes
// allocate 8-aligned, zeroed, and correctly sized.
func TestQuickAllocSizes(t *testing.T) {
	v := closing(t, New(Config{Heap: HeapConfig{YoungSize: 256 << 10, InitialElder: 1 << 20, ArenaMax: 256 << 20}}))
	at := v.ArrayType(KindUint8, nil, 1)
	f := func(n uint16) bool {
		length := int(n % 5000)
		ref, err := v.Heap.AllocArray(at, length)
		if err != nil {
			return false
		}
		if v.Heap.Length(ref) != length {
			return false
		}
		if v.Heap.DataSize(ref) != length {
			return false
		}
		if uint32(ref)%8 != 0 {
			return false
		}
		for _, b := range v.Heap.DataBytes(ref) {
			if b != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickGCChecksum allocates arrays with checksummed content under
// random collection pressure and verifies no byte is ever lost or
// changed.
func TestQuickGCChecksum(t *testing.T) {
	v := closing(t, New(Config{Heap: HeapConfig{YoungSize: 16 << 10, InitialElder: 128 << 10, ArenaMax: 128 << 20}}))
	rng := rand.New(rand.NewSource(99))
	v.WithThread("t", func(th *Thread) {
		guard := &RefRoots{Refs: make([]Ref, 32)}
		sums := make([]uint64, 32)
		lens := make([]int, 32)
		v.AddRootProvider(guard)
		defer v.RemoveRootProvider(guard)
		for round := 0; round < 200; round++ {
			i := rng.Intn(len(guard.Refs))
			n := rng.Intn(700)
			data := make([]byte, n)
			var sum uint64
			for j := range data {
				data[j] = byte(rng.Intn(256))
				sum = sum*31 + uint64(data[j])
			}
			ref, err := v.Heap.NewUint8Array(data)
			if err != nil {
				t.Fatal(err)
			}
			guard.Refs[i], sums[i], lens[i] = ref, sum, n
			if rng.Intn(4) == 0 {
				if rng.Intn(8) == 0 {
					th.CollectFull()
				} else {
					th.CollectYoung()
				}
			}
			// Verify every live array.
			for k, r := range guard.Refs {
				if r == NullRef {
					continue
				}
				got := v.Heap.Uint8Slice(r)
				if len(got) != lens[k] {
					t.Fatalf("round %d: slot %d length %d, want %d", round, k, len(got), lens[k])
				}
				var s uint64
				for _, b := range got {
					s = s*31 + uint64(b)
				}
				if s != sums[k] {
					t.Fatalf("round %d: slot %d checksum mismatch", round, k)
				}
			}
		}
	})
}

// TestMultiThreadVMSharedHeap runs two managed threads in one VM,
// interleaving allocation-heavy work. The cooperative safepoint
// discipline must keep the shared heap consistent.
func TestMultiThreadVMSharedHeap(t *testing.T) {
	v := closing(t, New(Config{Heap: HeapConfig{YoungSize: 32 << 10, InitialElder: 256 << 10, ArenaMax: 128 << 20}}))
	const perThread = 300
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := v.StartThread(fmt.Sprintf("worker%d", id))
			defer th.End()
			var keep Ref
			pop := th.VM().Protect(&keep)
			defer pop()
			marker := []int32{int32(id * 1000)}
			var err error
			keep, err = v.Heap.NewInt32Array(marker)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perThread; i++ {
				// Churn garbage, occasionally yield.
				if _, err := v.Heap.NewUint8Array(make([]byte, 128)); err != nil {
					errs <- err
					return
				}
				th.PollGC()
				if got := v.Heap.Int32Slice(keep); got[0] != int32(id*1000) {
					errs <- fmt.Errorf("thread %d: marker corrupted to %d at iter %d", id, got[0], i)
					return
				}
			}
			errs <- nil
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if v.Heap.Stats.Scavenges == 0 {
		t.Error("no collections; test ineffective")
	}
}

func TestElderDirectAllocationSurvivesScavenge(t *testing.T) {
	v := gcVM(t) // 16 KiB nursery
	v.WithThread("t", func(th *Thread) {
		// 12 KiB > nursery/2: allocated directly in elder space.
		big, err := v.Heap.NewUint8Array(make([]byte, 12<<10))
		if err != nil {
			t.Fatal(err)
		}
		if v.Heap.IsYoung(big) {
			t.Fatal("big object in nursery")
		}
		v.Heap.DataBytes(big)[0] = 0xEE
		before := big
		pop := th.VM().Protect(&big)
		th.CollectYoung()
		pop()
		if big != before {
			t.Error("elder object moved by scavenge")
		}
		if v.Heap.DataBytes(big)[0] != 0xEE {
			t.Error("elder content lost")
		}
	})
}

func TestConditionalPinSurvivesMultipleCycles(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		ref, _ := v.Heap.NewInt32Array([]int32{4})
		active := true
		v.Heap.AddCondPin(ref, func() bool { return active })
		for i := 0; i < 5; i++ {
			th.CollectYoung()
			if !v.Heap.Valid(ref) || v.Heap.Int32Slice(ref)[0] != 4 {
				t.Fatalf("cycle %d: conditionally pinned object lost", i)
			}
			if v.Heap.CondPinCount() != 1 {
				t.Fatalf("cycle %d: request dropped early", i)
			}
		}
		active = false
		th.CollectYoung()
		if v.Heap.CondPinCount() != 0 {
			t.Error("request survived completion")
		}
	})
}

func TestNestedExplicitPins(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		ref, _ := v.Heap.NewInt32Array([]int32{1})
		v.Heap.Pin(ref)
		v.Heap.Pin(ref)
		v.Heap.Unpin(ref)
		if !v.Heap.Pinned(ref) {
			t.Fatal("nested pin released early")
		}
		before := ref
		pop := th.VM().Protect(&ref)
		th.CollectYoung()
		pop()
		if ref != before {
			t.Error("still-pinned object moved")
		}
		v.Heap.Unpin(ref)
		if v.Heap.Pinned(ref) {
			t.Error("pin not fully released")
		}
	})
}

func TestWriteBarrierElderArrayToYoung(t *testing.T) {
	// Reference written into an ELDER OBJECT ARRAY must keep a young
	// referent alive (the barrier covers stelem, not only stfld).
	v := gcVM(t)
	node := nodeClass(v)
	arrT := v.ArrayType(KindRef, node, 1)
	v.WithThread("t", func(th *Thread) {
		arr, _ := v.Heap.AllocArray(arrT, 4)
		pop := th.VM().Protect(&arr)
		defer pop()
		th.CollectYoung() // promote the array
		if v.Heap.IsYoung(arr) {
			t.Fatal("array not promoted")
		}
		young, _ := v.Heap.AllocClass(node)
		v.Heap.SetScalar(young, node.FieldByName("id"), 77)
		v.Heap.SetElemRef(arr, 2, young)
		th.CollectYoung()
		got := v.Heap.GetElemRef(arr, 2)
		if got == NullRef {
			t.Fatal("young referent lost (stelem barrier missing)")
		}
		if v.Heap.GetScalar(got, node.FieldByName("id")) != 77 {
			t.Error("referent corrupted")
		}
	})
}

func TestManyHandlesAcrossGC(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		const n = 200
		handles := make([]Handle, n)
		for i := 0; i < n; i++ {
			ref, err := v.Heap.NewInt32Array([]int32{int32(i)})
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = v.Handles.Alloc(ref)
			if i%37 == 0 {
				th.CollectYoung()
			}
		}
		th.CollectFull()
		for i, h := range handles {
			ref := v.Handles.Get(h)
			if ref == NullRef {
				t.Fatalf("handle %d lost", i)
			}
			if got := v.Heap.Int32Slice(ref)[0]; got != int32(i) {
				t.Fatalf("handle %d content %d", i, got)
			}
			v.Handles.Free(h)
		}
		if v.Handles.Live() != 0 {
			t.Errorf("%d live handles after free", v.Handles.Live())
		}
	})
}

func TestGCStatsAccounting(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		var keep Ref
		pop := th.VM().Protect(&keep)
		defer pop()
		keep, _ = v.Heap.NewInt32Array(make([]int32, 100))
		th.CollectYoung()
		s := v.Heap.Stats
		if s.Scavenges != 1 {
			t.Errorf("scavenges %d", s.Scavenges)
		}
		if s.BytesPromoted == 0 {
			t.Error("no bytes promoted despite live object")
		}
		th.CollectFull()
		if v.Heap.Stats.FullGCs != 1 {
			t.Errorf("full GCs %d", v.Heap.Stats.FullGCs)
		}
	})
}

func TestCheckInvariantsCleanHeap(t *testing.T) {
	v := gcVM(t)
	node := nodeClass(v)
	v.WithThread("t", func(th *Thread) {
		guard := &RefRoots{Refs: make([]Ref, 10)}
		v.AddRootProvider(guard)
		defer v.RemoveRootProvider(guard)
		for i := range guard.Refs {
			n, _ := v.Heap.AllocClass(node)
			guard.Refs[i] = n
			arr, _ := v.Heap.NewInt32Array([]int32{int32(i)})
			v.Heap.SetRef(guard.Refs[i], node.FieldByName("data"), arr)
		}
		if err := v.Heap.CheckInvariants(); err != nil {
			t.Fatalf("before GC: %v", err)
		}
		th.CollectYoung()
		if err := v.Heap.CheckInvariants(); err != nil {
			t.Fatalf("after scavenge: %v", err)
		}
		th.CollectFull()
		if err := v.Heap.CheckInvariants(); err != nil {
			t.Fatalf("after full GC: %v", err)
		}
	})
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		node := nodeClass(v)
		guard := &RefRoots{Refs: make([]Ref, 1)}
		v.AddRootProvider(guard)
		defer v.RemoveRootProvider(guard)
		n, _ := v.Heap.AllocClass(node)
		guard.Refs[0] = n
		th.CollectYoung() // promote to elder so the walk covers it
		n = guard.Refs[0]
		// Forge a raw write over the object's next field with a bogus
		// reference — exactly the §2.4 hazard the integrity checks
		// prevent the public API from causing.
		f := node.FieldByName("next")
		v.Heap.putU32(uint32(n)+HeaderSize+f.Offset(), 0xDEAD00)
		if err := v.Heap.CheckInvariants(); err == nil {
			t.Fatal("verifier missed a corrupted reference field")
		}
	})
}

func TestGCStressWithVerifier(t *testing.T) {
	v := gcVM(t)
	node := nodeClass(v)
	rng := rand.New(rand.NewSource(5))
	fData, fNext := node.FieldByName("data"), node.FieldByName("next")
	v.WithThread("t", func(th *Thread) {
		guard := &RefRoots{Refs: make([]Ref, 16)}
		v.AddRootProvider(guard)
		defer v.RemoveRootProvider(guard)
		for round := 0; round < 30; round++ {
			for k := 0; k < 8; k++ {
				i := rng.Intn(len(guard.Refs))
				n, err := v.Heap.AllocClass(node)
				if err != nil {
					t.Fatal(err)
				}
				guard.Refs[i] = n
				pop := th.VM().Protect(&guard.Refs[i])
				arr, err := v.Heap.NewUint8Array(make([]byte, rng.Intn(300)))
				if err != nil {
					t.Fatal(err)
				}
				v.Heap.SetRef(guard.Refs[i], fData, arr)
				j := rng.Intn(len(guard.Refs))
				if guard.Refs[j] != NullRef {
					v.Heap.SetRef(guard.Refs[i], fNext, guard.Refs[j])
				}
				pop()
			}
			if round%3 == 0 {
				th.CollectYoung()
			}
			if round%7 == 0 {
				th.CollectFull()
			}
			if err := v.Heap.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	})
}

func TestPauseAccounting(t *testing.T) {
	v := gcVM(t)
	v.WithThread("t", func(th *Thread) {
		th.CollectYoung()
		th.CollectFull()
	})
	if v.Heap.Stats.PauseNs == 0 {
		t.Error("no pause time recorded")
	}
	if v.Heap.Stats.MaxPauseNs == 0 || v.Heap.Stats.MaxPauseNs > v.Heap.Stats.PauseNs {
		t.Errorf("max pause %d, total %d", v.Heap.Stats.MaxPauseNs, v.Heap.Stats.PauseNs)
	}
}

func TestDegradedNurseryAfterArenaExhaustion(t *testing.T) {
	// Force repeated donations (pinned survivors) on a tiny arena
	// until a fresh nursery cannot be carved; the VM must keep
	// serving allocations from the elder space rather than crash.
	v := closing(t, New(Config{Heap: HeapConfig{YoungSize: 8 << 10, InitialElder: 16 << 10, ArenaMax: 96 << 10}}))
	v.WithThread("t", func(th *Thread) {
		guard := &RefRoots{}
		v.AddRootProvider(guard)
		defer v.RemoveRootProvider(guard)
		var pinned []Ref
		for i := 0; i < 12; i++ {
			ref, err := v.Heap.NewInt32Array([]int32{int32(i)})
			if err != nil {
				break // arena exhausted during setup: fine
			}
			guard.Refs = append(guard.Refs, ref)
			if v.Heap.IsYoung(ref) {
				v.Heap.Pin(ref)
				pinned = append(pinned, guard.Refs[len(guard.Refs)-1])
			}
			th.CollectYoung() // donation each cycle with a pinned survivor
		}
		// Whatever state the heap reached, it must still satisfy
		// invariants, preserve pinned content, and serve allocations
		// (or return clean OOM).
		if err := v.Heap.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		for i, r := range guard.Refs {
			if got := v.Heap.Int32Slice(r)[0]; got != int32(i) {
				t.Fatalf("object %d content %d", i, got)
			}
		}
		if _, err := v.Heap.NewInt32Array([]int32{99}); err != nil && !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("allocation after degradation: %v", err)
		}
		_ = pinned
	})
}
