package vm

import (
	"strings"
	"testing"
)

// Corruption tests for Heap.CheckInvariants: each test allocates a
// healthy heap, pokes the arena directly to violate one invariant,
// and asserts the verifier reports it (with a recognizable message).
// A heap verifier that misses corruption is worse than none.

func allocPoint(t *testing.T, v *VM) Ref {
	t.Helper()
	ref, err := v.Heap.AllocClass(pointClass(v))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func wantInvariantError(t *testing.T, h *Heap, substr string) {
	t.Helper()
	err := h.CheckInvariants()
	if err == nil {
		t.Fatalf("CheckInvariants passed, want error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("CheckInvariants = %v, want substring %q", err, substr)
	}
}

func TestCheckInvariantsHealthy(t *testing.T) {
	v := testVM(t)
	allocPoint(t, v)
	if err := v.Heap.CheckInvariants(); err != nil {
		t.Fatalf("healthy heap: %v", err)
	}
}

func TestCheckInvariantsBadMTIndex(t *testing.T) {
	v := testVM(t)
	ref := allocPoint(t, v)
	v.Heap.putU32(uint32(ref)+hdrMT, 0xFFFF) // far beyond the type registry
	wantInvariantError(t, v.Heap, "bad mt index")
}

func TestCheckInvariantsBadSize(t *testing.T) {
	v := testVM(t)
	ref := allocPoint(t, v)
	v.Heap.putU32(uint32(ref)+hdrSize, 4) // below HeaderSize
	wantInvariantError(t, v.Heap, "bad size")
}

func TestCheckInvariantsMisalignedSize(t *testing.T) {
	v := testVM(t)
	ref := allocPoint(t, v)
	v.Heap.putU32(uint32(ref)+hdrSize, HeaderSize+4) // not 8-aligned
	wantInvariantError(t, v.Heap, "bad size")
}

func TestCheckInvariantsSizeMismatch(t *testing.T) {
	v := testVM(t)
	ref := allocPoint(t, v)
	// Valid alignment, valid range — but disagrees with the class's
	// allocation size, so the walk desynchronizes at this object.
	v.Heap.putU32(uint32(ref)+hdrSize, classAllocSize(v.Heap.MT(ref))+8)
	wantInvariantError(t, v.Heap, "size")
}

func TestCheckInvariantsArrayLengthMismatch(t *testing.T) {
	v := testVM(t)
	arr, err := v.Heap.AllocArray(v.ArrayType(KindInt64, nil, 1), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Grow the recorded length without growing the allocation.
	v.Heap.putU32(uint32(arr)+hdrLength, 64)
	wantInvariantError(t, v.Heap, "size")
}

func TestCheckInvariantsDanglingReference(t *testing.T) {
	v := testVM(t)
	node := nodeClass(v)
	ref, err := v.Heap.AllocClass(node)
	if err != nil {
		t.Fatal(err)
	}
	// Point the "next" field into unallocated space.
	v.Heap.SetField(ref, node.FieldByName("next"), uint64(v.Heap.youngEnd-8))
	wantInvariantError(t, v.Heap, "references invalid")
}

func TestCheckInvariantsPinnedDead(t *testing.T) {
	v := testVM(t)
	ref := allocPoint(t, v)
	v.Heap.Pin(ref)
	// Erase the object by turning its header into a free block.
	size := v.Heap.objSize(ref)
	v.Heap.putU32(uint32(ref)+hdrMT, freeSentinel)
	v.Heap.putU32(uint32(ref)+hdrSize, size)
	wantInvariantError(t, v.Heap, "pinned ref")
}
