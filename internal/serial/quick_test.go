package serial

import (
	"fmt"
	"math/rand"
	"testing"

	"motor/internal/vm"
)

// TestQuickRandomClassShapes generates classes with random scalar
// field shapes, fills instances with random values, and verifies
// exact round trips — the serializer must handle every kind and
// alignment combination.
func TestQuickRandomClassShapes(t *testing.T) {
	kinds := []vm.Kind{
		vm.KindBool, vm.KindInt8, vm.KindUint8, vm.KindInt16, vm.KindUint16,
		vm.KindChar, vm.KindInt32, vm.KindUint32, vm.KindInt64, vm.KindUint64,
		vm.KindFloat32, vm.KindFloat64,
	}
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 30; iter++ {
		src := newVM(t)
		dst := newVM(t)
		nf := 1 + rng.Intn(10)
		specs := make([]vm.FieldSpec, nf)
		for i := range specs {
			specs[i] = vm.FieldSpec{Name: fmt.Sprintf("f%d", i), Kind: kinds[rng.Intn(len(kinds))]}
		}
		name := fmt.Sprintf("Shape%d", iter)
		smt, err := src.NewClass(name, nil, specs)
		if err != nil {
			t.Fatal(err)
		}
		dmt, err := dst.NewClass(name, nil, specs)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := src.Heap.AllocClass(smt)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, nf)
		for i := range specs {
			f := smt.FieldByName(specs[i].Name)
			// Random bits truncated to the field width by the store.
			bits := rng.Uint64()
			src.Heap.SetScalar(obj, f, bits)
			want[i] = src.Heap.GetScalar(obj, f) // store-then-load normalizes
		}
		data, err := SerializeStream(src.Heap, obj, Options{Visited: VisitedMode(iter % 2)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DeserializeStream(dst, data)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i := range specs {
			f := dmt.FieldByName(specs[i].Name)
			got := dst.Heap.GetScalar(out, f)
			if got != want[i] {
				t.Fatalf("iter %d field %s (%s): %#x != %#x", iter, specs[i].Name, specs[i].Kind, got, want[i])
			}
		}
	}
}

// TestQuickRandomArrays round-trips arrays of every simple kind with
// random lengths and contents.
func TestQuickRandomArrays(t *testing.T) {
	kinds := []vm.Kind{vm.KindUint8, vm.KindInt16, vm.KindInt32, vm.KindInt64, vm.KindFloat32, vm.KindFloat64}
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 40; iter++ {
		src := newVM(t)
		k := kinds[rng.Intn(len(kinds))]
		n := rng.Intn(200)
		at := src.ArrayType(k, nil, 1)
		arr, err := src.Heap.AllocArray(at, n)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, n)
		for i := 0; i < n; i++ {
			src.Heap.SetElem(arr, i, rng.Uint64())
			want[i] = src.Heap.GetElem(arr, i)
		}
		data, err := SerializeStream(src.Heap, arr, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		dst := newVM(t)
		out, err := DeserializeStream(dst, data)
		if err != nil {
			t.Fatal(err)
		}
		if dst.Heap.Length(out) != n {
			t.Fatalf("iter %d: length %d want %d", iter, dst.Heap.Length(out), n)
		}
		for i := 0; i < n; i++ {
			if got := dst.Heap.GetElem(out, i); got != want[i] {
				t.Fatalf("iter %d (%s) elem %d: %#x != %#x", iter, k, i, got, want[i])
			}
		}
	}
}

func TestEmptyArrayRoundtrip(t *testing.T) {
	src := newVM(t)
	arr, _ := src.Heap.NewInt32Array(nil)
	data, err := SerializeStream(src.Heap, arr, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := newVM(t)
	out, err := DeserializeStream(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Heap.Length(out) != 0 {
		t.Errorf("length %d", dst.Heap.Length(out))
	}
}

func TestJaggedObjectArrays(t *testing.T) {
	// Array of int32[] arrays (Java-style arrays-of-arrays): the
	// elements are themselves objects and must travel.
	src := newVM(t)
	inner := src.ArrayType(vm.KindInt32, nil, 1)
	outerT := src.ArrayType(vm.KindRef, inner, 1)
	guard := &refGuard{refs: make([]vm.Ref, 1)}
	src.AddRootProvider(guard)
	outer, _ := src.Heap.AllocArray(outerT, 3)
	guard.refs[0] = outer
	for i := 0; i < 3; i++ {
		row, err := src.Heap.NewInt32Array(make([]int32, i+1))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ {
			src.Heap.SetElem(row, j, uint64(uint32(int32(10*i+j))))
		}
		src.Heap.SetElemRef(guard.refs[0], i, row)
	}
	src.RemoveRootProvider(guard)
	outer = guard.refs[0]

	data, err := SerializeStream(src.Heap, outer, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := newVM(t)
	out, err := DeserializeStream(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		row := dst.Heap.GetElemRef(out, i)
		if dst.Heap.Length(row) != i+1 {
			t.Fatalf("row %d length %d", i, dst.Heap.Length(row))
		}
		if got := int32(uint32(dst.Heap.GetElem(row, i))); got != int32(10*i+i) {
			t.Errorf("row %d last elem %d", i, got)
		}
	}
}

func TestSerializeIntoRecycledBuffer(t *testing.T) {
	src := newVM(t)
	arr, _ := src.Heap.NewInt32Array([]int32{1, 2, 3})
	first, err := SerializeStream(src.Heap, arr, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the buffer: result must be identical.
	second, err := SerializeStream(src.Heap, arr, Options{}, first[:0])
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("recycled-buffer serialization differs")
	}
}

// TestSplitErrors covers the split/gather failure paths that
// TestStreamPartErrors (null and class roots) does not: inverted and
// negative part ranges, and every GatherRefs rejection.
func TestSplitErrors(t *testing.T) {
	v := newVM(t)
	h := v.Heap
	mt := linkedArrayTypes(v)
	node, _ := h.AllocClass(mt)
	ints, _ := h.NewInt32Array([]int32{1, 2})
	floats, _ := h.NewFloat64Array([]float64{1})
	for _, r := range [][2]int{{1, 0}, {-1, 1}} {
		if _, err := NewStreamWriterPart(h, ints, r[0], r[1], Options{}, 0); err == nil {
			t.Errorf("part range [%d,%d) accepted", r[0], r[1])
		}
	}
	for name, subs := range map[string][]vm.Ref{
		"empty gather":    nil,
		"null part":       {ints, vm.NullRef},
		"non-array part":  {node},
		"mixed elem type": {ints, floats},
	} {
		if _, err := GatherRefs(v, subs); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSplitMorePartsThanElements(t *testing.T) {
	v := newVM(t)
	arr, _ := v.Heap.NewInt32Array([]int32{7, 8})
	parts := splitParts(t, v.Heap, arr, 5, Options{})
	dst := newVM(t)
	// Parts 2..4 cover the empty range [2,2) and still round-trip.
	empty, err := DeserializeStream(dst, parts[4])
	if err != nil {
		t.Fatal(err)
	}
	if n := dst.Heap.Length(empty); n != 0 {
		t.Fatalf("empty part has length %d", n)
	}
	whole, err := gatherParts(dst, parts)
	if err != nil {
		t.Fatal(err)
	}
	got := dst.Heap.Int32Slice(whole)
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Errorf("gathered %v", got)
	}
}
