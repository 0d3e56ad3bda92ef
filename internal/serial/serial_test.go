package serial

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"motor/internal/vm"
)

// newVM builds a VM whose arena is released when the test ends (left
// reserved if it failed: a rank may still be running).
func newVM(t testing.TB) *vm.VM {
	v := vm.New(vm.Config{Heap: vm.HeapConfig{YoungSize: 256 << 10, InitialElder: 1 << 20, ArenaMax: 128 << 20}})
	t.Cleanup(func() {
		if !t.Failed() {
			v.Close()
		}
	})
	return v
}

// linkedArrayTypes registers the paper's Fig. 5 LinkedArray class:
// array and next are Transportable, next2 is not.
func linkedArrayTypes(v *vm.VM) *vm.MethodTable {
	mt, err := v.DeclareClass("LinkedArray")
	if err != nil {
		panic(err)
	}
	i32arr := v.ArrayType(vm.KindInt32, nil, 1)
	if err := v.CompleteClass(mt, nil, []vm.FieldSpec{
		{Name: "array", Kind: vm.KindRef, Type: i32arr, Transportable: true},
		{Name: "next", Kind: vm.KindRef, Type: mt, Transportable: true},
		{Name: "next2", Kind: vm.KindRef, Type: mt},
		{Name: "id", Kind: vm.KindInt32},
	}); err != nil {
		panic(err)
	}
	return mt
}

// buildList creates a LinkedArray list of n nodes, each with a
// payload array of payloadLen int32s; next links them, next2 points
// back at the head (must NOT travel).
func buildList(v *vm.VM, mt *vm.MethodTable, n, payloadLen int) vm.Ref {
	h := v.Heap
	fArr, fNext, fNext2, fID := mt.FieldByName("array"), mt.FieldByName("next"), mt.FieldByName("next2"), mt.FieldByName("id")
	guard := &refGuard{refs: make([]vm.Ref, 2)}
	v.AddRootProvider(guard)
	defer v.RemoveRootProvider(guard)
	var head vm.Ref
	for i := n - 1; i >= 0; i-- {
		node, err := h.AllocClass(mt)
		if err != nil {
			panic(err)
		}
		guard.refs[1] = node
		vals := make([]int32, payloadLen)
		for j := range vals {
			vals[j] = int32(i*1000 + j)
		}
		arr, err := h.NewInt32Array(vals)
		if err != nil {
			panic(err)
		}
		node = guard.refs[1]
		h.SetRef(node, fArr, arr)
		h.SetScalar(node, fID, uint64(uint32(int32(i))))
		if head != vm.NullRef {
			h.SetRef(node, fNext, guard.refs[0])
		}
		guard.refs[0] = node
		head = node
		_ = fNext2
	}
	return guard.refs[0]
}

func TestRoundtripSingleObjectNullsRefs(t *testing.T) {
	// A single non-array object: simple data travels, references are
	// replaced with null unless Transportable.
	src := newVM(t)
	mt := linkedArrayTypes(src)
	head := buildList(src, mt, 3, 4)

	data, objects := serializeCounted(t, src.Heap, head)
	dst := newVM(t)
	dmt := linkedArrayTypes(dst)
	out, err := DeserializeStream(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	h := dst.Heap
	if h.MT(out) != dmt {
		t.Fatalf("root type %s", h.MT(out))
	}
	// Transportable chain travelled: 3 nodes with arrays.
	count := 0
	for n := out; n != vm.NullRef; n = h.GetRef(n, dmt.FieldByName("next")) {
		if got := int32(uint32(h.GetScalar(n, dmt.FieldByName("id")))); got != int32(count) {
			t.Errorf("node %d id %d", count, got)
		}
		arr := h.GetRef(n, dmt.FieldByName("array"))
		if arr == vm.NullRef {
			t.Fatalf("node %d array missing", count)
		}
		vals := h.Int32Slice(arr)
		if vals[0] != int32(count*1000) {
			t.Errorf("node %d payload %v", count, vals[:2])
		}
		// next2 must NOT have travelled.
		if h.GetRef(n, dmt.FieldByName("next2")) != vm.NullRef {
			t.Errorf("node %d next2 travelled despite missing Transportable", count)
		}
		count++
	}
	if count != 3 {
		t.Errorf("list length %d", count)
	}
	if objects != 6 { // 3 nodes + 3 arrays
		t.Errorf("object count %d", objects)
	}
}

// serializeCounted streams the tree rooted at root into one buffer and
// reports how many objects the stream carries.
func serializeCounted(t *testing.T, h *vm.Heap, root vm.Ref) ([]byte, int) {
	t.Helper()
	sw := NewStreamWriter(h, root, Options{}, 0, nil)
	data := concatChunks(collectStream(t, sw))
	return data, sw.ObjectCount()
}

func TestSharedObjectPreserved(t *testing.T) {
	// Two nodes referencing the same array must share it after the
	// round trip (local-id aliasing, not duplication).
	v := newVM(t)
	mt := linkedArrayTypes(v)
	h := v.Heap
	fArr, fNext := mt.FieldByName("array"), mt.FieldByName("next")

	guard := &refGuard{refs: make([]vm.Ref, 3)}
	v.AddRootProvider(guard)
	a, _ := h.AllocClass(mt)
	guard.refs[0] = a
	b, _ := h.AllocClass(mt)
	guard.refs[1] = b
	shared, _ := h.NewInt32Array([]int32{9, 9, 9})
	guard.refs[2] = shared
	a, b = guard.refs[0], guard.refs[1]
	h.SetRef(a, fNext, b)
	h.SetRef(a, fArr, guard.refs[2])
	h.SetRef(b, fArr, guard.refs[2])
	v.RemoveRootProvider(guard)

	data, n := serializeCounted(t, h, a)
	if n != 3 { // a, b, shared — not 4
		t.Errorf("object count %d (shared object duplicated?)", n)
	}
	dst := newVM(t)
	dmt := linkedArrayTypes(dst)
	out, err := DeserializeStream(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	dh := dst.Heap
	oa := dh.GetRef(out, dmt.FieldByName("array"))
	ob := dh.GetRef(dh.GetRef(out, dmt.FieldByName("next")), dmt.FieldByName("array"))
	if oa != ob {
		t.Error("shared array duplicated on receive")
	}
}

func TestCycleSerialization(t *testing.T) {
	// next chains may form a cycle; the visited set must terminate it.
	v := newVM(t)
	mt := linkedArrayTypes(v)
	h := v.Heap
	fNext := mt.FieldByName("next")
	guard := &refGuard{refs: make([]vm.Ref, 2)}
	v.AddRootProvider(guard)
	a, _ := h.AllocClass(mt)
	guard.refs[0] = a
	b, _ := h.AllocClass(mt)
	guard.refs[1] = b
	a = guard.refs[0]
	h.SetRef(a, fNext, b)
	h.SetRef(b, fNext, a) // cycle
	v.RemoveRootProvider(guard)

	data, err := SerializeStream(h, a, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := newVM(t)
	dmt := linkedArrayTypes(dst)
	out, err := DeserializeStream(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	dh := dst.Heap
	ob := dh.GetRef(out, dmt.FieldByName("next"))
	if dh.GetRef(ob, dmt.FieldByName("next")) != out {
		t.Error("cycle not reconstructed")
	}
}

func TestObjectArrayTravelsWithElements(t *testing.T) {
	v := newVM(t)
	mt := linkedArrayTypes(v)
	h := v.Heap
	arrT := v.ArrayType(vm.KindRef, mt, 1)
	guard := &refGuard{refs: make([]vm.Ref, 1)}
	v.AddRootProvider(guard)
	arr, _ := h.AllocArray(arrT, 5)
	guard.refs[0] = arr
	for i := 0; i < 5; i++ {
		node, _ := h.AllocClass(mt)
		h.SetScalar(node, mt.FieldByName("id"), uint64(uint32(int32(i*7))))
		h.SetElemRef(guard.refs[0], i, node)
	}
	arr = guard.refs[0]
	v.RemoveRootProvider(guard)

	data, err := SerializeStream(h, arr, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := newVM(t)
	dmt := linkedArrayTypes(dst)
	out, err := DeserializeStream(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	dh := dst.Heap
	if dh.Length(out) != 5 {
		t.Fatalf("length %d", dh.Length(out))
	}
	for i := 0; i < 5; i++ {
		node := dh.GetElemRef(out, i)
		if node == vm.NullRef {
			t.Fatalf("element %d missing", i)
		}
		if got := int32(uint32(dh.GetScalar(node, dmt.FieldByName("id")))); got != int32(i*7) {
			t.Errorf("element %d id %d", i, got)
		}
	}
}

func TestSimpleArrayRoundtrip(t *testing.T) {
	v := newVM(t)
	ref, _ := v.Heap.NewFloat64Array([]float64{1.5, -2.25, 3e100})
	data, err := SerializeStream(v.Heap, ref, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := newVM(t)
	out, err := DeserializeStream(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	got := dst.Heap.Float64Slice(out)
	if got[0] != 1.5 || got[1] != -2.25 || got[2] != 3e100 {
		t.Errorf("values %v", got)
	}
}

func TestMultiDimArrayRoundtrip(t *testing.T) {
	v := newVM(t)
	at := v.ArrayType(vm.KindInt32, nil, 2)
	ref, err := v.Heap.AllocMultiDim(at, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		v.Heap.SetElem(ref, i, uint64(uint32(int32(i*i))))
	}
	data, err := SerializeStream(v.Heap, ref, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := newVM(t)
	out, err := DeserializeStream(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	dims := dst.Heap.Dims(out)
	if len(dims) != 2 || dims[0] != 2 || dims[1] != 3 {
		t.Fatalf("dims %v", dims)
	}
	if got := int32(uint32(dst.Heap.GetElem(out, 5))); got != 25 {
		t.Errorf("elem 5 = %d", got)
	}
}

func TestNullRoot(t *testing.T) {
	v := newVM(t)
	data, err := SerializeStream(v.Heap, vm.NullRef, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DeserializeStream(newVM(t), data)
	if err != nil {
		t.Fatal(err)
	}
	if out != vm.NullRef {
		t.Error("null root not null")
	}
}

func TestMissingTypeRejected(t *testing.T) {
	v := newVM(t)
	mt := linkedArrayTypes(v)
	h := v.Heap
	node, _ := h.AllocClass(mt)
	data, err := SerializeStream(h, node, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Receiver without LinkedArray registered.
	dst := newVM(t)
	if _, err := DeserializeStream(dst, data); !errors.Is(err, ErrTypeless) {
		t.Errorf("deserialize into typeless VM: %v, want ErrTypeless", err)
	}
}

func TestCorruptDataRejected(t *testing.T) {
	v := newVM(t)
	ref, _ := v.Heap.NewInt32Array([]int32{1, 2, 3})
	data, _ := SerializeStream(v.Heap, ref, Options{}, nil)
	for _, mut := range []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { c := clone(b); c[0] ^= 0xFF; return c }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"bad version", func(b []byte) []byte { c := clone(b); c[4] = 99; return c }},
	} {
		if _, err := DeserializeStream(newVM(t), mut.fn(data)); err == nil {
			t.Errorf("%s accepted", mut.name)
		}
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// splitParts streams arr as parts standalone split parts, one
// NewStreamWriterPart per PartRange.
func splitParts(t *testing.T, h *vm.Heap, arr vm.Ref, parts int, opts Options) [][]byte {
	t.Helper()
	out := make([][]byte, parts)
	for p := range out {
		lo, hi := PartRange(h.Length(arr), parts, p)
		sw, err := NewStreamWriterPart(h, arr, lo, hi, opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = concatChunks(collectStream(t, sw))
	}
	return out
}

// gatherParts is the receiving half of a gather: deserialize every part
// (the sub-arrays rooted while later parts allocate), then GatherRefs.
func gatherParts(v *vm.VM, parts [][]byte) (vm.Ref, error) {
	subs := make([]vm.Ref, len(parts))
	guard := &refGuard{refs: subs}
	v.AddRootProvider(guard)
	defer v.RemoveRootProvider(guard)
	for i, part := range parts {
		ref, err := DeserializeStream(v, part)
		if err != nil {
			return vm.NullRef, fmt.Errorf("part %d: %w", i, err)
		}
		subs[i] = ref
	}
	return GatherRefs(v, subs)
}

func TestSplitRepresentation(t *testing.T) {
	v := newVM(t)
	mt := linkedArrayTypes(v)
	h := v.Heap
	arrT := v.ArrayType(vm.KindRef, mt, 1)
	guard := &refGuard{refs: make([]vm.Ref, 1)}
	v.AddRootProvider(guard)
	arr, _ := h.AllocArray(arrT, 10)
	guard.refs[0] = arr
	for i := 0; i < 10; i++ {
		node, _ := h.AllocClass(mt)
		h.SetScalar(node, mt.FieldByName("id"), uint64(uint32(int32(i))))
		h.SetElemRef(guard.refs[0], i, node)
	}
	v.RemoveRootProvider(guard)
	arr = guard.refs[0]

	parts := splitParts(t, h, arr, 3, Options{})
	// Each part deserializes standalone (possibly on different VMs).
	sizes := []int{4, 3, 3}
	for p, part := range parts {
		dst := newVM(t)
		dmt := linkedArrayTypes(dst)
		sub, err := DeserializeStream(dst, part)
		if err != nil {
			t.Fatalf("part %d: %v", p, err)
		}
		if dst.Heap.Length(sub) != sizes[p] {
			t.Errorf("part %d length %d, want %d", p, dst.Heap.Length(sub), sizes[p])
		}
		lo, _ := PartRange(10, 3, p)
		for i := 0; i < sizes[p]; i++ {
			node := dst.Heap.GetElemRef(sub, i)
			if got := int32(uint32(dst.Heap.GetScalar(node, dmt.FieldByName("id")))); got != int32(lo+i) {
				t.Errorf("part %d elem %d id %d, want %d", p, i, got, lo+i)
			}
		}
	}
	// Gather reconstructs the original array.
	dst := newVM(t)
	dmt := linkedArrayTypes(dst)
	whole, err := gatherParts(dst, parts)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Heap.Length(whole) != 10 {
		t.Fatalf("gathered length %d", dst.Heap.Length(whole))
	}
	for i := 0; i < 10; i++ {
		node := dst.Heap.GetElemRef(whole, i)
		if got := int32(uint32(dst.Heap.GetScalar(node, dmt.FieldByName("id")))); got != int32(i) {
			t.Errorf("gathered elem %d id %d", i, got)
		}
	}
}

func TestSplitSimpleArray(t *testing.T) {
	v := newVM(t)
	vals := make([]int32, 100)
	for i := range vals {
		vals[i] = int32(i * 3)
	}
	arr, _ := v.Heap.NewInt32Array(vals)
	parts := splitParts(t, v.Heap, arr, 4, Options{})
	dst := newVM(t)
	whole, err := gatherParts(dst, parts)
	if err != nil {
		t.Fatal(err)
	}
	got := dst.Heap.Int32Slice(whole)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("elem %d = %d", i, got[i])
		}
	}
}

func TestPartRangeCoversExactly(t *testing.T) {
	f := func(n uint16, parts uint8) bool {
		nn := int(n % 1000)
		pp := int(parts%16) + 1
		covered := 0
		prevHi := 0
		for p := 0; p < pp; p++ {
			lo, hi := PartRange(nn, pp, p)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == nn && prevHi == nn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickRoundtripRandomLists is the serializer's property test:
// random linked lists with random payloads and visited modes must
// round-trip exactly.
func TestQuickRoundtripRandomLists(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 25; iter++ {
		n := 1 + rng.Intn(40)
		payload := rng.Intn(32)
		mode := VisitedMode(rng.Intn(2))

		src := newVM(t)
		mt := linkedArrayTypes(src)
		head := buildList(src, mt, n, payload)
		data, err := SerializeStream(src.Heap, head, Options{Visited: mode}, nil)
		if err != nil {
			t.Fatal(err)
		}

		dst := newVM(t)
		dmt := linkedArrayTypes(dst)
		out, err := DeserializeStream(dst, data)
		if err != nil {
			t.Fatal(err)
		}
		h := dst.Heap
		count := 0
		for node := out; node != vm.NullRef; node = h.GetRef(node, dmt.FieldByName("next")) {
			if got := int32(uint32(h.GetScalar(node, dmt.FieldByName("id")))); got != int32(count) {
				t.Fatalf("iter %d node %d id %d", iter, count, got)
			}
			arr := h.GetRef(node, dmt.FieldByName("array"))
			if payload == 0 {
				if h.Length(arr) != 0 {
					t.Fatalf("iter %d: payload length %d", iter, h.Length(arr))
				}
			} else {
				vals := h.Int32Slice(arr)
				for j, val := range vals {
					if val != int32(count*1000+j) {
						t.Fatalf("iter %d node %d payload[%d]=%d", iter, count, j, val)
					}
				}
			}
			count++
		}
		if count != n {
			t.Fatalf("iter %d: %d nodes, want %d", iter, count, n)
		}
	}
}

// TestVisitedModesAgree: split parts of an object array whose elements
// share their successors are byte-identical under both visited modes
// (TestStreamVisitedModesAgree covers a whole-tree stream).
func TestVisitedModesAgree(t *testing.T) {
	src := newVM(t)
	mt := linkedArrayTypes(src)
	h := src.Heap
	guard := &refGuard{refs: make([]vm.Ref, 2)}
	src.AddRootProvider(guard)
	defer src.RemoveRootProvider(guard)
	guard.refs[0] = buildList(src, mt, 12, 4)
	arr, err := h.AllocArray(src.ArrayType(vm.KindRef, mt, 1), 12)
	if err != nil {
		t.Fatal(err)
	}
	guard.refs[1] = arr
	fNext := mt.FieldByName("next")
	for i, n := 0, guard.refs[0]; n != vm.NullRef; i, n = i+1, h.GetRef(n, fNext) {
		h.SetElemRef(guard.refs[1], i, n)
	}
	a := splitParts(t, h, guard.refs[1], 5, Options{Visited: VisitedLinear})
	b := splitParts(t, h, guard.refs[1], 5, Options{Visited: VisitedMap})
	for p := range a {
		if string(a[p]) != string(b[p]) {
			t.Errorf("part %d: linear and map visited modes produce different bytes", p)
		}
	}
}
