package vm

import (
	"testing"
)

func testVM(t testing.TB) *VM {
	return closing(t, New(Config{Name: "test", Heap: HeapConfig{YoungSize: 64 << 10, InitialElder: 256 << 10, ArenaMax: 32 << 20}}))
}

// closing releases v's arena when the test ends (left reserved if it
// failed: a rank may still be running).
func closing(t testing.TB, v *VM) *VM {
	t.Cleanup(func() {
		if !t.Failed() {
			v.Close()
		}
	})
	return v
}

func pointClass(v *VM) *MethodTable {
	return v.MustNewClass("Point", nil, []FieldSpec{
		{Name: "x", Kind: KindInt32},
		{Name: "y", Kind: KindInt32},
		{Name: "tag", Kind: KindInt64},
	})
}

func nodeClass(v *VM) *MethodTable {
	// A linked-list node like the paper's LinkedArray (Fig. 5).
	mt, err := v.NewClass("Node", nil, []FieldSpec{
		{Name: "data", Kind: KindRef, Transportable: true},
		{Name: "next", Kind: KindRef, Transportable: true},
		{Name: "shadow", Kind: KindRef}, // not transportable, like next2
		{Name: "id", Kind: KindInt32},
	})
	if err != nil {
		panic(err)
	}
	return mt
}

func TestAllocClassAndFieldAccess(t *testing.T) {
	v := testVM(t)
	pt := pointClass(v)
	ref, err := v.Heap.AllocClass(pt)
	if err != nil {
		t.Fatal(err)
	}
	if ref == NullRef {
		t.Fatal("null ref from alloc")
	}
	fx, fy := pt.FieldByName("x"), pt.FieldByName("y")
	if fx == nil || fy == nil {
		t.Fatal("missing fields")
	}
	minus7 := int32(-7)
	v.Heap.SetScalar(ref, fx, uint64(uint32(minus7)))
	v.Heap.SetScalar(ref, fy, 42)
	if got := int32(uint32(v.Heap.GetScalar(ref, fx))); got != -7 {
		t.Errorf("x = %d, want -7", got)
	}
	if got := v.Heap.GetScalar(ref, fy); got != 42 {
		t.Errorf("y = %d, want 42", got)
	}
	if v.Heap.MT(ref) != pt {
		t.Error("MT mismatch")
	}
	if !v.Heap.Valid(ref) {
		t.Error("Valid() false for live object")
	}
}

func TestFieldLayoutAlignment(t *testing.T) {
	v := testVM(t)
	mt := v.MustNewClass("Mix", nil, []FieldSpec{
		{Name: "a", Kind: KindUint8},
		{Name: "b", Kind: KindInt64},
		{Name: "c", Kind: KindInt16},
		{Name: "d", Kind: KindRef},
	})
	fa, fb, fc, fd := mt.FieldByName("a"), mt.FieldByName("b"), mt.FieldByName("c"), mt.FieldByName("d")
	if fa.Offset() != 0 {
		t.Errorf("a offset %d", fa.Offset())
	}
	if fb.Offset() != 8 {
		t.Errorf("b offset %d, want 8 (aligned)", fb.Offset())
	}
	if fc.Offset() != 16 {
		t.Errorf("c offset %d, want 16", fc.Offset())
	}
	if fd.Offset() != 20 {
		t.Errorf("d offset %d, want 20", fd.Offset())
	}
	if mt.InstanceSize%8 != 0 {
		t.Errorf("instance size %d not 8-aligned", mt.InstanceSize)
	}
	if len(mt.RefOffsets) != 1 || mt.RefOffsets[0] != 20 {
		t.Errorf("ref offsets %v", mt.RefOffsets)
	}
}

func TestInheritedFieldLayout(t *testing.T) {
	v := testVM(t)
	base := v.MustNewClass("Base", nil, []FieldSpec{{Name: "a", Kind: KindInt32}})
	child := v.MustNewClass("Child", base, []FieldSpec{{Name: "b", Kind: KindInt32}})
	if child.FieldByName("a") == nil {
		t.Fatal("inherited field missing")
	}
	if child.FieldByName("a").Offset() != base.FieldByName("a").Offset() {
		t.Error("inherited field moved")
	}
	if child.FieldIndex("a") != 0 || child.FieldIndex("b") != 1 {
		t.Error("field order wrong")
	}
	if !child.IsSubclassOf(base) || !child.IsSubclassOf(v.ObjectMT) {
		t.Error("subclass chain broken")
	}
	if base.IsSubclassOf(child) {
		t.Error("inverted subclass relation")
	}
}

func TestArrayAllocAndAccess(t *testing.T) {
	v := testVM(t)
	at := v.ArrayType(KindInt32, nil, 1)
	ref, err := v.Heap.AllocArray(at, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v.Heap.Length(ref) != 10 {
		t.Fatalf("length %d", v.Heap.Length(ref))
	}
	for i := 0; i < 10; i++ {
		v.Heap.SetElem(ref, i, uint64(uint32(int32(i*i))))
	}
	for i := 0; i < 10; i++ {
		if got := int32(uint32(v.Heap.GetElem(ref, i))); got != int32(i*i) {
			t.Errorf("elem %d = %d", i, got)
		}
	}
	if got := v.Heap.Int32Slice(ref); len(got) != 10 || got[3] != 9 {
		t.Errorf("Int32Slice = %v", got)
	}
}

func TestArrayBounds(t *testing.T) {
	v := testVM(t)
	ref, _ := v.Heap.NewInt32Array([]int32{1, 2, 3})
	for _, idx := range []int{-1, 3, 1000} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("no panic for index %d", idx)
				} else if _, ok := r.(*BoundsError); !ok {
					t.Errorf("wrong panic type %T", r)
				}
			}()
			v.Heap.GetElem(ref, idx)
		}()
	}
}

func TestMultiDimArray(t *testing.T) {
	v := testVM(t)
	at := v.ArrayType(KindFloat64, nil, 2)
	ref, err := v.Heap.AllocMultiDim(at, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if v.Heap.Length(ref) != 12 {
		t.Fatalf("total length %d", v.Heap.Length(ref))
	}
	dims := v.Heap.Dims(ref)
	if len(dims) != 2 || dims[0] != 3 || dims[1] != 4 {
		t.Fatalf("dims %v", dims)
	}
	// Row-major addressing.
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			v.Heap.SetElem(ref, r*4+c, BitsFromF64(float64(r*10+c)))
		}
	}
	if got := F64FromBits(v.Heap.GetElem(ref, 2*4+3)); got != 23 {
		t.Errorf("elem[2,3] = %g", got)
	}
	if v.Heap.DataSize(ref) != 12*8 {
		t.Errorf("data size %d", v.Heap.DataSize(ref))
	}
}

func TestDataRangeIsInstanceData(t *testing.T) {
	v := testVM(t)
	ref, _ := v.Heap.NewUint8Array([]byte{9, 8, 7, 6})
	s, e := v.Heap.DataRange(ref)
	if e-s != 4 {
		t.Fatalf("range size %d", e-s)
	}
	b := v.Heap.DataBytes(ref)
	if b[0] != 9 || b[3] != 6 {
		t.Errorf("bytes %v", b)
	}
	// Writing through the range must be visible through typed access
	// (this is the zero-copy transport path).
	b[1] = 200
	if got := v.Heap.GetElem(ref, 1); got != 200 {
		t.Errorf("typed read %d after raw write", got)
	}
}

func TestBigObjectGoesToElder(t *testing.T) {
	v := testVM(t)
	at := v.ArrayType(KindUint8, nil, 1)
	// Bigger than half the nursery (64 KiB nursery in testVM).
	ref, err := v.Heap.AllocArray(at, 48<<10)
	if err != nil {
		t.Fatal(err)
	}
	if v.Heap.IsYoung(ref) {
		t.Error("large object allocated in the nursery")
	}
}

func TestAllocZeroed(t *testing.T) {
	v := testVM(t)
	at := v.ArrayType(KindUint8, nil, 1)
	ref, _ := v.Heap.AllocArray(at, 128)
	for i, b := range v.Heap.DataBytes(ref) {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestArenaOOM(t *testing.T) {
	v := closing(t, New(Config{Heap: HeapConfig{YoungSize: 16 << 10, InitialElder: 32 << 10, ArenaMax: 128 << 10}}))
	at := v.ArrayType(KindUint8, nil, 1)
	var refs []Ref
	hold := RootFunc(func(visit func(Ref) Ref) {
		for i := range refs {
			refs[i] = visit(refs[i])
		}
	})
	v.AddRootProvider(hold)
	var sawOOM bool
	for i := 0; i < 1000; i++ {
		ref, err := v.Heap.AllocArray(at, 4<<10)
		if err != nil {
			sawOOM = true
			break
		}
		refs = append(refs, ref)
	}
	if !sawOOM {
		t.Fatal("no OOM on a bounded arena with all objects live")
	}
}

func TestHandleTable(t *testing.T) {
	v := testVM(t)
	ref, _ := v.Heap.NewInt32Array([]int32{5})
	h := v.Handles.Alloc(ref)
	if v.Handles.Get(h) != ref {
		t.Fatal("handle get mismatch")
	}
	if v.Handles.Live() != 1 {
		t.Errorf("live = %d", v.Handles.Live())
	}
	v.Handles.Free(h)
	if v.Handles.Get(h) != NullRef {
		t.Error("freed handle still resolves")
	}
	h2 := v.Handles.Alloc(ref)
	if h2 != h {
		t.Error("slot not reused")
	}
	v.Handles.Free(h2)
}

func TestDuplicateTypeAndFieldRejected(t *testing.T) {
	v := testVM(t)
	pointClass(v)
	if _, err := v.NewClass("Point", nil, nil); err == nil {
		t.Error("duplicate class accepted")
	}
	if _, err := v.NewClass("Dup", nil, []FieldSpec{
		{Name: "f", Kind: KindInt32}, {Name: "f", Kind: KindInt64},
	}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := v.NewClass("Voidy", nil, []FieldSpec{{Name: "v", Kind: KindVoid}}); err == nil {
		t.Error("void field accepted")
	}
}

func TestArrayTypeCanonicalization(t *testing.T) {
	v := testVM(t)
	a := v.ArrayType(KindInt32, nil, 1)
	b := v.ArrayType(KindInt32, nil, 1)
	if a != b {
		t.Error("array types not canonicalized")
	}
	c := v.ArrayType(KindInt32, nil, 2)
	if a == c {
		t.Error("rank ignored")
	}
	if !a.IsSimpleArray() {
		t.Error("int32[] not simple")
	}
	n := nodeClass(v)
	oa := v.ArrayType(KindRef, n, 1)
	if oa.IsSimpleArray() {
		t.Error("Node[] reported simple")
	}
	if !oa.HasRefFields() {
		t.Error("Node[] has no ref fields?")
	}
}
