package javaser

import (
	"errors"
	"math/rand"
	"testing"

	"motor/internal/vm"
)

// newVM builds a VM whose arena is released when the test ends (left
// reserved if it failed: a rank may still be running).
func newVM(t testing.TB) *vm.VM {
	v := vm.New(vm.Config{Heap: vm.HeapConfig{YoungSize: 256 << 10, InitialElder: 2 << 20, ArenaMax: 256 << 20}})
	t.Cleanup(func() {
		if !t.Failed() {
			v.Close()
		}
	})
	return v
}

// cellTypes registers a Java-style linked cell: ALL refs travel
// (opt-out), no Transportable involved.
func cellTypes(v *vm.VM) *vm.MethodTable {
	mt, err := v.DeclareClass("Cell")
	if err != nil {
		panic(err)
	}
	i32arr := v.ArrayType(vm.KindInt32, nil, 1)
	if err := v.CompleteClass(mt, nil, []vm.FieldSpec{
		{Name: "data", Kind: vm.KindRef, Type: i32arr},
		{Name: "next", Kind: vm.KindRef, Type: mt},
		{Name: "id", Kind: vm.KindInt32},
	}); err != nil {
		panic(err)
	}
	return mt
}

func buildChain(v *vm.VM, mt *vm.MethodTable, n, payload int) vm.Ref {
	h := v.Heap
	fData, fNext, fID := mt.FieldByName("data"), mt.FieldByName("next"), mt.FieldByName("id")
	guard := &vm.RefRoots{Refs: make([]vm.Ref, 2)}
	v.AddRootProvider(guard)
	defer v.RemoveRootProvider(guard)
	for i := n - 1; i >= 0; i-- {
		node, err := h.AllocClass(mt)
		if err != nil {
			panic(err)
		}
		guard.Refs[1] = node
		vals := make([]int32, payload)
		for j := range vals {
			vals[j] = int32(i*10 + j)
		}
		arr, err := h.NewInt32Array(vals)
		if err != nil {
			panic(err)
		}
		node = guard.Refs[1]
		h.SetRef(node, fData, arr)
		h.SetScalar(node, fID, uint64(uint32(int32(i))))
		if guard.Refs[0] != vm.NullRef {
			h.SetRef(node, fNext, guard.Refs[0])
		}
		guard.Refs[0] = node
	}
	return guard.Refs[0]
}

func TestJavaRoundtrip(t *testing.T) {
	src := newVM(t)
	mt := cellTypes(src)
	head := buildChain(src, mt, 10, 4)
	data, err := Serialize(src.Heap, head)
	if err != nil {
		t.Fatal(err)
	}
	dst := newVM(t)
	dmt := cellTypes(dst)
	out, err := Deserialize(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	h := dst.Heap
	count := 0
	for cur := out; cur != vm.NullRef; cur = h.GetRef(cur, dmt.FieldByName("next")) {
		if got := int32(uint32(h.GetScalar(cur, dmt.FieldByName("id")))); got != int32(count) {
			t.Fatalf("node %d id %d", count, got)
		}
		arr := h.GetRef(cur, dmt.FieldByName("data"))
		if arr == vm.NullRef {
			t.Fatalf("node %d: data did not travel (Java is opt-out!)", count)
		}
		vals := h.Int32Slice(arr)
		if vals[0] != int32(count*10) {
			t.Fatalf("node %d payload %v", count, vals)
		}
		count++
	}
	if count != 10 {
		t.Errorf("chain length %d", count)
	}
}

func TestJavaStackOverflowAt1024(t *testing.T) {
	// The Figure 10 caption: "mpiJava results stop at 1024 objects
	// because longer linked lists caused a stack overflow exception".
	src := newVM(t)
	mt := cellTypes(src)
	// 1024 cells is fine...
	ok := buildChain(src, mt, 512, 1)
	if _, err := Serialize(src.Heap, ok); err != nil {
		t.Fatalf("512 cells failed: %v", err)
	}
	// ...but a longer chain dies recursively.
	deep := buildChain(src, mt, 1200, 1)
	_, err := Serialize(src.Heap, deep)
	if !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("1200-cell chain: %v", err)
	}
}

func TestJavaSharedReference(t *testing.T) {
	src := newVM(t)
	mt := cellTypes(src)
	h := src.Heap
	guard := &vm.RefRoots{Refs: make([]vm.Ref, 3)}
	src.AddRootProvider(guard)
	a, _ := h.AllocClass(mt)
	guard.Refs[0] = a
	bb, _ := h.AllocClass(mt)
	guard.Refs[1] = bb
	shared, _ := h.NewInt32Array([]int32{3})
	guard.Refs[2] = shared
	a, bb = guard.Refs[0], guard.Refs[1]
	h.SetRef(a, mt.FieldByName("next"), bb)
	h.SetRef(a, mt.FieldByName("data"), guard.Refs[2])
	h.SetRef(bb, mt.FieldByName("data"), guard.Refs[2])
	src.RemoveRootProvider(guard)

	data, err := Serialize(h, a)
	if err != nil {
		t.Fatal(err)
	}
	dst := newVM(t)
	dmt := cellTypes(dst)
	out, err := Deserialize(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	dh := dst.Heap
	d1 := dh.GetRef(out, dmt.FieldByName("data"))
	d2 := dh.GetRef(dh.GetRef(out, dmt.FieldByName("next")), dmt.FieldByName("data"))
	if d1 != d2 {
		t.Error("shared reference duplicated (handle table broken)")
	}
}

func TestJavaHandleTableSwitch(t *testing.T) {
	// Crossing linearThreshold objects must still round-trip (the
	// linear->hashed switch).
	src := newVM(t)
	mt := cellTypes(src)
	head := buildChain(src, mt, linearThreshold+40, 0)
	data, err := Serialize(src.Heap, head)
	if err != nil {
		t.Fatal(err)
	}
	dst := newVM(t)
	dmt := cellTypes(dst)
	out, err := Deserialize(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	h := dst.Heap
	count := 0
	for cur := out; cur != vm.NullRef; cur = h.GetRef(cur, dmt.FieldByName("next")) {
		count++
	}
	if count != linearThreshold+40 {
		t.Errorf("chain length %d", count)
	}
}

func TestJavaCycle(t *testing.T) {
	src := newVM(t)
	mt := cellTypes(src)
	h := src.Heap
	guard := &vm.RefRoots{Refs: make([]vm.Ref, 2)}
	src.AddRootProvider(guard)
	a, _ := h.AllocClass(mt)
	guard.Refs[0] = a
	bb, _ := h.AllocClass(mt)
	guard.Refs[1] = bb
	a = guard.Refs[0]
	h.SetRef(a, mt.FieldByName("next"), bb)
	h.SetRef(bb, mt.FieldByName("next"), a)
	src.RemoveRootProvider(guard)
	data, err := Serialize(h, a)
	if err != nil {
		t.Fatal(err)
	}
	dst := newVM(t)
	dmt := cellTypes(dst)
	out, err := Deserialize(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	dh := dst.Heap
	if dh.GetRef(dh.GetRef(out, dmt.FieldByName("next")), dmt.FieldByName("next")) != out {
		t.Error("cycle broken")
	}
}

func TestJavaCorruptStream(t *testing.T) {
	src := newVM(t)
	mt := cellTypes(src)
	head := buildChain(src, mt, 2, 1)
	data, _ := Serialize(src.Heap, head)
	dst := newVM(t)
	cellTypes(dst)
	if _, err := Deserialize(dst, data[:3]); err == nil {
		t.Error("truncated stream accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := Deserialize(dst, bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Missing type on the receiver.
	empty := newVM(t)
	if _, err := Deserialize(empty, data); !errors.Is(err, ErrType) {
		t.Errorf("typeless receiver: %v", err)
	}
}

func TestJavaDeserializeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := newVM(t)
	mt := cellTypes(src)
	head := buildChain(src, mt, 4, 2)
	valid, err := Serialize(src.Heap, head)
	if err != nil {
		t.Fatal(err)
	}
	tryOne := func(data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %d bytes: %v", len(data), r)
			}
		}()
		dst := newVM(t)
		cellTypes(dst)
		_, _ = Deserialize(dst, data)
	}
	for i := 0; i < 150; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		tryOne(data)
	}
	for i := 0; i < 300; i++ {
		data := append([]byte(nil), valid...)
		if rng.Intn(2) == 0 && len(data) > 0 {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		} else {
			data = data[:rng.Intn(len(data)+1)]
		}
		tryOne(data)
	}
}
