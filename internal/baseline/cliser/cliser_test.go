package cliser

import (
	"bytes"
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
			vals[j] = int32(i + j)
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

func verifyChain(t *testing.T, v *vm.VM, mt *vm.MethodTable, head vm.Ref, n, payload int) {
	t.Helper()
	h := v.Heap
	count := 0
	for cur := head; cur != vm.NullRef; cur = h.GetRef(cur, mt.FieldByName("next")) {
		if got := int32(uint32(h.GetScalar(cur, mt.FieldByName("id")))); got != int32(count) {
			t.Fatalf("node %d id %d", count, got)
		}
		arr := h.GetRef(cur, mt.FieldByName("data"))
		if arr == vm.NullRef {
			t.Fatalf("node %d data missing (opt-out semantics)", count)
		}
		if h.Length(arr) != payload {
			t.Fatalf("node %d payload %d", count, h.Length(arr))
		}
		count++
	}
	if count != n {
		t.Fatalf("chain %d nodes, want %d", count, n)
	}
}

func TestCLIRoundtripBothProfiles(t *testing.T) {
	for _, profile := range []Profile{ProfileSSCLI, ProfileNET} {
		profile := profile
		t.Run(profile.String(), func(t *testing.T) {
			src := newVM(t)
			mt := cellTypes(src)
			head := buildChain(src, mt, 12, 3)
			data, err := Serialize(src.Heap, head, profile)
			if err != nil {
				t.Fatal(err)
			}
			dst := newVM(t)
			dmt := cellTypes(dst)
			out, err := Deserialize(dst, data)
			if err != nil {
				t.Fatal(err)
			}
			verifyChain(t, dst, dmt, out, 12, 3)
		})
	}
}

func TestProfilesProduceIdenticalStreams(t *testing.T) {
	// The profiles differ in COST, not in format.
	src := newVM(t)
	mt := cellTypes(src)
	head := buildChain(src, mt, 8, 2)
	a, err := Serialize(src.Heap, head, ProfileSSCLI)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Serialize(src.Heap, head, ProfileNET)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("profiles disagree on stream bytes")
	}
}

func TestCLILongChainNoOverflow(t *testing.T) {
	// BinaryFormatter traverses iteratively: the 8192-object point of
	// Figure 10 works where Java serialization has already died.
	src := newVM(t)
	mt := cellTypes(src)
	head := buildChain(src, mt, 5000, 1)
	data, err := Serialize(src.Heap, head, ProfileNET)
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
	if count != 5000 {
		t.Errorf("chain %d", count)
	}
}

func TestCLISharedAndCycle(t *testing.T) {
	src := newVM(t)
	mt := cellTypes(src)
	h := src.Heap
	guard := &vm.RefRoots{Refs: make([]vm.Ref, 3)}
	src.AddRootProvider(guard)
	a, _ := h.AllocClass(mt)
	guard.Refs[0] = a
	bb, _ := h.AllocClass(mt)
	guard.Refs[1] = bb
	shared, _ := h.NewInt32Array([]int32{1, 2})
	guard.Refs[2] = shared
	a, bb = guard.Refs[0], guard.Refs[1]
	h.SetRef(a, mt.FieldByName("next"), bb)
	h.SetRef(bb, mt.FieldByName("next"), a) // cycle
	h.SetRef(a, mt.FieldByName("data"), guard.Refs[2])
	h.SetRef(bb, mt.FieldByName("data"), guard.Refs[2]) // shared
	src.RemoveRootProvider(guard)

	data, err := Serialize(h, a, ProfileSSCLI)
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
	ob := dh.GetRef(out, dmt.FieldByName("next"))
	if dh.GetRef(ob, dmt.FieldByName("next")) != out {
		t.Error("cycle broken")
	}
	if dh.GetRef(out, dmt.FieldByName("data")) != dh.GetRef(ob, dmt.FieldByName("data")) {
		t.Error("shared array duplicated")
	}
}

func TestCLICorruptStream(t *testing.T) {
	src := newVM(t)
	mt := cellTypes(src)
	head := buildChain(src, mt, 2, 1)
	data, _ := Serialize(src.Heap, head, ProfileNET)
	dst := newVM(t)
	cellTypes(dst)
	if _, err := Deserialize(dst, data[:6]); err == nil {
		t.Error("truncated accepted")
	}
	bad := append([]byte(nil), data...)
	bad[1] ^= 0xAA
	if _, err := Deserialize(dst, bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Deserialize(newVM(t), data); err == nil {
		t.Error("typeless receiver accepted")
	}
}

func TestCLIDeserializeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := newVM(t)
	mt := cellTypes(src)
	head := buildChain(src, mt, 4, 2)
	valid, err := Serialize(src.Heap, head, ProfileNET)
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
