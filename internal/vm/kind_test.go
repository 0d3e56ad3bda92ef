package vm

import "testing"

func TestKindSizes(t *testing.T) {
	want := map[Kind]int{
		KindBool: 1, KindInt8: 1, KindUint8: 1,
		KindInt16: 2, KindUint16: 2, KindChar: 2,
		KindInt32: 4, KindUint32: 4, KindFloat32: 4, KindRef: 4,
		KindInt64: 8, KindUint64: 8, KindFloat64: 8,
		KindVoid: 0,
	}
	for k, size := range want {
		if k.Size() != size {
			t.Errorf("%s size %d, want %d", k, k.Size(), size)
		}
	}
	if Kind(200).Size() != 0 {
		t.Error("out-of-range kind has nonzero size")
	}
}

func TestKindSimple(t *testing.T) {
	for k := KindBool; k < KindRef; k++ {
		if !k.Simple() {
			t.Errorf("%s not simple", k)
		}
	}
	if KindRef.Simple() || KindVoid.Simple() {
		t.Error("ref/void reported simple")
	}
}

func TestKindByNameRoundtrip(t *testing.T) {
	for k := KindVoid; k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok {
			t.Errorf("KindByName(%q) not found", k.String())
			continue
		}
		if got != k {
			t.Errorf("KindByName(%q) = %s", k.String(), got)
		}
	}
	if _, ok := KindByName("quaternion"); ok {
		t.Error("unknown kind resolved")
	}
	if Kind(99).String() == "" {
		t.Error("out-of-range kind has empty name")
	}
}

func TestValueHelpers(t *testing.T) {
	if v := IntValue(-5); v.Int() != -5 || v.IsRef {
		t.Errorf("IntValue: %+v", v)
	}
	if v := FloatValue(2.5); v.Float() != 2.5 {
		t.Errorf("FloatValue: %+v", v)
	}
	if v := RefValue(Ref(0x100)); !v.IsRef || v.Ref() != 0x100 {
		t.Errorf("RefValue: %+v", v)
	}
	if !BoolValue(true).Bool() || BoolValue(false).Bool() {
		t.Error("BoolValue")
	}
	if BoolValue(true).Int() != 1 {
		t.Error("bool as int")
	}
}

func TestFieldDescBits(t *testing.T) {
	fd := makeFieldDesc("f", 1234, KindFloat64, true, nil)
	if fd.Offset() != 1234 {
		t.Errorf("offset %d", fd.Offset())
	}
	if fd.Kind() != KindFloat64 {
		t.Errorf("kind %s", fd.Kind())
	}
	if !fd.Transportable() {
		t.Error("transportable bit lost")
	}
	if fd.IsRef() {
		t.Error("float64 reported ref")
	}
	fd2 := makeFieldDesc("g", (1<<fdOffsetBits)-8, KindRef, false, nil)
	if fd2.Offset() != (1<<fdOffsetBits)-8 {
		t.Errorf("max offset %d", fd2.Offset())
	}
	if fd2.Transportable() {
		t.Error("transportable bit set")
	}
	if !fd2.IsRef() {
		t.Error("ref field not ref")
	}
}

func TestMethodTableString(t *testing.T) {
	v := testVM(t)
	n := nodeClass(v)
	cases := map[*MethodTable]string{
		n:                                "Node",
		v.ArrayType(KindInt32, nil, 1):   "int32[rank=1]",
		v.ArrayType(KindRef, n, 1):       "Node[]",
		v.ArrayType(KindFloat64, nil, 2): "float64[rank=2]",
	}
	for mt, want := range cases {
		if mt.String() != want {
			t.Errorf("%v String %q, want %q", mt.Name, mt.String(), want)
		}
	}
	var nilMT *MethodTable
	if nilMT.String() != "<nil type>" {
		t.Error("nil MT string")
	}
}

func TestMethodFullName(t *testing.T) {
	v := testVM(t)
	n := nodeClass(v)
	m := v.AddMethod(n, &Method{Name: "walk"})
	if m.FullName() != "Node.walk" {
		t.Errorf("full name %q", m.FullName())
	}
	free := v.AddMethod(nil, &Method{Name: "main"})
	if free.FullName() != "main" {
		t.Errorf("module method name %q", free.FullName())
	}
}

func TestTransportableRefs(t *testing.T) {
	v := testVM(t)
	n := nodeClass(v) // data, next transportable; shadow not; id scalar
	tr := n.TransportableRefs()
	if len(tr) != 2 {
		t.Fatalf("%d transportable refs", len(tr))
	}
	if tr[0].Name != "data" || tr[1].Name != "next" {
		t.Errorf("order %s %s", tr[0].Name, tr[1].Name)
	}
}
