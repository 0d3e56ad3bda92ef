package vm

import "testing"

func TestArrayTypeNames(t *testing.T) {
	v := testVM(t)
	n := nodeClass(v)
	cases := []struct {
		mt   *MethodTable
		want string
	}{
		{v.ArrayType(KindInt32, nil, 1), "int32[]"},
		{v.ArrayType(KindFloat64, nil, 2), "float64[,]"},
		{v.ArrayType(KindInt64, nil, 3), "int64[,,]"},
		{v.ArrayType(KindRef, n, 1), "Node[]"},
		{v.ArrayType(KindRef, v.ArrayType(KindInt32, nil, 1), 1), "int32[][]"},
		{v.ArrayType(KindRef, v.ArrayType(KindFloat64, nil, 2), 1), "float64[,][]"},
	}
	for _, tc := range cases {
		if tc.mt.Name != tc.want {
			t.Errorf("name %q, want %q", tc.mt.Name, tc.want)
		}
	}
	// Jagged and multidim must be DISTINCT types.
	jagged := v.ArrayType(KindRef, v.ArrayType(KindInt32, nil, 1), 1)
	multi := v.ArrayType(KindInt32, nil, 2)
	if jagged == multi {
		t.Fatal("jagged and multidim conflated")
	}
	if jagged.Name == multi.Name {
		t.Fatal("jagged and multidim share a name")
	}
}

func TestResolveTypeNameRoundtrip(t *testing.T) {
	v := testVM(t)
	n := nodeClass(v)
	_ = n
	names := []string{
		"Node", "int32[]", "float64[,]", "Node[]", "int32[][]",
		"float64[,][]", "object[]", "Node[][]",
	}
	for _, name := range names {
		mt, err := v.ResolveTypeName(name)
		if err != nil {
			t.Errorf("resolve %q: %v", name, err)
			continue
		}
		if mt.Kind == TKArray && mt.Name != name {
			t.Errorf("resolve %q produced %q", name, mt.Name)
		}
	}
	// Resolution is canonical: same name, same method table.
	a, _ := v.ResolveTypeName("int32[][]")
	b, _ := v.ResolveTypeName("int32[][]")
	if a != b {
		t.Error("resolution not canonical")
	}
	for _, bad := range []string{"Ghost", "int32", "Node[", "Node[x]", "[]", "Ghost[]"} {
		if _, err := v.ResolveTypeName(bad); err == nil {
			t.Errorf("bad name %q accepted", bad)
		}
	}
}

func TestMasmMultiDim(t *testing.T) {
	src := `
.method main (0) float64
  .locals 1
  ; allocate a 3x4 rectangular matrix, fill [2,3], read it back
  ldc.i4 3  ldc.i4 4  newmd float64[,]
  stloc 0
  ldloc 0  ldc.i4 11  ldc.r8 6.5  stelem    ; [2,3] = row 2 * 4 + 3 = 11
  ldloc 0  ldc.i4 11  ldelem
  ret.val
.end
`
	out, v := assembleAndRun(t, src)
	if out.Float() != 6.5 {
		t.Errorf("got %g", out.Float())
	}
	mt, ok := v.TypeByName("float64[,]")
	if !ok || mt.Rank != 2 {
		t.Error("multidim type not registered via masm")
	}
}

func TestMasmNewMDErrors(t *testing.T) {
	v := testVM(t)
	if _, err := v.Assemble(".method main (0) void\n  ldc.i4 2 newmd float64[]\n.end"); err == nil {
		t.Error("newmd on vector type accepted")
	}
	if _, err := v.Assemble(".method main (0) void\n  ldc.i4 2 newmd Ghost[,]\n.end"); err == nil {
		t.Error("newmd on unknown type accepted")
	}
}

func TestMasmJaggedArrays(t *testing.T) {
	src := `
.method main (0) int32
  .locals 2
  ; outer: int32[][] of length 2; inner rows of lengths 1 and 2
  ldc.i4 2  newarr int32[]
  stloc 0
  ldc.i4 1  newarr int32  stloc 1
  ldloc 1  ldc.i4 0  ldc.i4 5  stelem
  ldloc 0  ldc.i4 0  ldloc 1  stelem
  ldc.i4 2  newarr int32  stloc 1
  ldloc 1  ldc.i4 1  ldc.i4 7  stelem
  ldloc 0  ldc.i4 1  ldloc 1  stelem
  ; return outer[0][0] + outer[1][1]
  ldloc 0  ldc.i4 0  ldelem  ldc.i4 0  ldelem
  ldloc 0  ldc.i4 1  ldelem  ldc.i4 1  ldelem
  add
  ret.val
.end
`
	out, _ := assembleAndRun(t, src)
	if out.Int() != 12 {
		t.Errorf("got %d", out.Int())
	}
}

func TestMasmMultiDimFieldType(t *testing.T) {
	src := `
.class Grid
  .field float64[,] cells
  .field int32[][] jag
.end
.method main (0) int32
  ldc.i4 0
  ret.val
.end
`
	_, v := assembleAndRun(t, src)
	mt, _ := v.TypeByName("Grid")
	cells := mt.FieldByName("cells")
	if cells == nil || cells.DeclaredType == nil || cells.DeclaredType.Rank != 2 {
		t.Error("cells field type wrong")
	}
	jag := mt.FieldByName("jag")
	if jag == nil || jag.DeclaredType == nil || jag.DeclaredType.Elem != KindRef {
		t.Error("jag field type wrong")
	}
}
