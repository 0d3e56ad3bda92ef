package vm

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
)

func assembleAndRun(t *testing.T, src string, args ...Value) (Value, *VM) {
	t.Helper()
	v := testVM(t)
	main, err := v.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if main == nil {
		t.Fatal("no main method")
	}
	var out Value
	v.WithThread("t", func(th *Thread) {
		r, err := th.Call(main, args...)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		out = r
	})
	return out, v
}

func TestMasmHello(t *testing.T) {
	src := `
.method main (0) int32
  ldc.i4 40
  ldc.i4 2
  add
  ret.val
.end
`
	out, _ := assembleAndRun(t, src)
	if out.Int() != 42 {
		t.Errorf("got %d", out.Int())
	}
}

func TestMasmLoopAndLabels(t *testing.T) {
	src := `
; sum of squares below n
.method main (1) int32
  .locals 2
  ldc.i4 0
  stloc 0            ; acc
  ldc.i4 0
  stloc 1            ; i
loop:
  ldloc 1  ldarg 0  clt
  brfalse done
  ldloc 0  ldloc 1  ldloc 1  mul  add  stloc 0
  ldloc 1  ldc.i4 1  add  stloc 1
  br loop
done:
  ldloc 0
  ret.val
.end
`
	out, _ := assembleAndRun(t, src, IntValue(5))
	if out.Int() != 0+1+4+9+16 {
		t.Errorf("got %d", out.Int())
	}
}

func TestMasmClassesAndTransportable(t *testing.T) {
	src := `
.class LinkedArray
  .field transportable int32[] array
  .field transportable LinkedArray next
  .field LinkedArray next2
.end

.method main (0) int32
  .locals 2
  newobj LinkedArray
  stloc 0
  ldc.i4 4
  newarr int32
  stloc 1
  ldloc 0  ldloc 1  stfld LinkedArray.array
  ldloc 0  newobj LinkedArray  stfld LinkedArray.next
  ldloc 0  ldfld LinkedArray.array  ldlen
  ret.val
.end
`
	out, v := assembleAndRun(t, src)
	if out.Int() != 4 {
		t.Errorf("got %d", out.Int())
	}
	mt, ok := v.TypeByName("LinkedArray")
	if !ok {
		t.Fatal("class not registered")
	}
	// The Transportable bit must match the paper's Fig. 5 example:
	// array and next are propagated; next2 is not.
	if !mt.FieldByName("array").Transportable() {
		t.Error("array not transportable")
	}
	if !mt.FieldByName("next").Transportable() {
		t.Error("next not transportable")
	}
	if mt.FieldByName("next2").Transportable() {
		t.Error("next2 should not be transportable")
	}
	tr := mt.TransportableRefs()
	if len(tr) != 2 {
		t.Errorf("transportable refs %d", len(tr))
	}
}

func TestMasmMethodsAndCalls(t *testing.T) {
	src := `
.method add3 (3) int32
  ldarg 0  ldarg 1  add  ldarg 2  add
  ret.val
.end

.method main (0) int32
  ldc.i4 1  ldc.i4 2  ldc.i4 3
  call add3
  ret.val
.end
`
	out, _ := assembleAndRun(t, src)
	if out.Int() != 6 {
		t.Errorf("got %d", out.Int())
	}
}

func TestMasmVirtualMethods(t *testing.T) {
	src := `
.class Shape
  .method virtual area (0) int32
    ldc.i4 0
    ret.val
  .end
.end

.class Square extends Shape
  .field int32 side
  .method virtual area (0) int32
    ldarg 0  ldfld Square.side
    ldarg 0  ldfld Square.side
    mul
    ret.val
  .end
.end

.method main (0) int32
  .locals 1
  newobj Square
  stloc 0
  ldloc 0  ldc.i4 9  stfld Square.side
  ldloc 0
  callvirt Shape.area
  ret.val
.end
`
	out, _ := assembleAndRun(t, src)
	if out.Int() != 81 {
		t.Errorf("got %d", out.Int())
	}
}

func TestMasmGlobals(t *testing.T) {
	src := `
.global total

.method bump (1) void
  ldsfld total  ldarg 0  add  stsfld total
  ret
.end

.method main (0) int32
  ldc.i4 10  call bump
  ldc.i4 32  call bump
  ldsfld total
  ret.val
.end
`
	out, _ := assembleAndRun(t, src)
	if out.Int() != 42 {
		t.Errorf("got %d", out.Int())
	}
}

func TestMasmConsoleIntern(t *testing.T) {
	var buf bytes.Buffer
	v := closing(t, New(Config{Stdout: &buf, Heap: HeapConfig{YoungSize: 64 << 10, InitialElder: 256 << 10, ArenaMax: 16 << 20}}))
	main, err := v.Assemble(`
.method main (0) void
  ldc.i4 123
  intern console.writei
  intern console.newline
  ret
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	v.WithThread("t", func(th *Thread) {
		if _, err := th.Call(main); err != nil {
			t.Fatal(err)
		}
	})
	if got := buf.String(); got != "123\n" {
		t.Errorf("output %q", got)
	}
}

func TestMasmErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown instruction", ".method main (0) void\n  frobnicate\n.end", "unknown instruction"},
		{"undefined label", ".method main (0) void\n  br nowhere\n.end", "undefined label"},
		{"unknown type", ".method main (0) void\n  newobj Ghost\n.end", "unknown type"},
		{"unknown field", ".class C\n.end\n.method main (0) void\n  ldnull\n  ldfld C.missing\n.end", "no field"},
		{"missing end", ".method main (0) void\n  ret", ".method without .end"},
		{"bad class header", ".class\n.end", ".class NAME"},
		{"unknown global", ".method main (0) void\n  ldsfld nope\n.end", "unknown global"},
		{"unknown method", ".method main (0) void\n  call nope\n.end", "unknown method"},
		{"duplicate class", ".class C\n.end\n.class C\n.end", "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := testVM(t)
			_, err := v.Assemble(tc.src)
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestMasmFieldTypes(t *testing.T) {
	src := `
.class Kitchen
  .field bool hot
  .field uint8 b
  .field int16 s
  .field char c
  .field float32 f
  .field float64 d
  .field object any
  .field float64[] vec
  .field float64[][] mat
.end

.method main (0) int32
  ldc.i4 0
  ret.val
.end
`
	_, v := assembleAndRun(t, src)
	mt, _ := v.TypeByName("Kitchen")
	checks := map[string]Kind{
		"hot": KindBool, "b": KindUint8, "s": KindInt16, "c": KindChar,
		"f": KindFloat32, "d": KindFloat64, "any": KindRef, "vec": KindRef, "mat": KindRef,
	}
	for name, want := range checks {
		f := mt.FieldByName(name)
		if f == nil {
			t.Fatalf("missing field %s", name)
		}
		if f.Kind() != want {
			t.Errorf("field %s kind %s, want %s", name, f.Kind(), want)
		}
	}
	if mt.FieldByName("vec").DeclaredType == nil || !mt.FieldByName("vec").DeclaredType.IsArray() {
		t.Error("vec declared type not an array")
	}
}

func TestMasmGCDuringManagedCode(t *testing.T) {
	src := `
; allocate garbage in a loop, forcing collections, while holding a
; live linked structure in a local.
.class Cell
  .field Cell next
  .field int32 v
.end

.method main (0) int32
  .locals 3
  newobj Cell
  stloc 0
  ldloc 0  ldc.i4 77  stfld Cell.v
  ldc.i4 200
  stloc 1
loop:
  ldloc 1  brfalse done
  ldc.i4 512  newarr int64  pop
  newobj Cell  stloc 2
  ldloc 2  ldloc 0  stfld Cell.next
  ldloc 2  stloc 0
  ldloc 1  ldc.i4 1  sub  stloc 1
  br loop
done:
  ; walk to the tail and read v
walk:
  ldloc 0  ldfld Cell.next  ldnull  ceq  brtrue read
  ldloc 0  ldfld Cell.next  stloc 0
  br walk
read:
  ldloc 0  ldfld Cell.v
  ret.val
.end
`
	v := closing(t, New(Config{Heap: HeapConfig{YoungSize: 16 << 10, InitialElder: 128 << 10, ArenaMax: 64 << 20}}))
	main, err := v.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var out Value
	v.WithThread("t", func(th *Thread) {
		r, err := th.Call(main)
		if err != nil {
			t.Fatal(err)
		}
		out = r
	})
	if out.Int() != 77 {
		t.Errorf("tail v = %d", out.Int())
	}
	if v.Heap.Stats.Scavenges == 0 {
		t.Error("no collections; test ineffective")
	}
}

func TestMasmStaticClassMethod(t *testing.T) {
	src := `
.class MathUtil
  .method square (1) int32
    ldarg 0  ldarg 0  mul
    ret.val
  .end
.end

.method main (0) int32
  ldc.i4 9
  call MathUtil.square
  ret.val
.end
`
	out, _ := assembleAndRun(t, src)
	if out.Int() != 81 {
		t.Errorf("got %d", out.Int())
	}
}

func TestMasmInheritedFieldsAccessible(t *testing.T) {
	src := `
.class Base
  .field int32 a
.end
.class Derived extends Base
  .field int32 b
.end

.method main (0) int32
  .locals 1
  newobj Derived
  stloc 0
  ldloc 0  ldc.i4 30  stfld Base.a
  ldloc 0  ldc.i4 12  stfld Derived.b
  ldloc 0  ldfld Derived.a       ; inherited field via derived type
  ldloc 0  ldfld Derived.b
  add
  ret.val
.end
`
	out, _ := assembleAndRun(t, src)
	if out.Int() != 42 {
		t.Errorf("got %d", out.Int())
	}
}

func TestMasmMutuallyRecursiveMethods(t *testing.T) {
	// isEven/isOdd mutual recursion: forward method references work.
	src := `
.method isEven (1) int32
  ldarg 0  brfalse yes
  ldarg 0  ldc.i4 1  sub
  call isOdd
  ret.val
yes:
  ldc.i4 1
  ret.val
.end

.method isOdd (1) int32
  ldarg 0  brfalse no
  ldarg 0  ldc.i4 1  sub
  call isEven
  ret.val
no:
  ldc.i4 0
  ret.val
.end

.method main (0) int32
  ldc.i4 10  call isEven        ; 1
  ldc.i4 7   call isOdd         ; 1
  add
  ret.val
.end
`
	out, _ := assembleAndRun(t, src)
	if out.Int() != 2 {
		t.Errorf("got %d", out.Int())
	}
}

// TestMasmLexAllocation: assembling a module the size of the ping-pong
// workload allocates a few KiB, not a buffer as large as the lexer's
// 1 MiB line cap: a 2-rank load used to drop 2 MiB, enough to start
// the Go collector inside a benchmark child's set-up.
func TestMasmLexAllocation(t *testing.T) {
	src, err := os.ReadFile("../../benchmark/workloads/pp.masm")
	if err != nil {
		t.Fatal(err)
	}
	v := testVM(t)
	for _, name := range []string{"mp.send", "mp.recv"} {
		v.RegisterInternal(InternalFunc{Name: name, NArgs: 3, HasRet: true,
			Fn: func(*Thread, []Value) (Value, error) { return IntValue(0), nil }})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := v.AssembleModule(string(src)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("assembling %d bytes of source allocated %d bytes", len(src), n)
	}
}

// TestMasmLexLineCap: a line up to the 1 MiB cap lexes, a longer one
// fails with the scanner's error.
func TestMasmLexLineCap(t *testing.T) {
	long := "; " + strings.Repeat("x", 600<<10) + "\n.method main (0) int32\n ldc.i4 7\n ret.val\n.end\n"
	lines, err := lexMasm(long)
	if err != nil || len(lines) != 4 || lines[0].num != 2 || lines[0].tokens[0] != ".method" {
		t.Fatalf("600 KiB line: %d lines, err %v", len(lines), err)
	}
	v := testVM(t)
	if _, err := v.AssembleModule("; " + strings.Repeat("x", 1<<20) + "\n"); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over 1 MiB: err %v, want %v", err, bufio.ErrTooLong)
	}
}
