package vm

import (
	"errors"
	"strings"
	"testing"
)

func runMethod(t *testing.T, v *VM, m *Method, args ...Value) Value {
	t.Helper()
	var out Value
	v.WithThread("t", func(th *Thread) {
		r, err := th.Call(m, args...)
		if err != nil {
			t.Fatalf("call %s: %v", m.FullName(), err)
		}
		out = r
	})
	return out
}

func TestInterpArithmetic(t *testing.T) {
	v := testVM(t)
	// (a+b)*a - b
	m := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).LdArg(1).Op(OpAdd).
		LdArg(0).Op(OpMul).
		LdArg(1).Op(OpSub).
		RetVal().
		Build("f", 2, 0, true))
	got := runMethod(t, v, m, IntValue(7), IntValue(5))
	if got.Int() != (7+5)*7-5 {
		t.Errorf("got %d", got.Int())
	}
}

func TestInterpFloatOps(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).LdArg(1).Op(OpDivF).
		LdcR8(0.5).Op(OpAddF).
		RetVal().
		Build("f", 2, 0, true))
	got := runMethod(t, v, m, FloatValue(3), FloatValue(4))
	if got.Float() != 3.0/4.0+0.5 {
		t.Errorf("got %g", got.Float())
	}
}

func TestInterpConversions(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).Op(OpConvI2F).LdcR8(2).Op(OpMulF).Op(OpConvF2I).
		RetVal().
		Build("f", 1, 0, true))
	if got := runMethod(t, v, m, IntValue(21)); got.Int() != 42 {
		t.Errorf("got %d", got.Int())
	}
}

func TestInterpLoop(t *testing.T) {
	v := testVM(t)
	// sum 1..n
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(0).StLoc(0). // sum
		LdArg(0).StLoc(1). // i
		Label("loop").
		LdLoc(1).BrFalse("done").
		LdLoc(0).LdLoc(1).Op(OpAdd).StLoc(0).
		LdLoc(1).LdcI4(1).Op(OpSub).StLoc(1).
		Br("loop").
		Label("done").
		LdLoc(0).RetVal().
		Build("sum", 1, 2, true))
	if got := runMethod(t, v, m, IntValue(100)); got.Int() != 5050 {
		t.Errorf("got %d", got.Int())
	}
}

func TestInterpDivByZeroTrap(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(1).LdcI4(0).Op(OpDiv).RetVal().
		Build("f", 0, 0, true))
	v.WithThread("t", func(th *Thread) {
		_, err := th.Call(m)
		var trap *Trap
		if !errors.As(err, &trap) {
			t.Fatalf("expected trap, got %v", err)
		}
		if trap.Kind != "division by zero" {
			t.Errorf("kind %q", trap.Kind)
		}
	})
}

func TestInterpStaticCall(t *testing.T) {
	v := testVM(t)
	callee := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).LdArg(0).Op(OpMul).RetVal().
		Build("square", 1, 0, true))
	caller := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).Call(callee).LdcI4(1).Op(OpAdd).RetVal().
		Build("f", 1, 0, true))
	if got := runMethod(t, v, caller, IntValue(6)); got.Int() != 37 {
		t.Errorf("got %d", got.Int())
	}
}

func TestInterpRecursion(t *testing.T) {
	v := testVM(t)
	b := NewCodeBuilder()
	// fib(n) = n < 2 ? n : fib(n-1)+fib(n-2)
	fib := &Method{Name: "fib", NArgs: 1, HasRet: true}
	v.AddMethod(nil, fib)
	b.LdArg(0).LdcI4(2).Op(OpClt).BrFalse("rec").
		LdArg(0).RetVal().
		Label("rec").
		LdArg(0).LdcI4(1).Op(OpSub).Call(fib).
		LdArg(0).LdcI4(2).Op(OpSub).Call(fib).
		Op(OpAdd).RetVal()
	fib.Code = b.Build("fib", 1, 0, true).Code
	if got := runMethod(t, v, fib, IntValue(15)); got.Int() != 610 {
		t.Errorf("fib(15) = %d", got.Int())
	}
}

func TestInterpCallDepthLimit(t *testing.T) {
	v := testVM(t)
	m := &Method{Name: "inf", NArgs: 0}
	v.AddMethod(nil, m)
	m.Code = NewCodeBuilder().Call(m).Ret().Build("inf", 0, 0, false).Code
	v.WithThread("t", func(th *Thread) {
		_, err := th.Call(m)
		if !errors.Is(err, ErrCallDepth) {
			t.Errorf("expected depth error, got %v", err)
		}
	})
}

func TestInterpObjectsAndFields(t *testing.T) {
	v := testVM(t)
	pt := pointClass(v)
	m := v.AddMethod(nil, NewCodeBuilder().
		NewObj(pt).StLoc(0).
		LdLoc(0).LdcI4(11).StFld(pt, "x").
		LdLoc(0).LdcI4(31).StFld(pt, "y").
		LdLoc(0).LdFld(pt, "x").
		LdLoc(0).LdFld(pt, "y").
		Op(OpAdd).RetVal().
		Build("f", 0, 1, true))
	if got := runMethod(t, v, m); got.Int() != 42 {
		t.Errorf("got %d", got.Int())
	}
}

func TestInterpNullFieldTrap(t *testing.T) {
	v := testVM(t)
	pt := pointClass(v)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdNull().LdFld(pt, "x").RetVal().
		Build("f", 0, 0, true))
	v.WithThread("t", func(th *Thread) {
		_, err := th.Call(m)
		var trap *Trap
		if !errors.As(err, &trap) || trap.Kind != "null reference" {
			t.Errorf("got %v", err)
		}
	})
}

func TestInterpArrays(t *testing.T) {
	v := testVM(t)
	i32arr := v.ArrayType(KindInt32, nil, 1)
	// build arr[n], fill with i*2, sum
	m := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).NewArr(i32arr).StLoc(0).
		LdcI4(0).StLoc(1). // i
		Label("fill").
		LdLoc(1).LdArg(0).Op(OpClt).BrFalse("sum").
		LdLoc(0).LdLoc(1).LdLoc(1).LdcI4(2).Op(OpMul).Op(OpStElem).
		LdLoc(1).LdcI4(1).Op(OpAdd).StLoc(1).
		Br("fill").
		Label("sum").
		LdcI4(0).StLoc(2).LdcI4(0).StLoc(1).
		Label("loop").
		LdLoc(1).LdLoc(0).Op(OpLdLen).Op(OpClt).BrFalse("done").
		LdLoc(2).LdLoc(0).LdLoc(1).Op(OpLdElem).Op(OpAdd).StLoc(2).
		LdLoc(1).LdcI4(1).Op(OpAdd).StLoc(1).
		Br("loop").
		Label("done").
		LdLoc(2).RetVal().
		Build("f", 1, 3, true))
	if got := runMethod(t, v, m, IntValue(10)); got.Int() != 90 {
		t.Errorf("got %d", got.Int())
	}
}

func TestInterpArrayBoundsTrap(t *testing.T) {
	v := testVM(t)
	i32arr := v.ArrayType(KindInt32, nil, 1)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(3).NewArr(i32arr).LdcI4(5).Op(OpLdElem).RetVal().
		Build("f", 0, 0, true))
	v.WithThread("t", func(th *Thread) {
		_, err := th.Call(m)
		var trap *Trap
		if !errors.As(err, &trap) || trap.Kind != "index out of range" {
			t.Errorf("got %v", err)
		}
	})
}

func TestInterpVirtualDispatch(t *testing.T) {
	v := testVM(t)
	base := v.MustNewClass("Animal", nil, nil)
	dog := v.MustNewClass("Dog", base, nil)
	cat := v.MustNewClass("Cat", base, nil)

	speakBase := &Method{Name: "speak", NArgs: 1, HasRet: true, Virtual: true}
	v.AddMethod(base, speakBase)
	speakBase.Code = NewCodeBuilder().LdcI4(0).RetVal().Build("speak", 1, 0, true).Code

	speakDog := &Method{Name: "speak", NArgs: 1, HasRet: true, Virtual: true}
	v.AddMethod(dog, speakDog)
	speakDog.Code = NewCodeBuilder().LdcI4(1).RetVal().Build("speak", 1, 0, true).Code

	speakCat := &Method{Name: "speak", NArgs: 1, HasRet: true, Virtual: true}
	v.AddMethod(cat, speakCat)
	speakCat.Code = NewCodeBuilder().LdcI4(2).RetVal().Build("speak", 1, 0, true).Code

	// f(): new Dog().speak() * 10 + new Cat().speak()
	m := v.AddMethod(nil, NewCodeBuilder().
		NewObj(dog).CallVirt(speakBase).LdcI4(10).Op(OpMul).
		NewObj(cat).CallVirt(speakBase).Op(OpAdd).
		RetVal().
		Build("f", 0, 0, true))
	if got := runMethod(t, v, m); got.Int() != 12 {
		t.Errorf("got %d", got.Int())
	}
}

func TestInterpGlobals(t *testing.T) {
	v := testVM(t)
	g := v.AddGlobal("counter")
	m := v.AddMethod(nil, NewCodeBuilder().
		LdSFld(g).LdcI4(1).Op(OpAdd).StSFld(g).
		LdSFld(g).RetVal().
		Build("inc", 0, 0, true))
	runMethod(t, v, m)
	runMethod(t, v, m)
	if got := runMethod(t, v, m); got.Int() != 3 {
		t.Errorf("got %d", got.Int())
	}
}

func TestInterpInternalCall(t *testing.T) {
	v := testVM(t)
	calls := 0
	idx := v.RegisterInternal(InternalFunc{
		Name: "test.double", NArgs: 1, HasRet: true,
		Fn: func(t *Thread, args []Value) (Value, error) {
			calls++
			return IntValue(args[0].Int() * 2), nil
		},
	})
	m := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).Intern(idx).RetVal().
		Build("f", 1, 0, true))
	if got := runMethod(t, v, m, IntValue(8)); got.Int() != 16 {
		t.Errorf("got %d", got.Int())
	}
	if calls != 1 {
		t.Errorf("calls %d", calls)
	}
}

func TestInterpSurvivesGCMidProgram(t *testing.T) {
	// A managed loop that allocates heavily; objects held in locals
	// must survive the collections triggered mid-loop.
	v := closing(t, New(Config{Heap: HeapConfig{YoungSize: 8 << 10, InitialElder: 64 << 10, ArenaMax: 32 << 20}}))
	pt := pointClass(v)
	i32arr := v.ArrayType(KindInt32, nil, 1)
	// keep one Point in loc0 with x=999; churn arrays; verify at end.
	m := v.AddMethod(nil, NewCodeBuilder().
		NewObj(pt).StLoc(0).
		LdLoc(0).LdcI4(999).StFld(pt, "x").
		LdcI4(500).StLoc(1).
		Label("loop").
		LdLoc(1).BrFalse("done").
		LdcI4(256).NewArr(i32arr).Op(OpPop). // garbage
		LdLoc(1).LdcI4(1).Op(OpSub).StLoc(1).
		Br("loop").
		Label("done").
		LdLoc(0).LdFld(pt, "x").RetVal().
		Build("churn", 0, 2, true))
	if got := runMethod(t, v, m); got.Int() != 999 {
		t.Errorf("x = %d after churn", got.Int())
	}
	if v.Heap.Stats.Scavenges == 0 {
		t.Error("no collections occurred; test ineffective")
	}
}

func TestInterpFloat32ArrayWidening(t *testing.T) {
	v := testVM(t)
	f32arr := v.ArrayType(KindFloat32, nil, 1)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(1).NewArr(f32arr).StLoc(0).
		LdLoc(0).LdcI4(0).LdcR8(1.5).Op(OpStElem).
		LdLoc(0).LdcI4(0).Op(OpLdElem).RetVal().
		Build("f", 0, 1, true))
	if got := runMethod(t, v, m); got.Float() != 1.5 {
		t.Errorf("got %g", got.Float())
	}
}

func TestInterpRefScalarFieldMismatchTrap(t *testing.T) {
	v := testVM(t)
	node := nodeClass(v)
	m := v.AddMethod(nil, NewCodeBuilder().
		NewObj(node).LdcI4(123).StFld(node, "next"). // scalar into ref field
		Ret().
		Build("f", 0, 0, false))
	v.WithThread("t", func(th *Thread) {
		_, err := th.Call(m)
		var trap *Trap
		if !errors.As(err, &trap) || trap.Kind != "type mismatch" {
			t.Errorf("got %v", err)
		}
	})
}

func TestDisassembleRoundtrip(t *testing.T) {
	v := testVM(t)
	m := v.AddMethod(nil, NewCodeBuilder().
		LdcI4(5).StLoc(0).
		Label("l").LdLoc(0).BrFalse("e").
		LdLoc(0).LdcI4(1).Op(OpSub).StLoc(0).Br("l").
		Label("e").Ret().
		Build("m", 0, 1, false))
	dis := v.Disassemble(m)
	for _, want := range []string{"ldc.i4", "stloc", "brfalse", "ret"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}
