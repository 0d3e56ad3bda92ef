package vm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// Differential property suite: the quickened loop and the reference
// interpreter (refinterp_test.go) must be observably indistinguishable
// — same return value, same stdout, and on failure the same trap (kind,
// detail, method, pc) — over randomly generated programs. Each seed
// builds the SAME program on two fresh VMs with identical registration
// and allocation histories (so even trap details that embed heap
// addresses must match), runs it on one through Thread.Call and on the
// other on the reference, and compares everything.
//
// The generator emits structured, stack-balanced code on purpose:
// statements are stack-neutral, expressions push exactly one value.
// Traps still arise naturally — division by zero, out-of-bounds
// element access, field access on a non-object, null dereference —
// and runaway loops (a random store can clobber a loop counter) are
// cut by the step budget, whose exhaustion must also match exactly.

const (
	diffLocals   = 6 // 0-2 scratch ints, 3 ref slot, 4-5 loop counters
	diffArgs     = 2
	diffBudget   = 50_000
	diffPrograms = 150
)

type diffGen struct {
	rng    *rand.Rand
	b      *CodeBuilder
	v      *VM
	pt     *MethodTable // Point class (scalar fields)
	at     *MethodTable // int64[]
	hadd   *Method
	hdiv   *Method
	labels int
	loops  int
}

func (g *diffGen) label() string {
	g.labels++
	return "L" + string(rune('a'+g.labels/26)) + string(rune('a'+g.labels%26))
}

// expr emits code pushing exactly one value.
func (g *diffGen) expr(depth int) {
	c := g.rng.Intn(10)
	if depth <= 0 && c >= 3 {
		c = g.rng.Intn(3)
	}
	switch c {
	case 0:
		// Constants skew small; zero stays common enough to exercise
		// division traps.
		g.b.LdcI4(int32(g.rng.Intn(7) - 2))
	case 1:
		g.b.LdLoc(g.rng.Intn(3))
	case 2:
		g.b.LdArg(g.rng.Intn(diffArgs))
	case 3:
		g.expr(depth - 1)
		g.b.Op([]Op{OpNeg, OpNot, OpConvI2F, OpConvF2I}[g.rng.Intn(4)])
	case 4, 5, 6:
		g.expr(depth - 1)
		g.expr(depth - 1)
		g.b.Op([]Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr,
			OpClt, OpCgt, OpCeq, OpDiv, OpRem}[g.rng.Intn(13)])
	case 7:
		// Float excursion: convert, operate, compare or convert back.
		g.expr(depth - 1)
		g.b.Op(OpConvI2F)
		g.expr(depth - 1)
		g.b.Op(OpConvI2F)
		op := []Op{OpAddF, OpSubF, OpMulF, OpDivF, OpCltF, OpCgtF, OpCeqF}[g.rng.Intn(7)]
		g.b.Op(op)
		if op == OpAddF || op == OpSubF || op == OpMulF || op == OpDivF {
			g.b.Op(OpConvF2I)
		}
	case 8:
		g.expr(depth - 1)
		g.expr(depth - 1)
		if g.rng.Intn(2) == 0 {
			g.b.Call(g.hadd)
		} else {
			g.b.Call(g.hdiv)
		}
	case 9:
		// dup/pop noise around a real expression, still net +1.
		g.expr(depth - 1)
		g.b.Op(OpDup)
		g.b.Op(OpPop)
	}
}

// stmt emits stack-neutral code.
func (g *diffGen) stmt(depth int) {
	c := g.rng.Intn(10)
	if depth <= 0 && c >= 6 {
		c = g.rng.Intn(6)
	}
	switch c {
	case 0, 1:
		g.expr(3)
		g.b.StLoc(g.rng.Intn(3))
	case 2:
		g.expr(2)
		g.b.InternName(g.v, "console.writei")
	case 3:
		// Fusable increment on a scratch local.
		l := g.rng.Intn(3)
		g.b.LdLoc(l).LdcI4(int32(g.rng.Intn(5) + 1)).Op(OpAdd).StLoc(l)
	case 4:
		// Array or object into the ref slot.
		if g.rng.Intn(2) == 0 {
			g.b.LdcI4(int32(g.rng.Intn(5))).NewArr(g.at).StLoc(3)
		} else {
			g.b.NewObj(g.pt).StLoc(3)
		}
	case 5:
		// Touch the ref slot: element or field traffic. Whatever local 3
		// currently holds (array, object, scalar, null) both loops
		// must agree on the outcome.
		switch g.rng.Intn(4) {
		case 0:
			g.b.LdLoc(3)
			g.b.LdcI4(int32(g.rng.Intn(6) - 1)) // sometimes out of bounds
			g.expr(1)
			g.b.Op(OpStElem)
		case 1:
			g.b.LdLoc(3).LdcI4(int32(g.rng.Intn(6) - 1)).Op(OpLdElem)
			g.b.InternName(g.v, "console.writei")
		case 2:
			g.b.LdLoc(3)
			g.expr(1)
			g.b.StFld(g.pt, "x")
		case 3:
			g.b.LdLoc(3).LdFld(g.pt, "tag")
			g.b.InternName(g.v, "console.writei")
		}
	case 6, 7:
		// if/else
		elseL, endL := g.label(), g.label()
		g.expr(2)
		g.b.BrFalse(elseL)
		g.stmt(depth - 1)
		g.b.Br(endL)
		g.b.Label(elseL)
		g.stmt(depth - 1)
		g.b.Label(endL)
	case 8, 9:
		// Bounded loop on a dedicated counter (4 or 5). A nested random
		// store can still clobber it; the step budget breaks the tie.
		cnt := 4 + g.loops%2
		g.loops++
		topL := g.label()
		g.b.LdcI4(0).StLoc(cnt)
		g.b.Label(topL)
		g.stmt(depth - 1)
		g.b.LdLoc(cnt).LdcI4(1).Op(OpAdd).StLoc(cnt)
		g.b.LdLoc(cnt).LdcI4(int32(g.rng.Intn(4) + 2)).Op(OpClt).BrTrue(topL)
	}
}

// diffVM builds one side of the comparison: a fresh VM with the fixed
// registration order and the seed-determined method.
func diffVM(t testing.TB, seed int64, out *bytes.Buffer) (*VM, *Method) {
	v := closing(t, New(Config{Name: "diff", Stdout: out,
		Heap: HeapConfig{YoungSize: 64 << 10, InitialElder: 256 << 10, ArenaMax: 32 << 20}}))
	pt := pointClass(v)
	hadd := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).LdArg(1).Op(OpAdd).RetVal().Build("hadd", 2, 0, true))
	hadd.Verified = true
	hdiv := v.AddMethod(nil, NewCodeBuilder().
		LdArg(0).LdArg(1).Op(OpDiv).RetVal().Build("hdiv", 2, 0, true))
	hdiv.Verified = true

	g := &diffGen{
		rng: rand.New(rand.NewSource(seed)),
		b:   NewCodeBuilder(), v: v, pt: pt,
		at: v.ArrayType(KindInt64, nil, 1), hadd: hadd, hdiv: hdiv,
	}
	n := 4 + g.rng.Intn(6)
	for i := 0; i < n; i++ {
		g.b.MarkLine(i + 1)
		g.stmt(2)
	}
	g.b.LdLoc(0).RetVal()
	m := v.AddMethod(nil, g.b.Build("prog", diffArgs, diffLocals, true))
	m.Verified = true
	return v, m
}

type diffOutcome struct {
	val  Value
	err  error
	out  string
	line int // masm line of the trap, if any
}

// runDiff builds seed's program on a fresh VM and calls it calls times
// in a row on one thread, through Thread.Call or on the reference.
func runDiff(t *testing.T, seed int64, ref bool, calls int) []diffOutcome {
	t.Helper()
	var buf bytes.Buffer
	v, m := diffVM(t, seed, &buf)
	var outs []diffOutcome
	v.WithThread("t", func(th *Thread) {
		for i := 0; i < calls; i++ {
			th.SetStepBudget(diffBudget)
			var o diffOutcome
			if ref {
				o.val, o.err = th.refCall(m, IntValue(7), IntValue(-3))
			} else {
				o.val, o.err = th.Call(m, IntValue(7), IntValue(-3))
			}
			o.out = buf.String()
			var trap *Trap
			if errors.As(o.err, &trap) {
				o.line = m.LineForPC(trap.PC)
			}
			outs = append(outs, o)
		}
	})
	return outs
}

func compareOutcomes(t *testing.T, seed int64, q, r diffOutcome) {
	t.Helper()
	if q.val != r.val {
		t.Errorf("seed %d: quickened value %+v, reference value %+v", seed, q.val, r.val)
	}
	if q.out != r.out {
		t.Errorf("seed %d: quickened stdout %q, reference stdout %q", seed, q.out, r.out)
	}
	if q.line != r.line {
		t.Errorf("seed %d: trap line %d vs %d", seed, q.line, r.line)
	}
	compareErrs(t, "prog", q.err, r.err)
}

// TestQuickenDifferential is the core property: for every seed, the
// quickened loop and the reference interpreter agree bit-for-bit on
// value, stdout, trap identity and trap line attribution.
func TestQuickenDifferential(t *testing.T) {
	trapped := 0
	for seed := int64(0); seed < diffPrograms; seed++ {
		q := runDiff(t, seed, false, 1)[0]
		compareOutcomes(t, seed, q, runDiff(t, seed, true, 1)[0])
		if q.err != nil {
			trapped++
		}
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
	}
	// The generator must actually exercise the trap paths; a suite
	// where nothing ever traps proves much less.
	if trapped == 0 || trapped == diffPrograms {
		t.Fatalf("degenerate corpus: %d/%d programs trapped", trapped, diffPrograms)
	}
	t.Logf("%d/%d programs trapped (both loops identically)", trapped, diffPrograms)
}

// TestQuickenDifferentialMixed mixes cold and warm runs: a third of the
// corpus is called twice in a row on one thread, so the second call
// finds every call-site and element-site cache filled, and the heap
// shaped, by the first — and must still match the reference called
// twice the same way.
func TestQuickenDifferentialMixed(t *testing.T) {
	for seed := int64(0); seed < diffPrograms/3; seed++ {
		q, r := runDiff(t, seed, false, 2), runDiff(t, seed, true, 2)
		for i := range q {
			compareOutcomes(t, seed, q[i], r[i])
		}
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

// TestQuickenDeterministic: the same seed must produce identical code
// bytes on two fresh VMs — the two-VM comparison above depends on it.
func TestQuickenDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		var b1, b2 bytes.Buffer
		_, m1 := diffVM(t, seed, &b1)
		_, m2 := diffVM(t, seed, &b2)
		if !bytes.Equal(m1.Code, m2.Code) {
			t.Fatalf("seed %d: generator is not deterministic", seed)
		}
	}
}

// TestQuickenNonArrayTraps is the regression case for a class instance
// reaching ldlen/ldelem/stelem through an untyped slot (a global, which
// the verifier types vAny): its header's length word is 0, so ldlen
// used to answer 0 and ldelem to blame the index. Both loops now trap
// a type mismatch naming the instruction and the class, at its pc.
func TestQuickenNonArrayTraps(t *testing.T) {
	v := testVM(t)
	pt := pointClass(v)
	g := v.AddGlobal("nonarray.obj")
	stash := func(b *CodeBuilder) *CodeBuilder { return b.NewObj(pt).StSFld(g).LdcI4(0).StLoc(0) }
	for _, c := range []struct {
		name   string
		op     Op
		detail string
		body   func(*CodeBuilder) *CodeBuilder
	}{
		{"ldlen", OpLdLen, "ldlen on non-array Point",
			func(b *CodeBuilder) *CodeBuilder { return b.LdSFld(g).Op(OpLdLen) }},
		{"ldelem", OpLdElem, "ldelem on non-array Point",
			func(b *CodeBuilder) *CodeBuilder { return b.LdSFld(g).LdcI4(0).Op(OpLdElem) }},
		{"ldelem_fused", OpLdElem, "ldelem on non-array Point",
			func(b *CodeBuilder) *CodeBuilder { return b.LdSFld(g).LdLoc(0).Op(OpLdElem) }},
		{"stelem", OpStElem, "stelem on non-array Point",
			func(b *CodeBuilder) *CodeBuilder { return b.LdSFld(g).LdcI4(0).LdcI4(1).Op(OpStElem).LdcI4(0) }},
	} {
		m := v.AddMethod(nil, c.body(stash(NewCodeBuilder())).RetVal().Build("nonarray_"+c.name, 0, 1, true))
		mustQuicken(t, v, m)
		_, err := callBoth(t, v, m)
		wantTrap(t, err, "type mismatch", c.detail, opPC(t, m, c.op, 0))
	}
}
