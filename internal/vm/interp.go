package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"

	"motor/internal/obs"
)

// The bytecode interpreter. One callFrame per activation; the frame
// stack lives on the Thread so the collector can enumerate stack
// roots precisely (every Value carries an IsRef tag).

// Interpreter limits.
const (
	maxCallDepth = 1 << 14
)

// Trap is a managed runtime error: null dereference, bounds, division
// by zero, bad cast. Traps unwind the interpreter and surface as Go
// errors from Thread.Call.
type Trap struct {
	Kind   string
	Detail string
	Method string
	PC     int
}

// Error implements the error interface.
func (t *Trap) Error() string {
	return fmt.Sprintf("vm: %s in %s at pc=%d: %s", t.Kind, t.Method, t.PC, t.Detail)
}

// ErrCallDepth is raised when managed recursion exceeds maxCallDepth.
var ErrCallDepth = errors.New("vm: call depth exceeded")

type callFrame struct {
	method *Method
	args   []Value
	locals []Value
	stack  []Value
	pc     int
	// qpc is the resume index into the quickened body when the method
	// runs on the fast dispatch loop (quickrun.go); pc still tracks
	// the original bytecode offset at every trap and GC-capable point
	// so diagnostics and line mapping stay engine-independent.
	qpc int
}

func (f *callFrame) visitRoots(visit func(Ref) Ref) {
	fix := func(vals []Value) {
		for i := range vals {
			if vals[i].IsRef && vals[i].Bits != 0 {
				vals[i].Bits = uint64(visit(Ref(vals[i].Bits)))
			}
		}
	}
	fix(f.args)
	fix(f.locals)
	fix(f.stack)
}

func (f *callFrame) push(v Value) { f.stack = append(f.stack, v) }

func (f *callFrame) pop() Value {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

func (f *callFrame) trap(kind, detail string) *Trap {
	return &Trap{Kind: kind, Detail: detail, Method: f.method.FullName(), PC: f.pc}
}

// nonArrayTrap is raised when ldlen/ldelem/stelem meets a class
// instance that reached it through an untyped slot (a global): its
// header's length word is 0 and its data is not element storage.
func (f *callFrame) nonArrayTrap(op string, mt *MethodTable) *Trap {
	return f.trap("type mismatch", op+" on non-array "+mt.String())
}

// Call executes a method to completion on this thread and returns its
// result (zero Value for void methods).
func (t *Thread) Call(m *Method, args ...Value) (Value, error) {
	if len(args) != m.NArgs {
		return Value{}, fmt.Errorf("vm: %s expects %d args, got %d", m.FullName(), m.NArgs, len(args))
	}
	base := len(t.callStack)
	t.pushCallFrame(m, args)
	v, err := t.run(base)
	var trap *Trap
	if errors.As(err, &trap) {
		// A trap surfacing to the embedder is a post-mortem moment:
		// capture the flight recorder before the process (or test)
		// moves on and the ring is overwritten.
		obs.FlightTrip("guest-trap")
	}
	return v, err
}

func (t *Thread) pushCallFrame(m *Method, args []Value) {
	t.pushFrameOwned(m, append([]Value(nil), args...))
}

// pushFrameOwned pushes a frame taking ownership of args (no copy).
// Verified methods carry MaxStack, so the operand stack can be sized
// once here and never grow — the quickened loop relies on this to
// keep pushes allocation-free between safepoints.
func (t *Thread) pushFrameOwned(m *Method, args []Value) {
	fr := &callFrame{
		method: m,
		args:   args,
		locals: make([]Value, m.NLocals),
	}
	if m.MaxStack > 0 {
		fr.stack = make([]Value, 0, m.MaxStack)
	}
	t.callStack = append(t.callStack, fr)
}

// run executes until the frame stack shrinks back to depth base.
// The result of the last returning frame is propagated.
func (t *Thread) run(base int) (result Value, err error) {
	callerInFCall := t.inFCall
	t.inFCall = false
	defer func() {
		panickedInFCall := t.inFCall
		t.inFCall = callerInFCall
		if r := recover(); r != nil {
			switch e := r.(type) {
			case *BoundsError:
				fr := t.callStack[len(t.callStack)-1]
				err = fr.trap("index out of range", e.Error())
			case runtime.Error:
				if panickedInFCall {
					// The panic unwound out of a host FCall, not the
					// dispatch loop: that is a bug in engine/host Go
					// code. Re-panic rather than masking it as a guest
					// "invalid program" trap.
					panic(r)
				}
				// Malformed (unverified) bytecode: operand-stack
				// underflow, out-of-range frame slots, truncated
				// operands. Surface as a typed trap instead of
				// crashing the host; verified modules never get here.
				if len(t.callStack) > base {
					fr := t.callStack[len(t.callStack)-1]
					err = fr.trap("invalid program", e.Error())
				} else {
					err = &Trap{Kind: "invalid program", Detail: e.Error(), Method: "?", PC: 0}
				}
			case error:
				if errors.Is(e, ErrOutOfMemory) {
					err = e
					break
				}
				panic(r)
			default:
				panic(r)
			}
			t.callStack = t.callStack[:base]
		}
	}()

	h := t.vm.Heap
	for len(t.callStack) > base {
		fr := t.callStack[len(t.callStack)-1]
		if fr.method.quick != nil {
			// Quickened method: run the fast loop until the frame
			// either returns (pop it, propagate the result) or pushes
			// a managed callee (loop around to dispatch the new top
			// frame on whichever engine it carries).
			rv, hasRV, returned, qerr := t.runQuick(fr)
			if qerr != nil {
				return Value{}, qerr
			}
			if returned {
				t.callStack = t.callStack[:len(t.callStack)-1]
				if hasRV {
					if len(t.callStack) > base {
						t.callStack[len(t.callStack)-1].push(rv)
					} else {
						result = rv
					}
				}
			}
			continue
		}
		code := fr.method.Code
		if fr.pc >= len(code) {
			// Fell off the end: treat as void return.
			t.callStack = t.callStack[:len(t.callStack)-1]
			continue
		}
		op := Op(code[fr.pc])
		opLen := 1 + op.operandBytes()
		operandAt := fr.pc + 1
		nextPC := fr.pc + opLen

		switch op {
		case OpNop:

		case OpLdcI4:
			fr.push(IntValue(int64(int32(binary.LittleEndian.Uint32(code[operandAt:])))))
		case OpLdcI8:
			fr.push(IntValue(int64(binary.LittleEndian.Uint64(code[operandAt:]))))
		case OpLdcR8:
			fr.push(Value{Bits: binary.LittleEndian.Uint64(code[operandAt:])})
		case OpLdNull:
			fr.push(Value{IsRef: true})

		case OpLdLoc:
			fr.push(fr.locals[u16(code, operandAt)])
		case OpStLoc:
			fr.locals[u16(code, operandAt)] = fr.pop()
		case OpLdArg:
			fr.push(fr.args[u16(code, operandAt)])
		case OpStArg:
			fr.args[u16(code, operandAt)] = fr.pop()

		case OpDup:
			fr.push(fr.stack[len(fr.stack)-1])
		case OpPop:
			fr.pop()

		case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr:
			b, a := fr.pop().Int(), fr.pop().Int()
			var r int64
			switch op {
			case OpAdd:
				r = a + b
			case OpSub:
				r = a - b
			case OpMul:
				r = a * b
			case OpDiv:
				if b == 0 {
					return Value{}, fr.trap("division by zero", "div")
				}
				r = a / b
			case OpRem:
				if b == 0 {
					return Value{}, fr.trap("division by zero", "rem")
				}
				r = a % b
			case OpAnd:
				r = a & b
			case OpOr:
				r = a | b
			case OpXor:
				r = a ^ b
			case OpShl:
				r = a << (uint64(b) & 63)
			case OpShr:
				r = a >> (uint64(b) & 63)
			}
			fr.push(IntValue(r))
		case OpNeg:
			fr.push(IntValue(-fr.pop().Int()))
		case OpNot:
			fr.push(IntValue(^fr.pop().Int()))

		case OpAddF, OpSubF, OpMulF, OpDivF:
			b, a := fr.pop().Float(), fr.pop().Float()
			var r float64
			switch op {
			case OpAddF:
				r = a + b
			case OpSubF:
				r = a - b
			case OpMulF:
				r = a * b
			case OpDivF:
				r = a / b
			}
			fr.push(FloatValue(r))
		case OpNegF:
			fr.push(FloatValue(-fr.pop().Float()))

		case OpCeq:
			b, a := fr.pop(), fr.pop()
			fr.push(BoolValue(a.Bits == b.Bits))
		case OpClt:
			b, a := fr.pop().Int(), fr.pop().Int()
			fr.push(BoolValue(a < b))
		case OpCgt:
			b, a := fr.pop().Int(), fr.pop().Int()
			fr.push(BoolValue(a > b))
		case OpCeqF:
			b, a := fr.pop().Float(), fr.pop().Float()
			fr.push(BoolValue(a == b))
		case OpCltF:
			b, a := fr.pop().Float(), fr.pop().Float()
			fr.push(BoolValue(a < b))
		case OpCgtF:
			b, a := fr.pop().Float(), fr.pop().Float()
			fr.push(BoolValue(a > b))

		case OpConvI2F:
			fr.push(FloatValue(float64(fr.pop().Int())))
		case OpConvF2I:
			fr.push(IntValue(convF2I(fr.pop().Float())))

		case OpBr:
			nextPC += int(int32(binary.LittleEndian.Uint32(code[operandAt:])))
		case OpBrTrue:
			off := int(int32(binary.LittleEndian.Uint32(code[operandAt:])))
			if fr.pop().Bool() {
				nextPC += off
			}
		case OpBrFalse:
			off := int(int32(binary.LittleEndian.Uint32(code[operandAt:])))
			if !fr.pop().Bool() {
				nextPC += off
			}

		case OpCall, OpCallVirt:
			idx := int(u16(code, operandAt))
			callee, ok := t.vm.MethodByIndex(idx)
			if !ok {
				return Value{}, fr.trap("bad method index", fmt.Sprintf("%d", idx))
			}
			args := make([]Value, callee.NArgs)
			for i := callee.NArgs - 1; i >= 0; i-- {
				args[i] = fr.pop()
			}
			if op == OpCallVirt {
				if !callee.Virtual || callee.Owner == nil {
					return Value{}, fr.trap("callvirt on non-virtual", callee.FullName())
				}
				recv := args[0]
				if !recv.IsRef || recv.Bits == 0 {
					return Value{}, fr.trap("null reference", "callvirt receiver")
				}
				rmt := h.MT(recv.Ref())
				impl := lookupVSlot(rmt, callee.VSlot)
				if impl == nil {
					return Value{}, fr.trap("bad vtable slot", callee.FullName())
				}
				callee = impl
			}
			if len(t.callStack) >= maxCallDepth {
				return Value{}, ErrCallDepth
			}
			if t.stepBudget != 0 {
				t.stepBudget--
				if t.stepBudget == 0 {
					return Value{}, fr.trap("step budget exhausted", callee.FullName())
				}
			}
			fr.pc = nextPC
			t.pushFrameOwned(callee, args)
			t.PollGC()
			continue

		case OpIntern:
			idx := int(u16(code, operandAt))
			fn, ok := t.vm.InternalByIndex(idx)
			if !ok {
				return Value{}, fr.trap("bad internal index", fmt.Sprintf("%d", idx))
			}
			args := make([]Value, fn.NArgs)
			for i := fn.NArgs - 1; i >= 0; i-- {
				args[i] = fr.pop()
			}
			fr.pc = nextPC // commit pc before any GC inside the FCall
			t.inFCall = true
			ret, err := fn.Fn(t, args)
			t.inFCall = false
			if err != nil {
				return Value{}, fmt.Errorf("vm: internal call %s: %w", fn.Name, err)
			}
			if fn.HasRet {
				fr.push(ret)
			}
			continue

		case OpRet:
			t.callStack = t.callStack[:len(t.callStack)-1]
			continue
		case OpRetVal:
			rv := fr.pop()
			t.callStack = t.callStack[:len(t.callStack)-1]
			if len(t.callStack) > base {
				t.callStack[len(t.callStack)-1].push(rv)
			} else {
				result = rv
			}
			continue

		case OpNewObj:
			idx := int(u16(code, operandAt))
			mt, ok := t.vm.TypeByIndex(idx)
			if !ok || mt.Kind != TKClass {
				return Value{}, fr.trap("bad type index", fmt.Sprintf("%d", idx))
			}
			fr.pc = nextPC // allocation may collect; stack/locals are roots already
			ref, err := h.AllocClass(mt)
			if err != nil {
				return Value{}, err
			}
			fr.push(RefValue(ref))
			continue
		case OpNewArr:
			idx := int(u16(code, operandAt))
			mt, ok := t.vm.TypeByIndex(idx)
			if !ok || mt.Kind != TKArray {
				return Value{}, fr.trap("bad array type index", fmt.Sprintf("%d", idx))
			}
			n := fr.pop().Int()
			if n < 0 {
				return Value{}, fr.trap("negative array length", fmt.Sprintf("%d", n))
			}
			fr.pc = nextPC
			ref, err := h.AllocArray(mt, int(n))
			if err != nil {
				return Value{}, err
			}
			fr.push(RefValue(ref))
			continue

		case OpNewMD:
			idx := int(u16(code, operandAt))
			mt, ok := t.vm.TypeByIndex(idx)
			if !ok || mt.Kind != TKArray || mt.Rank < 2 {
				return Value{}, fr.trap("bad multidim type index", fmt.Sprintf("%d", idx))
			}
			dims := make([]int, mt.Rank)
			for i := mt.Rank - 1; i >= 0; i-- {
				d := fr.pop().Int()
				if d < 0 {
					return Value{}, fr.trap("negative array length", fmt.Sprintf("%d", d))
				}
				dims[i] = int(d)
			}
			fr.pc = nextPC
			ref, err := h.AllocMultiDim(mt, dims)
			if err != nil {
				return Value{}, err
			}
			fr.push(RefValue(ref))
			continue

		case OpLdLen:
			arr := fr.pop()
			if !arr.IsRef || arr.Bits == 0 {
				return Value{}, fr.trap("null reference", "ldlen")
			}
			if mt := h.MT(arr.Ref()); mt.Kind != TKArray {
				return Value{}, fr.nonArrayTrap("ldlen", mt)
			}
			fr.push(IntValue(int64(h.Length(arr.Ref()))))

		case OpLdElem:
			i := fr.pop().Int()
			arr := fr.pop()
			if !arr.IsRef || arr.Bits == 0 {
				return Value{}, fr.trap("null reference", "ldelem")
			}
			mt := h.MT(arr.Ref())
			if mt.Kind != TKArray {
				return Value{}, fr.nonArrayTrap("ldelem", mt)
			}
			h.boundsCheck(arr.Ref(), int(i))
			fr.push(h.loadElem(h.elemOff(arr.Ref(), mt, int(i)), mt.Elem))
		case OpStElem:
			val := fr.pop()
			i := fr.pop().Int()
			arr := fr.pop()
			if !arr.IsRef || arr.Bits == 0 {
				return Value{}, fr.trap("null reference", "stelem")
			}
			mt := h.MT(arr.Ref())
			if mt.Kind != TKArray {
				return Value{}, fr.nonArrayTrap("stelem", mt)
			}
			if mt.Elem == KindRef && !val.IsRef {
				return Value{}, fr.trap("type mismatch", "storing scalar into reference array")
			}
			h.boundsCheck(arr.Ref(), int(i))
			h.storeElem(h.elemOff(arr.Ref(), mt, int(i)), mt.Elem, val)
			if mt.Elem == KindRef {
				h.recordWrite(arr.Ref(), Ref(val.Bits))
			}

		case OpLdFld:
			slot := int(u16(code, operandAt))
			obj := fr.pop()
			if !obj.IsRef || obj.Bits == 0 {
				return Value{}, fr.trap("null reference", "ldfld")
			}
			mt := h.MT(obj.Ref())
			if slot >= len(mt.Fields) {
				return Value{}, fr.trap("bad field slot", fmt.Sprintf("%d on %s", slot, mt))
			}
			f := &mt.Fields[slot]
			fr.push(h.loadElem(h.fieldOff(obj.Ref(), f), f.Kind()))
		case OpStFld:
			val := fr.pop()
			obj := fr.pop()
			if !obj.IsRef || obj.Bits == 0 {
				return Value{}, fr.trap("null reference", "stfld")
			}
			mt := h.MT(obj.Ref())
			slot := int(u16(code, operandAt))
			if slot >= len(mt.Fields) {
				return Value{}, fr.trap("bad field slot", fmt.Sprintf("%d on %s", slot, mt))
			}
			f := &mt.Fields[slot]
			if f.IsRef() && !val.IsRef {
				return Value{}, fr.trap("type mismatch", "storing scalar into reference field "+f.Name)
			}
			h.storeField(obj.Ref(), f, val)

		case OpLdSFld:
			fr.push(t.vm.GetGlobal(int(u16(code, operandAt))))
		case OpStSFld:
			t.vm.SetGlobal(int(u16(code, operandAt)), fr.pop())

		default:
			return Value{}, fr.trap("bad opcode", fmt.Sprintf("%d", op))
		}

		if nextPC < fr.pc {
			// Backward branch: GC poll point (and step-budget charge).
			if t.stepBudget != 0 {
				t.stepBudget--
				if t.stepBudget == 0 {
					return Value{}, fr.trap("step budget exhausted", "backward branch")
				}
			}
			fr.pc = nextPC
			t.PollGC()
		} else {
			fr.pc = nextPC
		}
	}
	return result, nil
}

func u16(code []byte, at int) uint16 { return binary.LittleEndian.Uint16(code[at:]) }

// convF2I converts float64 to int64 with saturating, platform-
// independent semantics: NaN -> 0, out-of-range values clamp to
// MinInt64/MaxInt64. Go's int64(f) is implementation-defined for those
// inputs (amd64 and arm64 disagree), which would break the bit-identical
// cross-rank results the deterministic arithmetic contract requires.
func convF2I(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= 9223372036854775808.0: // 2^63
		return math.MaxInt64
	case f < -9223372036854775808.0: // -2^63
		return math.MinInt64
	default:
		return int64(f)
	}
}
