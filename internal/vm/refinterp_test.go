package vm

import (
	"encoding/binary"
	"fmt"
)

// The reference interpreter: the decode-and-switch loop that was the
// baseline dispatch engine before every method was lowered onto the
// quickened loop, kept as the test oracle. It decodes Method.Code on
// every step — no lowering, no fusion, no caches, no verifier facts —
// and drives its own frames on the thread's call stack, so the
// collector still sees their roots. The differential tests run a method
// here and through Thread.Call and demand identical values, output and
// traps (kind, detail, method, pc).
//
// Two behaviours differ on purpose and are tested directly instead: a
// taken branch to a negative or mid-instruction offset (here it decodes
// operand bytes as opcodes or indexes out of range; the quickened loop
// traps "invalid program" at the branch), and the pc of a Go runtime
// panic in malformed code (here the faulting instruction's, there the
// last committed one).

// refCall executes m to completion on the reference interpreter.
func (t *Thread) refCall(m *Method, args ...Value) (Value, error) {
	if len(args) != m.NArgs {
		return Value{}, fmt.Errorf("vm: %s expects %d args, got %d", m.FullName(), m.NArgs, len(args))
	}
	base := len(t.callStack)
	t.refPush(m, append([]Value(nil), args...))
	return t.refRun(base)
}

// refPush pushes a frame for m without lowering it.
func (t *Thread) refPush(m *Method, args []Value) {
	t.callStack = append(t.callStack, &callFrame{method: m, args: args, locals: make([]Value, m.NLocals)})
}

func (f *callFrame) pop() Value {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

// refRun executes until the frame stack shrinks back to depth base.
func (t *Thread) refRun(base int) (result Value, err error) {
	callerInFCall := t.inFCall
	t.inFCall = false
	defer t.unwind(base, callerInFCall, &err)
	h := t.vm.Heap
	for len(t.callStack) > base {
		fr := t.callStack[len(t.callStack)-1]
		code := fr.method.Code
		if fr.pc >= len(code) {
			// Fell off the end: a void return.
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
			t.refPush(callee, args)
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
