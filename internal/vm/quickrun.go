package vm

import (
	"encoding/binary"
	"fmt"
)

// The quickened dispatch loop, the one loop every method runs on.
// runQuick executes one frame's quickened body; run() (interp.go) is the
// frame-stack driver. Semantics must match the reference interpreter
// (refinterp_test.go) observably: results, traps (kind, detail, method,
// pc), GC-poll placement and step-budget charges are bit-identical,
// which the differential suites assert.
//
// Safepoint discipline: the loop caches fr.stack in a local (pushes
// in verified methods stay allocation-free thanks to the MaxStack
// preallocation; an unverified method's stack grows by append) and
// writes it back before every GC-capable point — managed calls,
// FCalls, allocations, backward-branch polls — so collections always
// see the frame's true root set. locals/args are mutated in place and
// never reallocated, so they need no writeback. fr.pc is committed
// before any operation that can raise a trap out of line (bounds
// panics, allocation failure), keeping trap attribution exact. It is
// not committed per instruction: a Go runtime panic from malformed
// unverified code (operand-stack underflow, a frame slot out of range)
// becomes an "invalid program" trap at the last committed pc.

// runQuick executes fr until it returns, pushes a managed callee, or
// traps. Return contract: (rv, hasRV, returned, err) — when returned,
// run() pops the frame and propagates rv; when not returned and err is
// nil, a callee frame was pushed and fr resumes later at fr.qpc.
func (t *Thread) runQuick(fr *callFrame) (Value, bool, bool, error) {
	insts := fr.method.quick.insts
	h := t.vm.Heap
	stack := fr.stack
	locals := fr.locals
	args := fr.args
	qpc := fr.qpc

	for qpc < len(insts) {
		q := &insts[qpc]
		switch q.op {
		case qNop:

		case qLdc:
			stack = append(stack, Value{Bits: q.imm})
		case qLdNull:
			stack = append(stack, Value{IsRef: true})

		case qLdLoc:
			stack = append(stack, locals[q.a])
		case qStLoc:
			locals[q.a] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case qLdArg:
			stack = append(stack, args[q.a])
		case qStArg:
			args[q.a] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]

		case qDup:
			stack = append(stack, stack[len(stack)-1])
		case qPop:
			stack = stack[:len(stack)-1]

		case qAdd:
			y, n := q.right(stack, locals, args)
			stack[n-1] = IntValue(stack[n-1].Int() + y.Int())
			stack = stack[:n]
		case qSub:
			y, n := q.right(stack, locals, args)
			stack[n-1] = IntValue(stack[n-1].Int() - y.Int())
			stack = stack[:n]
		case qMul:
			y, n := q.right(stack, locals, args)
			stack[n-1] = IntValue(stack[n-1].Int() * y.Int())
			stack = stack[:n]
		case qDiv:
			y, n := q.right(stack, locals, args)
			if y.Int() == 0 {
				fr.stack = stack[:n-1]
				fr.pc = int(q.pc2)
				return Value{}, false, false, fr.trap("division by zero", "div")
			}
			stack[n-1] = IntValue(stack[n-1].Int() / y.Int())
			stack = stack[:n]
		case qRem:
			y, n := q.right(stack, locals, args)
			if y.Int() == 0 {
				fr.stack = stack[:n-1]
				fr.pc = int(q.pc2)
				return Value{}, false, false, fr.trap("division by zero", "rem")
			}
			stack[n-1] = IntValue(stack[n-1].Int() % y.Int())
			stack = stack[:n]
		case qAnd:
			y, n := q.right(stack, locals, args)
			stack[n-1] = IntValue(stack[n-1].Int() & y.Int())
			stack = stack[:n]
		case qOr:
			y, n := q.right(stack, locals, args)
			stack[n-1] = IntValue(stack[n-1].Int() | y.Int())
			stack = stack[:n]
		case qXor:
			y, n := q.right(stack, locals, args)
			stack[n-1] = IntValue(stack[n-1].Int() ^ y.Int())
			stack = stack[:n]
		case qShl:
			y, n := q.right(stack, locals, args)
			stack[n-1] = IntValue(stack[n-1].Int() << (uint64(y.Int()) & 63))
			stack = stack[:n]
		case qShr:
			y, n := q.right(stack, locals, args)
			stack[n-1] = IntValue(stack[n-1].Int() >> (uint64(y.Int()) & 63))
			stack = stack[:n]
		case qNeg:
			n := len(stack)
			stack[n-1] = IntValue(-stack[n-1].Int())
		case qNot:
			n := len(stack)
			stack[n-1] = IntValue(^stack[n-1].Int())

		case qAddF:
			y, n := q.right(stack, locals, args)
			stack[n-1] = FloatValue(stack[n-1].Float() + y.Float())
			stack = stack[:n]
		case qSubF:
			y, n := q.right(stack, locals, args)
			stack[n-1] = FloatValue(stack[n-1].Float() - y.Float())
			stack = stack[:n]
		case qMulF:
			y, n := q.right(stack, locals, args)
			stack[n-1] = FloatValue(stack[n-1].Float() * y.Float())
			stack = stack[:n]
		case qDivF:
			y, n := q.right(stack, locals, args)
			stack[n-1] = FloatValue(stack[n-1].Float() / y.Float())
			stack = stack[:n]
		case qNegF:
			n := len(stack)
			stack[n-1] = FloatValue(-stack[n-1].Float())

		case qCeq, qClt, qCgt, qCeqF, qCltF, qCgtF:
			y, n := q.right(stack, locals, args)
			stack[n-1] = BoolValue(compare(q.op, stack[n-1], y))
			stack = stack[:n]

		case qConvI2F:
			n := len(stack)
			stack[n-1] = FloatValue(float64(stack[n-1].Int()))
		case qConvF2I:
			n := len(stack)
			stack[n-1] = IntValue(convF2I(stack[n-1].Float()))

		case qBr:
			if q.back {
				if t.stepBudget != 0 {
					t.stepBudget--
					if t.stepBudget == 0 {
						fr.stack = stack
						fr.pc = int(q.pc)
						return Value{}, false, false, fr.trap("step budget exhausted", "backward branch")
					}
				}
				fr.stack = stack
				t.PollGC()
			}
			qpc = int(q.t)
			if q.b == 0 {
				continue
			}
			// A rotated latch runs its head's compare-branch here: on to
			// the head's target, or past the head.
			q = &insts[qpc]
			fallthrough
		case qCmpBr:
			var x, y Value
			n := len(stack)
			if q.asrc != 0 { // both operands folded, read in source order
				x, y = operand(q.asrc, uint64(q.a), locals, args), operand(q.bsrc, q.imm, locals, args)
			} else {
				y, n = q.right(stack, locals, args)
				n--
				x = stack[n]
			}
			stack = stack[:n]
			if compare(q.sub, x, y) == (q.b != 0) {
				if q.back {
					if t.stepBudget != 0 {
						t.stepBudget--
						if t.stepBudget == 0 {
							fr.stack = stack
							fr.pc = int(q.pc2) // the branch half charges, not the compare
							return Value{}, false, false, fr.trap("step budget exhausted", "backward branch")
						}
					}
					fr.stack = stack
					t.PollGC()
				}
				qpc = int(q.t)
				continue
			}
		case qBrTrue, qBrFalse:
			c := stack[len(stack)-1].Bool()
			stack = stack[:len(stack)-1]
			if c == (q.op == qBrTrue) {
				if q.back {
					if t.stepBudget != 0 {
						t.stepBudget--
						if t.stepBudget == 0 {
							fr.stack = stack
							fr.pc = int(q.pc)
							return Value{}, false, false, fr.trap("step budget exhausted", "backward branch")
						}
					}
					fr.stack = stack
					t.PollGC()
				}
				qpc = int(q.t)
				continue
			}
		case qIncLoc:
			locals[q.a] = IntValue(locals[q.a].Int() + int64(q.imm))

		case qCall:
			callee := q.m
			cargs := stack[len(stack)-callee.NArgs:]
			stack = stack[:len(stack)-callee.NArgs]
			fr.stack = stack
			if err := t.qpushCall(fr, callee, cargs, qpc, q.pc); err != nil {
				return Value{}, false, false, err
			}
			return Value{}, false, false, nil
		case qLdArgCall:
			callee := q.m
			stack = append(stack, args[q.a]) // the fused ldarg pushes the last argument
			cargs := stack[len(stack)-callee.NArgs:]
			stack = stack[:len(stack)-callee.NArgs]
			fr.stack = stack
			if err := t.qpushCall(fr, callee, cargs, qpc, q.pc2); err != nil {
				return Value{}, false, false, err
			}
			return Value{}, false, false, nil
		case qCallExact:
			callee := q.m
			cargs := stack[len(stack)-callee.NArgs:]
			stack = stack[:len(stack)-callee.NArgs]
			fr.stack = stack
			// Exactness fixes the implementation but not nullness.
			if !cargs[0].IsRef || cargs[0].Bits == 0 {
				fr.pc = int(q.pc)
				return Value{}, false, false, fr.trap("null reference", "callvirt receiver")
			}
			if err := t.qpushCall(fr, callee, cargs, qpc, q.pc); err != nil {
				return Value{}, false, false, err
			}
			return Value{}, false, false, nil
		case qCallVirt:
			named := q.m
			if !named.Virtual || named.Owner == nil {
				fr.stack = stack
				fr.pc = int(q.pc)
				return Value{}, false, false, fr.trap("callvirt on non-virtual", named.FullName())
			}
			cargs := stack[len(stack)-named.NArgs:]
			stack = stack[:len(stack)-named.NArgs]
			fr.stack = stack
			recv := cargs[0]
			if !recv.IsRef || recv.Bits == 0 {
				fr.pc = int(q.pc)
				return Value{}, false, false, fr.trap("null reference", "callvirt receiver")
			}
			rmt := h.MT(recv.Ref())
			impl := q.cimpl
			if rmt != q.cmt {
				impl = lookupVSlot(rmt, named.VSlot)
				if impl == nil {
					fr.pc = int(q.pc)
					return Value{}, false, false, fr.trap("bad vtable slot", named.FullName())
				}
				q.cmt, q.cimpl = rmt, impl
			}
			if err := t.qpushCall(fr, impl, cargs, qpc, q.pc); err != nil {
				return Value{}, false, false, err
			}
			return Value{}, false, false, nil

		case qIntern:
			fn := &t.vm.internals[q.a]
			cargs := stack[len(stack)-fn.NArgs:] // valid until Fn returns (InternalFunc)
			stack = stack[:len(stack)-fn.NArgs]
			fr.stack = stack
			fr.pc = int(q.pc)
			fr.qpc = qpc + 1 // an FCall may re-enter managed code
			t.inFCall = true
			ret, ferr := fn.Fn(t, cargs)
			t.inFCall = false
			if ferr != nil {
				return Value{}, false, false, fmt.Errorf("vm: internal call %s: %w", fn.Name, ferr)
			}
			if fn.HasRet {
				stack = append(stack, ret)
			}

		case qRet:
			return Value{}, false, true, nil
		case qRetVal:
			return stack[len(stack)-1], true, true, nil

		case qNewObj:
			fr.stack = stack
			fr.pc = int(q.pc)
			ref, aerr := h.AllocClass(q.mt)
			if aerr != nil {
				return Value{}, false, false, aerr
			}
			stack = append(stack, RefValue(ref))
		case qNewArr:
			n := stack[len(stack)-1].Int()
			stack = stack[:len(stack)-1]
			if n < 0 {
				fr.stack = stack
				fr.pc = int(q.pc)
				return Value{}, false, false, fr.trap("negative array length", fmt.Sprintf("%d", n))
			}
			fr.stack = stack
			fr.pc = int(q.pc)
			ref, aerr := h.AllocArray(q.mt, int(n))
			if aerr != nil {
				return Value{}, false, false, aerr
			}
			stack = append(stack, RefValue(ref))
		case qNewMD:
			dims := make([]int, q.mt.Rank)
			for i := q.mt.Rank - 1; i >= 0; i-- {
				d := stack[len(stack)-1].Int()
				stack = stack[:len(stack)-1]
				if d < 0 {
					fr.stack = stack
					fr.pc = int(q.pc)
					return Value{}, false, false, fr.trap("negative array length", fmt.Sprintf("%d", d))
				}
				dims[i] = int(d)
			}
			fr.stack = stack
			fr.pc = int(q.pc)
			ref, aerr := h.AllocMultiDim(q.mt, dims)
			if aerr != nil {
				return Value{}, false, false, aerr
			}
			stack = append(stack, RefValue(ref))

		case qLdLen:
			arr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !arr.IsRef || arr.Bits == 0 {
				fr.stack = stack
				fr.pc = int(q.pc)
				return Value{}, false, false, fr.trap("null reference", "ldlen")
			}
			if mt := h.MT(arr.Ref()); mt.Kind != TKArray {
				fr.stack = stack
				fr.pc = int(q.pc)
				return Value{}, false, false, fr.nonArrayTrap("ldlen", mt)
			}
			stack = append(stack, IntValue(int64(h.Length(arr.Ref()))))

		case qLdElem, qLdElemAt, qStElem:
			// One element access for all three forms: gather operands, resolve
			// the layout through the site cache, bounds-check, load or store.
			var arr, val Value
			var i int64
			switch q.op {
			case qLdElemAt:
				switch q.asrc {
				case OpLdLoc:
					arr = locals[q.a]
				case OpLdArg:
					arr = args[q.a]
				default:
					arr = t.vm.GetGlobal(int(q.a))
				}
				i = locals[q.b].Int() + int64(q.imm) + int64(q.k)*locals[q.t].Int()
			case qLdElem:
				n := len(stack)
				arr, i = stack[n-2], stack[n-1].Int()
				stack = stack[:n-2]
			default:
				n := len(stack)
				arr, i, val = stack[n-3], stack[n-2].Int(), stack[n-1]
				stack = stack[:n-3]
			}
			if !arr.IsRef || arr.Bits == 0 {
				fr.stack = stack
				fr.pc = int(q.pc2) // the element instruction faults, not the fusion head
				return Value{}, false, false, fr.trap("null reference", elemOpName[q.op])
			}
			ref := uint32(arr.Bits)
			hdr := h.mem[ref : ref+HeaderSize]
			n := binary.LittleEndian.Uint32(hdr[hdrLength:])
			kind, size, base := q.ekind, uint32(q.esize), uint32(HeaderSize)
			if binary.LittleEndian.Uint32(hdr[hdrMT:]) != q.ekey {
				mt := h.MT(Ref(ref))
				var isArray bool
				if kind, size, base, isArray = q.elemLayout(mt); !isArray {
					fr.stack = stack
					fr.pc = int(q.pc2)
					return Value{}, false, false, fr.nonArrayTrap(elemOpName[q.op], mt)
				}
			}
			if q.op == qStElem && q.b == 0 && kind == KindRef && !val.IsRef {
				fr.stack = stack
				fr.pc = int(q.pc2)
				return Value{}, false, false, fr.trap("type mismatch", "storing scalar into reference array")
			}
			if uint64(i) >= uint64(n) {
				fr.stack = stack
				fr.pc = int(q.pc2) // the panic unwinds to run()'s recover
				panic(&BoundsError{Ref: Ref(ref), Index: int(i), Length: int(n)})
			}
			off := ref + base + uint32(i)*size
			if q.op != qStElem {
				var e Value
				if size == 8 { // int64, uint64, float64: the slot is the stack form
					e = Value{Bits: binary.LittleEndian.Uint64(h.mem[off:])}
				} else {
					e = h.loadElem(off, kind)
				}
				if q.sub == qNop {
					stack = append(stack, e)
					break
				}
				// The element is the right operand of the absorbed operator.
				switch x := &stack[len(stack)-1]; q.sub {
				case qAdd:
					*x = IntValue(x.Int() + e.Int())
				case qSub:
					*x = IntValue(x.Int() - e.Int())
				case qMul:
					*x = IntValue(x.Int() * e.Int())
				case qAddF:
					*x = FloatValue(x.Float() + e.Float())
				case qSubF:
					*x = FloatValue(x.Float() - e.Float())
				case qMulF:
					*x = FloatValue(x.Float() * e.Float())
				default:
					*x = FloatValue(x.Float() / e.Float())
				}
				break
			}
			h.storeElem(off, kind, val)
			if kind == KindRef {
				h.recordWrite(Ref(ref), Ref(val.Bits))
			}

		case qLdFld, qLdFldD:
			obj := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !obj.IsRef || obj.Bits == 0 {
				fr.stack = stack
				fr.pc = int(q.pc)
				return Value{}, false, false, fr.trap("null reference", "ldfld")
			}
			f := q.fld
			if q.op == qLdFld {
				mt := h.MT(obj.Ref())
				if int(q.a) >= len(mt.Fields) {
					fr.stack = stack
					fr.pc = int(q.pc)
					return Value{}, false, false, fr.trap("bad field slot", fmt.Sprintf("%d on %s", q.a, mt))
				}
				f = &mt.Fields[q.a]
			}
			stack = append(stack, h.loadElem(h.fieldOff(obj.Ref(), f), f.Kind()))
		case qLdLocFld, qLdLocFldD:
			obj := locals[q.a]
			if !obj.IsRef || obj.Bits == 0 {
				fr.stack = stack
				fr.pc = int(q.pc2) // the ldfld half faults, not the fusion head
				return Value{}, false, false, fr.trap("null reference", "ldfld")
			}
			f := q.fld
			if q.op == qLdLocFld {
				mt := h.MT(obj.Ref())
				if int(q.b) >= len(mt.Fields) {
					fr.stack = stack
					fr.pc = int(q.pc2)
					return Value{}, false, false, fr.trap("bad field slot", fmt.Sprintf("%d on %s", q.b, mt))
				}
				f = &mt.Fields[q.b]
			}
			stack = append(stack, h.loadElem(h.fieldOff(obj.Ref(), f), f.Kind()))
		case qStFld, qStFldD:
			n := len(stack)
			val := stack[n-1]
			obj := stack[n-2]
			stack = stack[:n-2]
			if !obj.IsRef || obj.Bits == 0 {
				fr.stack = stack
				fr.pc = int(q.pc)
				return Value{}, false, false, fr.trap("null reference", "stfld")
			}
			f := q.fld
			if q.op == qStFld {
				mt := h.MT(obj.Ref())
				if int(q.a) >= len(mt.Fields) {
					fr.stack = stack
					fr.pc = int(q.pc)
					return Value{}, false, false, fr.trap("bad field slot", fmt.Sprintf("%d on %s", q.a, mt))
				}
				f = &mt.Fields[q.a]
			}
			if q.b == 0 && f.IsRef() && !val.IsRef {
				fr.stack = stack
				fr.pc = int(q.pc)
				return Value{}, false, false, fr.trap("type mismatch", "storing scalar into reference field "+f.Name)
			}
			h.storeField(obj.Ref(), f, val)

		case qLdSFld:
			stack = append(stack, t.vm.GetGlobal(int(q.a)))
		case qStSFld:
			t.vm.SetGlobal(int(q.a), stack[len(stack)-1])
			stack = stack[:len(stack)-1]

		default: // qTrap
			tr := &fr.method.quick.traps[q.a]
			fr.stack = stack
			fr.pc = int(q.pc)
			return Value{}, false, false, fr.trap(tr.kind, tr.detail)
		}
		qpc++
	}
	// Fell off the end: void return.
	return Value{}, false, true, nil
}

// right reads a binary operator's right operand: in place when it is
// folded, else off the top of the stack; n is the stack's length
// without it.
func (q *qinst) right(stack, locals, args []Value) (y Value, n int) {
	if q.bsrc == 0 {
		return stack[len(stack)-1], len(stack) - 1
	}
	return operand(q.bsrc, q.imm, locals, args), len(stack)
}

// operand reads a folded operand in place: locals[x] or args[x] for an
// absorbed ldloc or ldarg, x itself for an absorbed ldc.
func operand(src Op, x uint64, locals, args []Value) Value {
	switch src {
	case OpLdLoc:
		return locals[x]
	case OpLdArg:
		return args[x]
	}
	return Value{Bits: x}
}

// compare evaluates the comparison op (qCeq..qCgtF) of x and y.
func compare(op qOp, x, y Value) bool {
	switch op {
	case qCeq:
		return x.Bits == y.Bits
	case qClt:
		return x.Int() < y.Int()
	case qCgt:
		return x.Int() > y.Int()
	case qCeqF:
		return x.Float() == y.Float()
	case qCltF:
		return x.Float() < y.Float()
	}
	return x.Float() > y.Float()
}

// elemOpName is the source instruction an element-site trap names.
var elemOpName = [...]string{qLdElem: "ldelem", qLdElemAt: "ldelem", qStElem: "stelem"}

// qpushCall is the shared managed-call tail of the quickened loop:
// depth check, step-budget charge, frame push and the GC poll, in that
// order. The caller must have written fr.stack back first. cargs is
// the popped top of the caller's operand stack: the callee's arguments
// live there until it returns, and its result is pushed over them.
func (t *Thread) qpushCall(fr *callFrame, callee *Method, cargs []Value, qpc int, pc int32) error {
	if len(t.callStack) >= maxCallDepth {
		return ErrCallDepth
	}
	if t.stepBudget != 0 {
		t.stepBudget--
		if t.stepBudget == 0 {
			fr.pc = int(pc)
			return fr.trap("step budget exhausted", callee.FullName())
		}
	}
	fr.qpc = qpc + 1
	fr.pc = int(pc)
	t.pushFrameOwned(callee, cargs)
	t.PollGC()
	return nil
}
