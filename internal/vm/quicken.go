package vm

import (
	"encoding/binary"
	"fmt"
)

// Lowering onto the quickened loop, the one dispatch loop (quickrun.go).
// Every method is rewritten once — at Load, or on its first activation —
// into a pre-decoded internal form: wide instructions with resolved
// operands, fused superinstructions for hot pairs, and inline caches.
// For a verified method the pass also spends the bytecode verifier's
// per-instruction proofs (exact receiver classes, checked stores): direct
// calls, baked field descriptors, pre-seeded element caches. An
// unverified method gets the same lowering without them, so each of its
// sites keeps the dynamic check a decode-and-switch interpreter makes.
// The reference interpreter kept as the test oracle (refinterp_test.go)
// pins the semantics: identical results, traps (kind, detail, method,
// pc) and GC-poll placement, enforced by the differential suites.
//
// Soundness note: non-exact static ref types from the verifier are
// upper bounds only and are NOT trusted for layout decisions; baked
// field descriptors and devirtualized calls require an exact type fact
// (Method.Facts), which flows only from allocation sites. Element sites
// never bake: their layout cache is checked against the receiver's
// header on every access and an exact fact merely pre-seeds it.

// quickBody is a method's quickened instruction stream. Branch targets
// are indices into insts; every qinst records the bytecode offset(s)
// of the source instruction(s) it covers so traps map back through
// Method.Lines. traps is the trap table of the body's qTrap instructions.
type quickBody struct {
	insts []qinst
	traps []quickTrap
}

// qOp enumerates quickened operations. The set mirrors Op plus fused
// superinstructions (qCmpBr, qIncLoc, qLdLocFld*, qLdArgCall,
// qLdElemAt) and specialized forms (qCallExact, qLdFldD/qStFldD) that
// bake verifier-proven exact-type facts. A binary operator and qCmpBr
// may also read operands in place that an absorbed ldloc, ldarg or ldc
// would have pushed (qinst.asrc, bsrc).
type qOp uint8

const (
	qNop qOp = iota
	qLdc     // push Value{Bits: imm}
	qLdNull

	qLdLoc // a = slot
	qStLoc
	qLdArg
	qStArg

	qDup
	qPop

	// Binary operators, qAdd..qCgtF: the right operand is popped off
	// the operand stack, or read in place (bsrc).
	qAdd
	qSub
	qMul
	qDiv
	qRem
	qAnd
	qOr
	qXor
	qShl
	qShr
	qAddF
	qSubF
	qMulF
	qDivF
	qCeq
	qClt
	qCgt
	qCeqF
	qCltF
	qCgtF

	qNeg
	qNot
	qNegF

	qConvI2F
	qConvF2I

	qBr      // t = target index; b = 1: a rotated latch, which runs the qCmpBr at t
	qBrTrue  // t = target index
	qBrFalse // t = target index
	qCmpBr   // fused [[X;] Y;] compare+branch: sub = the compare, b = branch-on-true, t = target
	qIncLoc  // fused ldloc a; ldc.i4 imm; add; stloc a

	qCall      // m = callee
	qLdArgCall // fused ldarg a; call m
	qCallExact // devirtualized callvirt: m = proven implementation
	qCallVirt  // m = statically named method; cmt/cimpl inline cache
	qIntern    // a = internal index (resolved per dispatch; registry may be re-pointed)

	qRet
	qRetVal

	qNewObj // mt = class
	qNewArr // mt = array type
	qNewMD  // mt = multidim array type (rank from mt)

	qLdLen
	qLdElem    // element layout from the site cache (ekey/ekind/esize)
	qLdElemAt  // fused {ldloc|ldarg|ldsfld} a; ldloc b; [{ldloc t|ldc.i4 C}; add|sub;] ldelem [; sub]
	qStElem    // cached layout likewise; b = 1 when the store is verifier-checked
	qLdFld     // dynamic: a = field slot
	qLdFldD    // fld = baked descriptor (exact receiver)
	qLdLocFld  // fused ldloc a; ldfld b (dynamic)
	qLdLocFldD // fused ldloc a; ldfld with baked fld
	qStFld     // dynamic: a = field slot
	qStFldD    // fld = baked descriptor; b = 1 when the store is verifier-checked
	qLdSFld    // a = global index
	qStSFld

	qTrap // raises traps[a] of the body at pc (runQuick's default arm)
)

// qinst is one pre-decoded quickened instruction. It is deliberately
// wide: operand decoding, registry lookups and branch-target
// resolution all happen once at quicken time.
type qinst struct {
	op qOp
	// asrc and bsrc say where a folded operand is read in place: OpLdLoc
	// (locals), OpLdArg (args), OpLdcI8 (any ldc: the immediate), or 0
	// (the operand stack). asrc reads slot a: qCmpBr's left operand, or
	// qLdElemAt's array, which may also be OpLdSFld (globals). bsrc reads
	// imm: the right operand of a binary operator or of a qCmpBr.
	asrc, bsrc Op
	// sub is the operator a superinstruction ends in: qCmpBr's compare,
	// or the binary operator qLdElemAt's element is the right operand of
	// (qNop: the element is pushed).
	sub qOp
	k   int8 // qLdElemAt: index = locals[b] + imm + k*locals[t], k in {0, +1, -1}
	// back marks a branch whose target precedes it: GC poll + step charge.
	back bool

	// Element-layout cache of an ldelem/stelem site: type index of the
	// rank-1 array type last seen here (freeSentinel when empty), its
	// element kind and size. Keyed on the header's type index, never on
	// an address, so a moving collection cannot stale it. Filled by
	// elemLayout; mutated under the execution token, like cmt/cimpl.
	ekind Kind
	esize uint8
	ekey  uint32

	a, b int32 // small operands: slots, selectors, flags
	t    int32 // branch target (index into insts after fixup)
	// pc is the bytecode offset of the source instruction (the fusion
	// head for superinstructions); pc2 is the offset of the fused
	// second instruction, or of the operator that read a folded operand.
	// Traps raised by a fused component report the component's own
	// offset so LineForPC attributes the original masm line, not the
	// fusion head's.
	pc, pc2 int32
	imm     uint64 // immediate constant bits

	m   *Method
	mt  *MethodTable
	fld *FieldDesc

	// Inline monomorphic cache for qCallVirt: the last receiver type
	// and its resolved implementation. Mutated during execution; safe
	// because the VM's execution token serializes managed dispatch.
	cmt   *MethodTable
	cimpl *Method
}

// elemLayout is the miss half of an element access: it resolves mt's
// element layout and, for rank-1 arrays, refills the site's cache with
// it; ok is false when mt is not an array type, so nothing else is ever
// cached. Fed an exact-type fact at quicken time it pre-seeds the cache.
func (q *qinst) elemLayout(mt *MethodTable) (k Kind, size, base uint32, ok bool) {
	if mt.Kind != TKArray {
		return 0, 0, 0, false
	}
	k, size, base = mt.Elem, uint32(mt.ElemSize()), arrayDataOff(mt)
	if base == HeaderSize {
		q.ekey, q.ekind, q.esize = uint32(mt.Index), k, uint8(size)
	}
	return k, size, base, true
}

// QuickenInfo summarizes one method's quickening for stats.
type QuickenInfo struct {
	In       int // source instructions decoded
	Out      int // quickened instructions emitted
	Fused    int // superinstructions formed
	Devirted int // callvirt sites bound to an exact implementation
}

// quickTrap is one entry of a body's trap table: the trap a qTrap
// instruction raises at its pc.
type quickTrap struct{ kind, detail string }

// rawInst is the decode-pass view of one bytecode instruction.
type rawInst struct {
	pc   int
	op   Op
	arg  int    // u16 operand, or absolute branch-target pc
	imm  uint64 // i32 (sign-extended) / i64 / r8 immediate bits
	size int
	trap *quickTrap // non-nil: reaching the instruction raises this
}

// allocQ lowers the allocations; trap names the trap of one whose type
// operand is missing or unfit for it.
var allocQ = map[Op]struct {
	q    qOp
	trap string
}{OpNewObj: {qNewObj, "bad type index"}, OpNewArr: {qNewArr, "bad array type index"}, OpNewMD: {qNewMD, "bad multidim type index"}}

// allocFits reports whether op can allocate an instance of mt.
func allocFits(op Op, mt *MethodTable) bool {
	switch op {
	case OpNewObj:
		return mt.Kind == TKClass
	case OpNewArr:
		return mt.Kind == TKArray
	default:
		return mt.Kind == TKArray && mt.Rank >= 2
	}
}

// decodeInst decodes the instruction at pc. Whatever would trap only
// when reached — an undefined opcode, a truncated operand, an operand
// naming no method, internal or fitting type — becomes the instruction's
// trap, with the kind and detail a decode-and-switch interpreter raises.
func (v *VM) decodeInst(code []byte, pc int) rawInst {
	op := Op(code[pc])
	r := rawInst{pc: pc, op: op, size: 1 + op.operandBytes()}
	switch {
	case !op.Valid():
		r.trap = &quickTrap{"bad opcode", fmt.Sprintf("%d", op)}
		return r
	case pc+r.size > len(code):
		// The operand read overruns the code: the runtime's own message.
		r.trap = &quickTrap{"invalid program", fmt.Sprintf("runtime error: index out of range [%d] with length %d",
			op.operandBytes()-1, len(code)-pc-1)}
		r.size = len(code) - pc
		return r
	}
	switch opTable[op].width {
	case wU16:
		r.arg = int(u16(code, pc+1))
	case wI32:
		v32 := int32(binary.LittleEndian.Uint32(code[pc+1:]))
		if op == OpLdcI4 {
			r.imm = uint64(int64(v32))
		} else {
			r.arg = pc + r.size + int(v32) // absolute target
		}
	case wI64:
		r.imm = binary.LittleEndian.Uint64(code[pc+1:])
	}
	switch op {
	case OpCall, OpCallVirt:
		if _, ok := v.MethodByIndex(r.arg); !ok {
			r.trap = &quickTrap{"bad method index", fmt.Sprintf("%d", r.arg)}
		}
	case OpIntern:
		if _, ok := v.InternalByIndex(r.arg); !ok {
			r.trap = &quickTrap{"bad internal index", fmt.Sprintf("%d", r.arg)}
		}
	case OpNewObj, OpNewArr, OpNewMD:
		if mt, ok := v.TypeByIndex(r.arg); !ok || !allocFits(op, mt) {
			r.trap = &quickTrap{allocQ[op].trap, fmt.Sprintf("%d", r.arg)}
		}
	}
	return r
}

// QuickenMethod lowers m's bytecode into quickened form and installs it;
// every activation of m then dispatches through the quickened loop. A
// verified method's Facts are spent here: baked fields, devirtualized
// calls, pre-seeded element caches and checked stores. An unverified
// method gets the same lowering without facts, so every site keeps its
// dynamic checks. Nothing is refused: an instruction that would trap
// only when reached (see decodeInst), or a branch to no instruction
// boundary, lowers to a qTrap that raises the trap at its pc.
func (v *VM) QuickenMethod(m *Method) QuickenInfo {
	code := m.Code
	facts := m.Facts
	if !m.Verified {
		facts = nil
	}

	// Pass 1: decode, collect branch-target offsets.
	var raw []rawInst
	targets := make(map[int]bool)
	for pc := 0; pc < len(code); {
		ri := v.decodeInst(code, pc)
		if ri.trap == nil && ri.op.Effect().Branch {
			targets[ri.arg] = true
		}
		raw = append(raw, ri)
		pc += ri.size
	}

	// factExact resolves an exact-type fact at a bytecode offset.
	factExact := func(pc int) *MethodTable {
		f, ok := facts[pc]
		if !ok || f.ExactType == 0 {
			return nil
		}
		mt, ok := v.TypeByIndex(int(f.ExactType) - 1)
		if !ok {
			return nil
		}
		return mt
	}
	storeChecked := func(pc int) int32 {
		if facts[pc].StoreChecked {
			return 1
		}
		return 0
	}
	// elemSite starts an element site's cache: empty (no object header
	// carries freeSentinel), or pre-seeded from an exact array fact. pc2
	// is the ldelem/stelem's own offset.
	elemSite := func(q *qinst, pc int) {
		q.ekey, q.pc2 = freeSentinel, int32(pc)
		if mt := factExact(pc); mt != nil {
			q.elemLayout(mt)
		}
	}
	// A raw instruction may be absorbed into a superinstruction only if
	// no branch lands on it (its offset would have no quickened index)
	// and it does not trap.
	free := func(j int) bool { return j < len(raw) && !targets[raw[j].pc] && raw[j].trap == nil }
	var traps []quickTrap
	trapInst := func(tr quickTrap, pc int) qinst {
		traps = append(traps, tr)
		return qinst{op: qTrap, a: int32(len(traps) - 1), pc: int32(pc)}
	}

	// Pass 2: emit, fusing where legal.
	info := QuickenInfo{In: len(raw)}
	insts := make([]qinst, 0, len(raw))
	pcToQ := make(map[int]int, len(raw))
	for i := 0; i < len(raw); {
		r := raw[i]
		pcToQ[r.pc] = len(insts)

		if r.trap != nil {
			insts = append(insts, trapInst(*r.trap, r.pc))
			i++
			continue
		}

		// ldloc X; ldc.i4 K; add; stloc X  →  qIncLoc
		if r.op == OpLdLoc && i+3 < len(raw) &&
			free(i+1) && free(i+2) && free(i+3) &&
			raw[i+1].op == OpLdcI4 && raw[i+2].op == OpAdd &&
			raw[i+3].op == OpStLoc && raw[i+3].arg == r.arg {
			insts = append(insts, qinst{op: qIncLoc, a: int32(r.arg), imm: raw[i+1].imm, pc: int32(r.pc)})
			info.Fused++
			i += 4
			continue
		}
		// [[{ldloc|ldarg} X;] {ldloc|ldarg|ldc} Y;] compare; brtrue|brfalse  →  qCmpBr,
		// reading X and Y in place
		if q, n := cmpBrAt(raw, i, free); n > 0 {
			insts = append(insts, q)
			info.Fused++
			i += n
			continue
		}
		// ldloc X; ldfld slot  →  qLdLocFld[D]
		if r.op == OpLdLoc && free(i+1) && raw[i+1].op == OpLdFld {
			slot := raw[i+1].arg
			fpc := raw[i+1].pc
			q := qinst{op: qLdLocFld, a: int32(r.arg), b: int32(slot), pc: int32(r.pc), pc2: int32(fpc)}
			if mt := factExact(fpc); mt != nil && mt.Kind == TKClass && slot < len(mt.Fields) {
				q.op = qLdLocFldD
				q.fld = &mt.Fields[slot]
			}
			insts = append(insts, q)
			info.Fused++
			i += 2
			continue
		}
		// ldarg X; call M  →  qLdArgCall
		if r.op == OpLdArg && free(i+1) && raw[i+1].op == OpCall {
			if callee, ok := v.MethodByIndex(raw[i+1].arg); ok && callee.NArgs >= 1 {
				insts = append(insts, qinst{
					op: qLdArgCall, a: int32(r.arg), m: callee,
					pc: int32(r.pc), pc2: int32(raw[i+1].pc),
				})
				info.Fused++
				i += 2
				continue
			}
		}

		// {ldloc A|ldarg A|ldsfld G}; ldloc I; [{ldloc K|ldc.i4 C}; {add|sub};] ldelem  →  qLdElemAt
		if (r.op == OpLdLoc || r.op == OpLdArg || r.op == OpLdSFld) && free(i+1) && raw[i+1].op == OpLdLoc {
			q := qinst{op: qLdElemAt, asrc: r.op, a: int32(r.arg), b: int32(raw[i+1].arg), pc: int32(r.pc)}
			j := i + 2
			if free(j) && free(j+1) && (raw[j].op == OpLdcI4 || raw[j].op == OpLdLoc) &&
				(raw[j+1].op == OpAdd || raw[j+1].op == OpSub) {
				// int64 wrap-around makes i-C and i+(-C), i-K and i+(-1)*K the same sum.
				sign := int8(1)
				if raw[j+1].op == OpSub {
					sign = -1
				}
				if raw[j].op == OpLdcI4 {
					q.imm = uint64(int64(sign) * int64(raw[j].imm))
				} else {
					q.k, q.t = sign, int32(raw[j].arg)
				}
				j += 2
			}
			if free(j) && raw[j].op == OpLdElem {
				elemSite(&q, raw[j].pc)
				// ...; ldelem; binop  →  the binop takes the element as its right operand
				if free(j+1) && elemFolds[raw[j+1].op] {
					q.sub = directQ[raw[j+1].op]
					j++
				}
				insts = append(insts, q)
				info.Fused++
				i = j + 1
				continue
			}
		}

		// {ldloc|ldarg|ldc} Y; binop  →  the binop, reading Y in place
		q := qinst{pc: int32(r.pc), pc2: int32(r.pc)}
		if src, x := foldSrc(r); src != 0 && free(i+1) && directQ[raw[i+1].op].binary() {
			q.bsrc, q.imm, q.pc2 = src, x, int32(raw[i+1].pc)
			i++
			r = raw[i]
			info.Fused++
		}
		switch r.op {
		case OpLdcI4, OpLdcI8, OpLdcR8:
			q.op, q.imm = qLdc, r.imm
		case OpLdLoc:
			q.op, q.a = qLdLoc, int32(r.arg)
		case OpStLoc:
			q.op, q.a = qStLoc, int32(r.arg)
		case OpLdArg:
			q.op, q.a = qLdArg, int32(r.arg)
		case OpStArg:
			q.op, q.a = qStArg, int32(r.arg)
		case OpBr:
			q.op, q.t = qBr, int32(r.arg)
		case OpBrTrue:
			q.op, q.t = qBrTrue, int32(r.arg)
		case OpBrFalse:
			q.op, q.t = qBrFalse, int32(r.arg)
		case OpCall, OpCallVirt:
			callee, _ := v.MethodByIndex(r.arg)
			q.op, q.m = qCall, callee
			if r.op == OpCallVirt {
				q.op = qCallVirt
				if mt := factExact(r.pc); mt != nil && callee.Virtual && callee.Owner != nil {
					if impl := lookupVSlot(mt, callee.VSlot); impl != nil {
						q.op, q.m = qCallExact, impl
						info.Devirted++
					}
				}
			}
		case OpIntern:
			q.op, q.a = qIntern, int32(r.arg)
		case OpNewObj, OpNewArr, OpNewMD:
			q.op = allocQ[r.op].q
			q.mt, _ = v.TypeByIndex(r.arg)
		case OpLdElem:
			q.op = qLdElem
			elemSite(&q, r.pc)
		case OpStElem:
			q.op, q.b = qStElem, storeChecked(r.pc)
			elemSite(&q, r.pc)
		case OpLdFld:
			q.op, q.a = qLdFld, int32(r.arg)
			if mt := factExact(r.pc); mt != nil && mt.Kind == TKClass && r.arg < len(mt.Fields) {
				q.op, q.fld = qLdFldD, &mt.Fields[r.arg]
			}
		case OpStFld:
			q.op, q.a = qStFld, int32(r.arg)
			if mt := factExact(r.pc); mt != nil && mt.Kind == TKClass && r.arg < len(mt.Fields) {
				q.op, q.fld, q.b = qStFldD, &mt.Fields[r.arg], storeChecked(r.pc)
			}
		case OpLdSFld:
			q.op, q.a = qLdSFld, int32(r.arg)
		case OpStSFld:
			q.op, q.a = qStSFld, int32(r.arg)
		default:
			op, ok := directQ[r.op]
			if !ok {
				// decodeInst traps every undefined opcode: a defined one
				// without a lowering is a bug here.
				panic(fmt.Sprintf("vm: quicken: no lowering for %s", r.op.Name()))
			}
			q.op = op
		}
		insts = append(insts, q)
		i++
	}

	// Pass 3: branch fixup — targets become quickened indices, and
	// backward branches (the GC poll / step-charge points) are marked
	// using original bytecode offsets, so poll placement matches a
	// decode-and-switch loop's nextPC < pc test exactly. A target past
	// the code falls off the end (a void return); a negative or
	// mid-instruction one gets a qTrap after the body, behind a qRet
	// that keeps the body's own end a void return.
	end := len(insts)
	for idx := 0; idx < end; idx++ {
		q := insts[idx]
		switch q.op {
		case qBr, qBrTrue, qBrFalse, qCmpBr:
			tpc, bpc := int(q.t), int(q.pc2) // pc2: the branch itself
			insts[idx].back = tpc < bpc
			if qi, ok := pcToQ[tpc]; ok {
				insts[idx].t = int32(qi)
			} else if tpc >= len(code) {
				insts[idx].t = int32(end)
			} else {
				if len(insts) == end {
					insts = append(insts, qinst{op: qRet})
				}
				insts[idx].t = int32(len(insts))
				insts = append(insts, trapInst(quickTrap{"invalid program",
					fmt.Sprintf("branch target %d is not an instruction", tpc)}, bpc))
			}
			// A backward br to a compare-branch that branches forward is a
			// rotated latch: it charges and polls as the br, then runs that
			// compare itself and leaves for its target or its successor.
			if h := int(insts[idx].t); q.op == qBr && tpc < bpc && h < end && insts[h].op == qCmpBr && !insts[h].back {
				insts[idx].b = 1
			}
		}
	}

	info.Out = len(insts)
	m.quick = &quickBody{insts: insts, traps: traps}
	return info
}

// directQ lowers the instructions that map one to one, operand-free.
var directQ = map[Op]qOp{
	OpNop: qNop, OpDup: qDup, OpPop: qPop, OpLdNull: qLdNull,
	OpAdd: qAdd, OpSub: qSub, OpMul: qMul, OpDiv: qDiv, OpRem: qRem,
	OpAnd: qAnd, OpOr: qOr, OpXor: qXor, OpShl: qShl, OpShr: qShr,
	OpAddF: qAddF, OpSubF: qSubF, OpMulF: qMulF, OpDivF: qDivF,
	OpCeq: qCeq, OpClt: qClt, OpCgt: qCgt, OpCeqF: qCeqF, OpCltF: qCltF, OpCgtF: qCgtF,
	OpNeg: qNeg, OpNot: qNot, OpNegF: qNegF, OpConvI2F: qConvI2F, OpConvF2I: qConvF2I,
	OpRet: qRet, OpRetVal: qRetVal, OpLdLen: qLdLen,
}

// elemFolds are the binary operators a qLdElemAt absorbs; none traps.
var elemFolds = map[Op]bool{OpAdd: true, OpSub: true, OpMul: true, OpAddF: true, OpSubF: true, OpMulF: true, OpDivF: true}

func (op qOp) binary() bool { return op >= qAdd && op <= qCgtF }

// foldSrc says where a consumer reads r's value in place when it
// absorbs r, and with what (qinst.asrc, bsrc): a slot for ldloc and
// ldarg, the immediate for an ldc; src is 0 for any other instruction.
func foldSrc(r rawInst) (src Op, x uint64) {
	switch r.op {
	case OpLdLoc, OpLdArg:
		return r.op, uint64(r.arg)
	case OpLdcI4, OpLdcI8, OpLdcR8:
		return OpLdcI8, r.imm
	}
	return 0, 0
}

// cmpBrAt fuses the compare-branch starting at raw[i], if there is one:
// a compare with the brtrue or brfalse after it, and before it the load
// of its right operand, or of both (the left one an ldloc or ldarg),
// whose values it then reads in place. n counts the raw instructions
// covered, 0 when none fuses; every one but the first must be free.
func cmpBrAt(raw []rawInst, i int, free func(int) bool) (q qinst, n int) {
	for loads := 2; loads >= 0; loads-- {
		c := i + loads
		if loads > 0 && !free(c) || !free(c+1) || (raw[c+1].op != OpBrTrue && raw[c+1].op != OpBrFalse) {
			continue
		}
		q = qinst{op: qCmpBr, sub: directQ[raw[c].op], t: int32(raw[c+1].arg), pc: int32(raw[i].pc), pc2: int32(raw[c+1].pc)}
		if q.sub < qCeq || q.sub > qCgtF {
			continue
		}
		if raw[c+1].op == OpBrTrue {
			q.b = 1
		}
		if loads == 2 {
			if !free(i+1) || (raw[i].op != OpLdLoc && raw[i].op != OpLdArg) {
				continue
			}
			q.asrc, q.a = raw[i].op, int32(raw[i].arg)
		}
		if loads > 0 {
			if q.bsrc, q.imm = foldSrc(raw[c-1]); q.bsrc == 0 {
				continue
			}
		}
		return q, loads + 2
	}
	return qinst{}, 0
}
