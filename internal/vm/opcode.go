package vm

// Op is a bytecode opcode. The instruction set is a compact CIL-like
// stack machine: enough to express the paper's managed workloads
// (ping-pong drivers, linked-structure construction, numeric kernels)
// while keeping the interpreter auditable.
type Op byte

// Opcodes. Operand widths are fixed per opcode (see opInfo).
const (
	OpNop Op = iota

	// Constants.
	OpLdcI4 // int32 immediate, pushed sign-extended
	OpLdcI8 // int64 immediate
	OpLdcR8 // float64 immediate
	OpLdNull

	// Locals and arguments.
	OpLdLoc // u16 index
	OpStLoc // u16 index
	OpLdArg // u16 index
	OpStArg // u16 index

	// Stack shuffling.
	OpDup
	OpPop

	// Integer arithmetic (int64 semantics).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpNeg
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNot

	// Float arithmetic (float64 semantics).
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpNegF

	// Comparisons (push 0/1).
	OpCeq
	OpClt
	OpCgt
	OpCeqF
	OpCltF
	OpCgtF

	// Conversions.
	OpConvI2F
	OpConvF2I

	// Control flow. Branch operands are int32 offsets relative to the
	// end of the instruction.
	OpBr
	OpBrTrue
	OpBrFalse

	// Calls.
	OpCall     // u16 method index
	OpCallVirt // u16 method index of the statically named method; dispatched via the receiver's vtable slot
	OpIntern   // u16 internal-call index (FCall)
	OpRet      // return void
	OpRetVal   // return top of stack

	// Objects and arrays.
	OpNewObj // u16 type index
	OpNewArr // u16 array-type index; pops length
	OpNewMD  // u16 array-type index; pops rank dimension sizes (row-major order)
	OpLdLen
	OpLdElem // pops index, array
	OpStElem // pops value, index, array
	OpLdFld  // u16 field slot; pops object
	OpStFld  // u16 field slot; pops value, object
	OpLdSFld // u16 global index
	OpStSFld // u16 global index

	opCount
)

// operand width categories
type opWidth uint8

const (
	wNone opWidth = iota
	wU16
	wI32
	wI64
)

type opInfo struct {
	name  string
	width opWidth
}

var opTable = [opCount]opInfo{
	OpNop:      {"nop", wNone},
	OpLdcI4:    {"ldc.i4", wI32},
	OpLdcI8:    {"ldc.i8", wI64},
	OpLdcR8:    {"ldc.r8", wI64},
	OpLdNull:   {"ldnull", wNone},
	OpLdLoc:    {"ldloc", wU16},
	OpStLoc:    {"stloc", wU16},
	OpLdArg:    {"ldarg", wU16},
	OpStArg:    {"starg", wU16},
	OpDup:      {"dup", wNone},
	OpPop:      {"pop", wNone},
	OpAdd:      {"add", wNone},
	OpSub:      {"sub", wNone},
	OpMul:      {"mul", wNone},
	OpDiv:      {"div", wNone},
	OpRem:      {"rem", wNone},
	OpNeg:      {"neg", wNone},
	OpAnd:      {"and", wNone},
	OpOr:       {"or", wNone},
	OpXor:      {"xor", wNone},
	OpShl:      {"shl", wNone},
	OpShr:      {"shr", wNone},
	OpNot:      {"not", wNone},
	OpAddF:     {"add.f", wNone},
	OpSubF:     {"sub.f", wNone},
	OpMulF:     {"mul.f", wNone},
	OpDivF:     {"div.f", wNone},
	OpNegF:     {"neg.f", wNone},
	OpCeq:      {"ceq", wNone},
	OpClt:      {"clt", wNone},
	OpCgt:      {"cgt", wNone},
	OpCeqF:     {"ceq.f", wNone},
	OpCltF:     {"clt.f", wNone},
	OpCgtF:     {"cgt.f", wNone},
	OpConvI2F:  {"conv.i2f", wNone},
	OpConvF2I:  {"conv.f2i", wNone},
	OpBr:       {"br", wI32},
	OpBrTrue:   {"brtrue", wI32},
	OpBrFalse:  {"brfalse", wI32},
	OpCall:     {"call", wU16},
	OpCallVirt: {"callvirt", wU16},
	OpIntern:   {"intern", wU16},
	OpRet:      {"ret", wNone},
	OpRetVal:   {"ret.val", wNone},
	OpNewObj:   {"newobj", wU16},
	OpNewArr:   {"newarr", wU16},
	OpNewMD:    {"newmd", wU16},
	OpLdLen:    {"ldlen", wNone},
	OpLdElem:   {"ldelem", wNone},
	OpStElem:   {"stelem", wNone},
	OpLdFld:    {"ldfld", wU16},
	OpStFld:    {"stfld", wU16},
	OpLdSFld:   {"ldsfld", wU16},
	OpStSFld:   {"stsfld", wU16},
}

// Name returns the assembler mnemonic.
func (o Op) Name() string {
	if int(o) < len(opTable) && opTable[o].name != "" {
		return opTable[o].name
	}
	return "op?"
}

// Valid reports whether the byte encodes a defined opcode.
func (o Op) Valid() bool { return o < opCount && opTable[o].name != "" }

// width returns the operand byte count.
func (o Op) operandBytes() int {
	if o >= opCount {
		// Undefined opcodes decode as operand-free so the interpreter
		// reaches its bad-opcode trap instead of indexing out of range.
		return 0
	}
	switch opTable[o].width {
	case wU16:
		return 2
	case wI32:
		return 4
	case wI64:
		return 8
	default:
		return 0
	}
}

// OperandBytes is the exported operand width (0 for undefined opcodes).
func (o Op) OperandBytes() int { return o.operandBytes() }

// opByName resolves a mnemonic (used by the text assembler).
var opByName = func() map[string]Op {
	m := make(map[string]Op, opCount)
	for op := Op(0); op < opCount; op++ {
		if opTable[op].name != "" {
			m[opTable[op].name] = op
		}
	}
	return m
}()

// --- static opcode metadata ---------------------------------------------------

// StackKind is the coarse classification of one evaluation-stack slot
// used by the static metadata below and by the bytecode verifier
// (internal/vm/bcverify). It is deliberately smaller than Kind: the
// evaluation stack only ever holds int64s, float64s and references.
type StackKind uint8

// Stack slot classifications.
const (
	// SKAny matches any slot (used where the static table cannot
	// commit: arguments, globals, untyped FCall results).
	SKAny StackKind = iota
	// SKInt is a value with int64 semantics.
	SKInt
	// SKFloat is a value with float64 semantics.
	SKFloat
	// SKRef is an object reference (possibly null).
	SKRef
)

// String names the classification for diagnostics.
func (k StackKind) String() string {
	switch k {
	case SKInt:
		return "int"
	case SKFloat:
		return "float"
	case SKRef:
		return "ref"
	default:
		return "any"
	}
}

// Effect is the declarative stack contract of one opcode: what it pops
// (top of stack first), what it pushes, and how it transfers control.
// The dispatch loop (quickrun.go) is the executable semantics; this
// table makes the stack contract it implements available to static
// tools — the verifier checks every method against it, and a unit test
// keeps it consistent with the operand-width table.
type Effect struct {
	// Pop lists the operand kinds consumed, top of stack first. Nil for
	// Variable opcodes, whose arity depends on operand resolution.
	Pop []StackKind
	// Push lists the result kinds produced (at most one today).
	Push []StackKind
	// Branch marks opcodes with an i32 branch-offset operand.
	Branch bool
	// Uncond marks branches with no fall-through successor (br).
	Uncond bool
	// Terminator marks opcodes that end the method (ret, ret.val).
	Terminator bool
	// Variable marks opcodes whose pops/pushes depend on the resolved
	// operand (call, callvirt, intern, newmd); the verifier computes
	// their effect from the method / FCall / type registries.
	Variable bool
}

var effAnyAny = []StackKind{SKAny, SKAny}
var effIntInt = []StackKind{SKInt, SKInt}
var effFltFlt = []StackKind{SKFloat, SKFloat}

var effectTable = [opCount]Effect{
	OpNop:    {},
	OpLdcI4:  {Push: []StackKind{SKInt}},
	OpLdcI8:  {Push: []StackKind{SKInt}},
	OpLdcR8:  {Push: []StackKind{SKFloat}},
	OpLdNull: {Push: []StackKind{SKRef}},

	// Frame-slot accesses: pops/pushes are fixed, but the pushed type
	// is the tracked slot type — the verifier refines SKAny.
	OpLdLoc: {Push: []StackKind{SKAny}},
	OpStLoc: {Pop: []StackKind{SKAny}},
	OpLdArg: {Push: []StackKind{SKAny}},
	OpStArg: {Pop: []StackKind{SKAny}},

	OpDup: {Pop: []StackKind{SKAny}, Push: effAnyAny},
	OpPop: {Pop: []StackKind{SKAny}},

	OpAdd: {Pop: effIntInt, Push: []StackKind{SKInt}},
	OpSub: {Pop: effIntInt, Push: []StackKind{SKInt}},
	OpMul: {Pop: effIntInt, Push: []StackKind{SKInt}},
	OpDiv: {Pop: effIntInt, Push: []StackKind{SKInt}},
	OpRem: {Pop: effIntInt, Push: []StackKind{SKInt}},
	OpNeg: {Pop: []StackKind{SKInt}, Push: []StackKind{SKInt}},
	OpAnd: {Pop: effIntInt, Push: []StackKind{SKInt}},
	OpOr:  {Pop: effIntInt, Push: []StackKind{SKInt}},
	OpXor: {Pop: effIntInt, Push: []StackKind{SKInt}},
	OpShl: {Pop: effIntInt, Push: []StackKind{SKInt}},
	OpShr: {Pop: effIntInt, Push: []StackKind{SKInt}},
	OpNot: {Pop: []StackKind{SKInt}, Push: []StackKind{SKInt}},

	OpAddF: {Pop: effFltFlt, Push: []StackKind{SKFloat}},
	OpSubF: {Pop: effFltFlt, Push: []StackKind{SKFloat}},
	OpMulF: {Pop: effFltFlt, Push: []StackKind{SKFloat}},
	OpDivF: {Pop: effFltFlt, Push: []StackKind{SKFloat}},
	OpNegF: {Pop: []StackKind{SKFloat}, Push: []StackKind{SKFloat}},

	// ceq compares raw bits — identity for refs, equality for ints. The
	// verifier requires both operands in one category and rejects float
	// operands outright (bit equality would make NaN==NaN true and
	// +0.0==-0.0 false; guests must use ceq.f).
	OpCeq:  {Pop: effAnyAny, Push: []StackKind{SKInt}},
	OpClt:  {Pop: effIntInt, Push: []StackKind{SKInt}},
	OpCgt:  {Pop: effIntInt, Push: []StackKind{SKInt}},
	OpCeqF: {Pop: effFltFlt, Push: []StackKind{SKInt}},
	OpCltF: {Pop: effFltFlt, Push: []StackKind{SKInt}},
	OpCgtF: {Pop: effFltFlt, Push: []StackKind{SKInt}},

	OpConvI2F: {Pop: []StackKind{SKInt}, Push: []StackKind{SKFloat}},
	OpConvF2I: {Pop: []StackKind{SKFloat}, Push: []StackKind{SKInt}},

	OpBr: {Branch: true, Uncond: true},
	// Branch conditions test raw bits: int or ref (null test), never
	// float — the verifier rejects float conditions.
	OpBrTrue:  {Pop: []StackKind{SKAny}, Branch: true},
	OpBrFalse: {Pop: []StackKind{SKAny}, Branch: true},

	OpCall:     {Variable: true},
	OpCallVirt: {Variable: true},
	OpIntern:   {Variable: true},
	OpRet:      {Terminator: true},
	OpRetVal:   {Pop: []StackKind{SKAny}, Terminator: true},

	OpNewObj: {Push: []StackKind{SKRef}},
	OpNewArr: {Pop: []StackKind{SKInt}, Push: []StackKind{SKRef}},
	OpNewMD:  {Variable: true}, // pops Rank lengths
	OpLdLen:  {Pop: []StackKind{SKRef}, Push: []StackKind{SKInt}},
	OpLdElem: {Pop: []StackKind{SKInt, SKRef}, Push: []StackKind{SKAny}},
	OpStElem: {Pop: []StackKind{SKAny, SKInt, SKRef}},
	OpLdFld:  {Pop: []StackKind{SKRef}, Push: []StackKind{SKAny}},
	OpStFld:  {Pop: []StackKind{SKAny, SKRef}},
	OpLdSFld: {Push: []StackKind{SKAny}},
	OpStSFld: {Pop: []StackKind{SKAny}},
}

// Effect returns the opcode's static stack contract (the zero Effect
// for undefined opcodes).
func (o Op) Effect() Effect {
	if !o.Valid() {
		return Effect{}
	}
	return effectTable[o]
}
