// Package bcverify statically verifies Motor bytecode at module load.
//
// The SSCLI runtime the paper builds on ships a CIL verifier; until
// now the Motor reproduction executed any assembled module unchecked,
// relying on interpreter traps — and, for the §4.2.1 object-model
// integrity rule, a per-operation dynamic check in the engine. This
// package restores load-time verification by abstract interpretation
// over the operand stack of every method:
//
//   - every instruction is decoded against the opcode-effect metadata
//     table (vm.Op.Effect): unknown opcodes, truncated operands and
//     branches into the middle of an instruction are structural errors;
//   - a worklist fixpoint computes the stack depth and slot types at
//     every reachable instruction; the type lattice is
//     {int, float, ref(class), any} plus definitely-null and
//     uninitialized-local facts (see docs/VERIFIER.md);
//   - merge points require equal depths and compatible slot types
//     (int/float confusion is rejected; references widen to their
//     common ancestor; anything meets SKAny at SKAny);
//   - locals must be assigned before use; call/callvirt/intern arity,
//     virtual dispatch shape and declared return types are checked;
//     ret/ret.val must match the method signature with an empty stack.
//
// On top of the lattice runs the static transferability pass: FCall
// signatures (core.Signatures) mark which parameters are MPI transport
// buffers and which integrity constraint applies. A method all of
// whose buffer arguments are provably transferable is flagged
// TransportVerified, and the engine's runtime check becomes a debug
// assertion while such a method's frame is on top (paper §4.2.1;
// compare KaMPIng's compile-time buffer checking).
//
// Rejections carry the method, instruction index, pc and masm source
// line (via the assembler's line tables).
package bcverify

import (
	"fmt"
	"time"

	"motor/internal/vm"
)

// Constraint is the integrity requirement an FCall places on a
// transport buffer parameter (paper §4.2.1).
type Constraint uint8

// Buffer constraints.
const (
	// NoRefFields admits any object whose instance data contains no
	// references: classes of scalars, or simple-typed arrays. This is
	// the wholeBuf rule.
	NoRefFields Constraint = iota
	// SimpleArray admits only arrays of unmanaged scalars — the
	// rangeBuf rule for offset/count operations.
	SimpleArray
)

// String names the constraint for diagnostics.
func (c Constraint) String() string {
	if c == SimpleArray {
		return "simple-typed array"
	}
	return "reference-free object"
}

// BufParam marks one FCall argument as a transport buffer.
type BufParam struct {
	// Arg is the parameter position (0-based, declaration order).
	Arg int
	// Constraint is the integrity rule the engine would otherwise
	// check dynamically.
	Constraint Constraint
}

// Sig is the verifier-visible signature of one internal call: arity,
// result kind (KindVoid for none) and its transport buffer
// parameters. The Motor core exposes the System.MP surface as a
// map[string]Sig via core.Signatures.
type Sig struct {
	Name  string
	NArgs int
	Ret   vm.Kind
	Bufs  []BufParam
}

// Options configures verification.
type Options struct {
	// Sigs maps FCall names to signatures. The VM builtin sigs
	// (BuiltinSigs) are merged in automatically; entries here win.
	// Interns of FCalls absent from the merged map verify structurally
	// (arity from the registry) but leave the method not
	// TransportVerified.
	Sigs map[string]Sig
}

// Stats aggregates one verification run.
type Stats struct {
	// Methods and Insts count verified methods and decoded
	// instructions.
	Methods int
	Insts   int
	// Transportable counts methods proven transport-safe.
	Transportable int
	// Elapsed is wall time spent verifying.
	Elapsed time.Duration
}

// Error is a verification rejection with a precise location.
type Error struct {
	Method string
	Inst   int // instruction index within the method, -1 for whole-method errors
	PC     int // bytecode offset
	Line   int // masm source line, 0 when unknown
	Msg    string
}

// Error implements the error interface.
func (e *Error) Error() string {
	loc := fmt.Sprintf("inst #%d (pc=%d)", e.Inst, e.PC)
	if e.Inst < 0 {
		loc = "method"
	}
	if e.Line > 0 {
		loc += fmt.Sprintf(", line %d", e.Line)
	}
	return fmt.Sprintf("bcverify: %s: %s: %s", e.Method, loc, e.Msg)
}

// BuiltinSigs describes the FCalls every VM registers regardless of
// embedder (internal/vm/builtins.go), so modules using only console
// and GC calls can still be proven transport-safe.
func BuiltinSigs() map[string]Sig {
	return map[string]Sig{
		"console.writei":  {Name: "console.writei", NArgs: 1},
		"console.writef":  {Name: "console.writef", NArgs: 1},
		"console.writes":  {Name: "console.writes", NArgs: 1},
		"console.newline": {Name: "console.newline", NArgs: 0},
		"sys.ticks":       {Name: "sys.ticks", NArgs: 0, Ret: vm.KindInt64},
		"gc.collect":      {Name: "gc.collect", NArgs: 1},
		"gc.scavenges":    {Name: "gc.scavenges", NArgs: 0, Ret: vm.KindInt64},
		"gc.workers":      {Name: "gc.workers", NArgs: 0, Ret: vm.KindInt64},
		"gc.compact":      {Name: "gc.compact", NArgs: 0},
	}
}

// VerifyModule verifies every method of a freshly assembled module
// against the VM it was registered on. On success each method is
// marked Verified (and TransportVerified where proven) and stats are
// returned; the first rejection aborts with a *Error.
func VerifyModule(v *vm.VM, methods []*vm.Method, opts Options) (Stats, error) {
	start := time.Now()
	sigs := mergeSigs(opts.Sigs)
	var st Stats
	for _, m := range methods {
		insts, transportable, err := verifyMethod(v, m, sigs)
		st.Insts += insts
		if err != nil {
			st.Elapsed = time.Since(start)
			return st, err
		}
		m.Verified = true
		m.TransportVerified = transportable
		st.Methods++
		if transportable {
			st.Transportable++
		}
	}
	st.Elapsed = time.Since(start)
	return st, nil
}

// VerifyMethod verifies a single method (tests, hand-built code). The
// method is flagged on success exactly as by VerifyModule.
func VerifyMethod(v *vm.VM, m *vm.Method, opts Options) error {
	_, transportable, err := verifyMethod(v, m, mergeSigs(opts.Sigs))
	if err != nil {
		return err
	}
	m.Verified = true
	m.TransportVerified = transportable
	return nil
}

func mergeSigs(user map[string]Sig) map[string]Sig {
	sigs := BuiltinSigs()
	for name, s := range user {
		sigs[name] = s
	}
	return sigs
}
