package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"

	"motor/internal/obs"
)

// The interpreter's frame stack. One callFrame per activation; the
// frame stack lives on the Thread so the collector can enumerate stack
// roots precisely (every Value carries an IsRef tag). Every frame runs
// on the quickened loop (quickrun.go).

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
	// pc is the bytecode offset committed at every trap and GC-capable
	// point, so diagnostics and line mapping speak of the masm source;
	// qpc is the resume index into the quickened body.
	pc  int
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
	if err != nil {
		var trap *Trap // declared here: its address escapes, so it allocates
		if errors.As(err, &trap) {
			// A trap surfacing to the embedder is a post-mortem moment:
			// capture the flight recorder before the process (or test)
			// moves on and the ring is overwritten.
			obs.FlightTrip("guest-trap")
		}
	}
	return v, err
}

func (t *Thread) pushCallFrame(m *Method, args []Value) {
	t.pushFrameOwned(m, append([]Value(nil), args...))
}

// pushFrameOwned pushes a frame taking ownership of args (no copy; a
// managed call passes the popped top of its caller's operand stack),
// lowering m first if this is its first activation and Load did not
// (methods built outside a module, or added after it). Verified methods
// carry MaxStack, so the operand stack can be sized once here and never
// grow — the quickened loop relies on this to keep pushes allocation-free
// between safepoints.
func (t *Thread) pushFrameOwned(m *Method, args []Value) {
	if m.quick == nil {
		t.vm.QuickenMethod(m)
	}
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

// run executes until the frame stack shrinks back to depth base: the top
// frame runs on the quickened loop until it returns (pop it, propagate
// its result) or pushes a managed callee (loop around to run that). The
// result of the last returning frame is propagated.
func (t *Thread) run(base int) (result Value, err error) {
	callerInFCall := t.inFCall
	t.inFCall = false
	defer t.unwind(base, callerInFCall, &err)
	for len(t.callStack) > base {
		rv, hasRV, returned, qerr := t.runQuick(t.callStack[len(t.callStack)-1])
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
	}
	return result, nil
}

// unwind is run's deferred exit: it restores the caller's FCall flag
// and turns a panic out of the dispatch loop into the error the call
// returns, dropping the frames above base.
func (t *Thread) unwind(base int, callerInFCall bool, err *error) {
	panickedInFCall := t.inFCall
	t.inFCall = callerInFCall
	r := recover()
	if r == nil {
		return
	}
	switch e := r.(type) {
	case *BoundsError:
		fr := t.callStack[len(t.callStack)-1]
		*err = fr.trap("index out of range", e.Error())
	case runtime.Error:
		if panickedInFCall {
			// The panic unwound out of a host FCall, not the dispatch
			// loop: that is a bug in engine/host Go code. Re-panic rather
			// than masking it as a guest "invalid program" trap.
			panic(r)
		}
		// Malformed (unverified) bytecode: operand-stack underflow or an
		// out-of-range frame slot. Surface as a typed trap, at the last
		// committed pc, instead of crashing the host; verified modules
		// never get here.
		if len(t.callStack) > base {
			fr := t.callStack[len(t.callStack)-1]
			*err = fr.trap("invalid program", e.Error())
		} else {
			*err = &Trap{Kind: "invalid program", Detail: e.Error(), Method: "?", PC: 0}
		}
	case error:
		if !errors.Is(e, ErrOutOfMemory) {
			panic(r)
		}
		*err = e
	default:
		panic(r)
	}
	t.callStack = t.callStack[:base]
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
