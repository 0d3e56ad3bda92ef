package vm

import (
	"fmt"
	"runtime"
)

// Managed threads are cooperatively scheduled: at most one thread of
// a VM executes managed code at a time, and control transfers only at
// GC poll points (branches, calls, allocation, and the polling-waits
// inside FCalls). This realizes the paper's safepoint discipline —
// "only when all threads enter the safe state does collection
// commence" (§5.2) — because any thread that is not running is, by
// construction, parked at a poll point or executing native code that
// touches no managed memory.
//
// A poll costs one atomic load while nobody waits for the token: a
// goroutine that wants it announces itself (lockExec) before it
// blocks, and only then does a poll release and re-acquire the token.
// Sibling managed threads get the mutex's usual slices (the releasing
// thread usually re-acquires at once; a waiter starved for about a
// millisecond is handed the token). A waiting progress pass (ExecRun)
// is served at once: the poller yields its processor before
// re-acquiring, so the pass runs now instead of a millisecond later.
//
// An FCall that needs to wait (for example on message transport) must
// therefore never block in Go; it loops calling Thread.PollGC, which
// both yields to sibling threads and lets their collections proceed.
// This is exactly the polling-wait the paper substitutes for blocking
// system calls (§7.1).

// Thread is one managed execution context.
type Thread struct {
	vm   *VM
	name string

	// callStack is maintained by the interpreter.
	callStack []*callFrame

	// prot is the stack of FCall-protected reference slots: copies of
	// Go-side references that the collector treats as roots and
	// forwards on movement, mirroring the SSCLI's protected object
	// pointers (§5.1). PushFrame pushes a window of it.
	prot []Ref

	// inFCall is true while the interpreter is inside an OpIntern
	// host-function invocation. The trap recovery uses it to tell a
	// guest-program fault (malformed bytecode tripping a Go runtime
	// error in the dispatch loop — reported as a trap) from a bug in
	// host Go code (re-panicked, so it crashes loudly instead of being
	// blamed on the bytecode).
	inFCall bool

	// stepBudget, when non-zero, is decremented at every backward
	// branch and managed call; reaching zero raises a "step budget
	// exhausted" trap. The quickened loop charges at the same program
	// points as the reference interpreter the differential tests compare
	// it with, so a budgeted run diverges identically on both — what
	// those tests rely on to bound fuzzed guest programs.
	stepBudget int64

	attached bool
}

// SetStepBudget bounds managed execution on this thread: every
// backward branch and managed call costs one step, and exhausting the
// budget traps. Zero (the default) means unlimited.
func (t *Thread) SetStepBudget(n int64) { t.stepBudget = n }

// StartThread creates a managed thread and enters managed execution
// (acquiring the VM's execution token). The caller must End it.
func (v *VM) StartThread(name string) *Thread {
	t := &Thread{vm: v, name: name}
	v.lockExec(false)
	v.mu.Lock()
	v.threads[t] = struct{}{}
	t.attached = true
	v.mu.Unlock()
	return t
}

// End leaves managed execution and detaches the thread.
func (t *Thread) End() {
	if !t.attached {
		return
	}
	t.vm.mu.Lock()
	delete(t.vm.threads, t)
	t.attached = false
	t.vm.mu.Unlock()
	t.vm.execMu.Unlock()
}

// VM returns the owning VM.
func (t *Thread) VM() *VM { return t.vm }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// PollGC is the cooperative safepoint: when someone waits for the
// execution token it momentarily releases it, so sibling threads may
// run (and collect) and a progress pass may run. The interpreter
// emits polls at backward branches and calls; FCalls call it on
// entry, on exit, and inside polling-waits (§7.4).
func (t *Thread) PollGC() { t.vm.PollPoint() }

// PollPoint is the VM-level safepoint for embedders that hold the
// execution token but have no Thread at hand (the message-passing
// engine's internal polling-waits). Equivalent to Thread.PollGC.
func (v *VM) PollPoint() {
	if v.execWanted.Load() != 0 {
		v.handOff()
	}
}

// handOff is a poll's slow path: release the token to its waiters,
// letting a waiting progress pass run first, and queue to get it back.
func (v *VM) handOff() {
	v.execMu.Unlock()
	if v.execGated.Load() != 0 {
		runtime.Gosched()
	}
	v.lockExec(false)
}

// lockExec acquires the execution token. The waiter is counted before
// it blocks, so the holder's next poll hands the token over; gated
// marks an ExecRun progress pass, which that poll also lets run first.
func (v *VM) lockExec(gated bool) {
	v.execWanted.Add(1)
	if gated {
		v.execGated.Add(1)
	}
	v.execMu.Lock()
	if gated {
		v.execGated.Add(-1)
	}
	v.execWanted.Add(-1)
}

// ExecRun runs f while holding the execution token, from a goroutine
// that is NOT a managed thread. This is the background progress
// engine's gate: while f runs, no managed thread executes and no
// collection can start, so f may touch pinned managed buffers and
// complete requests whose conditional pins the collector would
// otherwise be resolving concurrently. f must not block and must not
// re-enter managed execution (StartThread/ExecRun) — it is a
// safepoint-shaped critical section, kept as short as one progress
// pass.
func (v *VM) ExecRun(f func()) {
	v.lockExec(true)
	defer v.execMu.Unlock()
	f()
}

// Park releases the execution token for the whole duration of wait —
// unlike PollGC's momentary release — and reacquires it before
// returning. It is the blocking form of the polling-wait: a thread
// whose request will be completed by the background progress engine
// parks on a channel instead of spinning through poll points. While
// parked the thread is at a safepoint by construction (§5.2): its
// roots are stable and sibling threads may run and collect. wait must
// not touch managed memory.
func (t *Thread) Park(wait func()) {
	t.vm.execMu.Unlock()
	wait()
	t.vm.lockExec(false)
}

// InTransportVerified reports whether the innermost managed frame on
// this thread belongs to a method the load-time verifier proved
// transport-safe. FCalls do not push frames, so during an intern call
// the top frame is the calling method — the Motor engine consults
// this to skip the dynamic object-model check on the verified path.
// False when no managed code is running (Go-API calls stay dynamic).
func (t *Thread) InTransportVerified() bool {
	if n := len(t.callStack); n > 0 {
		return t.callStack[n-1].method.TransportVerified
	}
	return false
}

// Frame is a window of FCall-protected reference slots on a thread
// (PushFrame). It is a value: rooting allocates nothing.
type Frame struct {
	t         *Thread
	base, top int
}

// PushFrame copies refs into FCall-protected slots on the thread and
// returns their frame; pop it with defer f.Pop(). While pushed, the
// slots are GC roots and are forwarded if their objects move, so after
// any safepoint read a ref back with f.Ref(i): the caller's own copy
// may be stale.
func (t *Thread) PushFrame(refs ...Ref) Frame {
	base := len(t.prot)
	t.prot = append(t.prot, refs...)
	return Frame{t: t, base: base, top: len(t.prot)}
}

// Ref returns the current value of the frame's slot i.
func (f Frame) Ref(i int) Ref { return f.t.prot[f.base+i] }

// Pop unregisters the frame's slots. Frames pop in the reverse order
// of their pushes.
func (f Frame) Pop() {
	if len(f.t.prot) != f.top {
		panic(fmt.Sprintf("vm: unbalanced protected frame pop on thread %s", f.t.name))
	}
	f.t.prot = f.t.prot[:f.base]
}

// visitRoots applies visit to every reference slot owned by the
// thread: interpreter locals, evaluation stacks, and protected FCall
// frames.
func (t *Thread) visitRoots(visit func(Ref) Ref) {
	for _, fr := range t.callStack {
		fr.visitRoots(visit)
	}
	for i, r := range t.prot {
		if r != NullRef {
			t.prot[i] = visit(r)
		}
	}
}

// WithThread runs f inside a temporary managed thread. It is the
// standard entry point for tests and embedders that need heap access.
func (v *VM) WithThread(name string, f func(t *Thread)) {
	t := v.StartThread(name)
	defer t.End()
	f(t)
}

// CollectYoung forces a scavenge. Must be called from managed context
// (inside a thread).
func (t *Thread) CollectYoung() { t.vm.collect(false) }

// CollectFull forces a full (scavenge + elder mark-sweep) collection.
func (t *Thread) CollectFull() { t.vm.collect(true) }

// CollectCompact forces a full collection with elder compaction. The
// §5.2 policy (gcworkers=1) never compacts, so this degrades to
// CollectFull there.
func (t *Thread) CollectCompact() {
	t.vm.Heap.RequestCompaction()
	t.vm.collect(true)
}
