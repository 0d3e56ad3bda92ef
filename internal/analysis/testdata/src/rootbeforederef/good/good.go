// Fixture: compliant entry points — no diagnostics expected.
package fixture

import "motor/internal/vm"

func use(obj vm.Ref)      {}
func helper(t *vm.Thread) {}

// GoodEntry follows the engine discipline: root first, then poll, then
// read the ref back through the frame.
func GoodEntry(t *vm.Thread, obj vm.Ref) {
	f := t.PushFrame(obj)
	defer f.Pop()
	t.PollGC()
	defer t.PollGC()
	use(f.Ref(0))
}

// GoodForward is the Send→sendCommon forwarder shape: the ref's only
// use is at the forwarding call itself, never after a safepoint.
func GoodForward(t *vm.Thread, obj vm.Ref) {
	GoodEntry(t, obj)
}

// GoodNoSafepoint never lets the thread escape and never polls, so
// the ref cannot go stale.
func GoodNoSafepoint(t *vm.Thread, obj vm.Ref) {
	use(obj)
	use(obj)
}

// GoodMulti roots every ref before the poll.
func GoodMulti(t *vm.Thread, src, dst vm.Ref) {
	f := t.PushFrame(src, dst)
	defer f.Pop()
	t.PollGC()
	use(f.Ref(0))
	use(f.Ref(1))
}

// IgnoredEntry demonstrates the escape hatch: the violation is
// suppressed by a reasoned directive and must NOT be reported.
func IgnoredEntry(t *vm.Thread, obj vm.Ref) {
	helper(t)
	//lint:ignore motorlint/rootbeforederef obj is device-pinned by the caller for the whole call
	use(obj)
}
