// Fixture: violations of the §5.3 root-before-safepoint rule.
package fixture

import "motor/internal/vm"

func use(obj vm.Ref)      {}
func helper(t *vm.Thread) {}
func double(obj vm.Ref)   {}

// BadBcast is the reduced form of the BcastOn defect this analyzer
// caught in internal/core/comm.go (fixed in the same PR): the entry
// poll runs while obj is still unrooted, and obj is used afterwards.
func BadBcast(t *vm.Thread, obj vm.Ref) {
	t.PollGC()
	defer t.PollGC()
	use(obj) // want "used after the first safepoint"
}

// BadLateRoot roots the ref, but only after the safepoint has already
// given a sibling collector the chance to move the object.
func BadLateRoot(t *vm.Thread, obj vm.Ref) {
	t.PollGC()
	f := t.PushFrame(obj) // want "rooted after the first safepoint"
	defer f.Pop()
	use(f.Ref(0))
}

// BadPotential hands the thread to a callee (which may poll) before
// rooting; the later use sees a possibly-stale ref.
func BadPotential(t *vm.Thread, obj vm.Ref) {
	helper(t)
	use(obj) // want "used after the first call passing t"
}

// BadSecondRef roots one ref but forgets the other.
func BadSecondRef(t *vm.Thread, src, dst vm.Ref) {
	f := t.PushFrame(src)
	defer f.Pop()
	t.PollGC()
	use(f.Ref(0))
	double(dst) // want "\"dst\" is used after the first safepoint"
}

// BadStaleCopy roots the ref but keeps using the parameter after the
// poll: the frame slot is forwarded, the parameter is not.
func BadStaleCopy(t *vm.Thread, obj vm.Ref) {
	f := t.PushFrame(obj)
	defer f.Pop()
	t.PollGC()
	use(obj) // want "read it back through its frame"
}
