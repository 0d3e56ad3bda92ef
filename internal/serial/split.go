package serial

import (
	"fmt"

	"motor/internal/vm"
)

// The split representation (paper §7.5): one array serialized as many
// standalone parts, each with its own type table and each
// individually deserializable — what makes the extended
// object-oriented scatter/gather operations possible. "For scatter
// operations the serialization mechanism automatically splits the
// array and flattens referenced objects. Conversely, for gather
// operations the deserialization mechanism takes many split
// representations and reconstructs them into a single array."
// Each part is a stream (NewStreamWriterPart over PartRange); the
// receiver deserializes the parts and joins them with GatherRefs.

// PartRange computes the contiguous element range [lo,hi) of part p
// when splitting n elements into parts pieces (earlier parts take the
// remainder, matching MPI scatter conventions).
func PartRange(n, parts, p int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = p*base + min(p, rem)
	hi = lo + base
	if p < rem {
		hi++
	}
	return lo, hi
}

// GatherRefs concatenates already-deserialized sub-arrays into a
// single array — the final step of a gather (the core's streaming
// OGather). All subs must be non-null arrays of the same type; they
// need not be rooted by the caller beyond the call itself.
func GatherRefs(v *vm.VM, subs []vm.Ref) (vm.Ref, error) {
	if len(subs) == 0 {
		return vm.NullRef, fmt.Errorf("serial: gather of zero parts")
	}
	guard := &refGuard{refs: subs}
	v.AddRootProvider(guard)
	defer v.RemoveRootProvider(guard)

	var mt *vm.MethodTable
	total := 0
	for i, ref := range subs {
		if ref == vm.NullRef {
			return vm.NullRef, fmt.Errorf("serial: gather part %d has null root", i)
		}
		pm := v.Heap.MT(ref)
		if pm.Kind != vm.TKArray {
			return vm.NullRef, fmt.Errorf("serial: gather part %d root is %s, not an array", i, pm)
		}
		if mt == nil {
			mt = pm
		} else if pm != mt {
			return vm.NullRef, fmt.Errorf("serial: gather parts disagree on type: %s vs %s", pm, mt)
		}
		total += v.Heap.Length(ref)
	}
	h := v.Heap
	result, err := h.AllocArray(mt, total)
	if err != nil {
		return vm.NullRef, err
	}
	// Protect result too: element copying does not allocate, but be
	// conservative about future changes.
	guard2 := &refGuard{refs: []vm.Ref{result}}
	v.AddRootProvider(guard2)
	defer v.RemoveRootProvider(guard2)
	result = guard2.refs[0]

	at := 0
	for _, sub := range subs {
		n := h.Length(sub)
		if mt.Elem == vm.KindRef {
			for i := 0; i < n; i++ {
				h.SetElemRef(result, at+i, h.GetElemRef(sub, i))
			}
		} else {
			copy(h.DataBytes(result)[at*mt.ElemSize():], h.DataBytes(sub))
		}
		at += n
	}
	return guard2.refs[0], nil
}

// refGuard is a removable root provider over a ref slice.
type refGuard struct {
	refs []vm.Ref
}

// VisitRoots implements vm.RootProvider.
func (g *refGuard) VisitRoots(visit func(vm.Ref) vm.Ref) {
	for i, r := range g.refs {
		if r != vm.NullRef {
			g.refs[i] = visit(r)
		}
	}
}
