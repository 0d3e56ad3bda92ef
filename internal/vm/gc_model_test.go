package vm

// The reference model the GC parity suite checks the collector
// against (docs/GC.md): the op script of gc_diff_test.go replayed on
// a Go-map object graph. The model has no addresses, no generations
// and no collector; it knows only what a correct collector must
// preserve — the objects reachable from the root slots, from explicit
// pins, and from conditional pins still held — and how many times each
// conditional pin's Active() has run. Both collector policies must
// render the same canonical snapshot as the model after every
// collection.

import "fmt"

// Object kinds of a graph, as the model and a world's heap read share
// them.
const (
	mBad  = iota // a world ref that does not address an object
	mNode        // nodeClass instance: refs are data, next, shadow
	mInts        // int32[]
	mRefs        // Node[]
	mOther
)

// mObj is one object of a graph. Keys are model ids in the model and
// Refs in a world's heap; 0 is null in both.
type mObj struct {
	kind int
	id   int32   // mNode scalar payload
	ints []int32 // mInts elements
	refs []int   // mNode fields or mRefs elements, as keys
	pins int     // explicit pin count (a world reads 0 or 1)
}

// modelCond is one conditional pin request of the model: Active()
// returns true for its first hold calls, so the request is held by
// hold cycles and discarded by the next.
type modelCond struct{ obj, hold, calls int }

func (c *modelCond) outstanding() bool { return c.calls <= c.hold }

// heapModel is the reference model of one world.
type heapModel struct {
	objs  map[int]*mObj
	next  int
	roots [diffRootSlots]int
	pins  []int // pinned objects, in pin order (diffWorld.pinnedRefs)
	conds []*modelCond
}

func newHeapModel() *heapModel { return &heapModel{objs: map[int]*mObj{}} }

func (m *heapModel) alloc(slot int, o *mObj) {
	m.next++
	m.objs[m.next] = o
	m.roots[slot] = m.next
}

// step applies one non-collecting op with diffWorld.step's semantics.
func (m *heapModel) step(op diffOp) {
	switch op.kind {
	case dAllocNode:
		m.alloc(op.a, &mObj{kind: mNode, id: int32(uint32(op.b)), refs: make([]int, 3)})
	case dAllocIntArr:
		ints := make([]int32, op.b)
		for i := range ints {
			ints[i] = int32(op.c + i)
		}
		m.alloc(op.a, &mObj{kind: mInts, ints: ints})
	case dAllocRefArr:
		m.alloc(op.a, &mObj{kind: mRefs, refs: make([]int, op.b)})
	case dLinkField:
		if from := m.objs[m.roots[op.a]]; from != nil && from.kind == mNode {
			from.refs[op.b] = m.roots[op.c]
		}
	case dLinkElem:
		if from := m.objs[m.roots[op.a]]; from != nil && from.kind == mRefs && len(from.refs) > 0 {
			from.refs[op.b%len(from.refs)] = m.roots[op.c]
		}
	case dStoreInt:
		switch o := m.objs[m.roots[op.a]]; {
		case o == nil:
		case o.kind == mNode:
			o.id = int32(uint32(op.b))
		case o.kind == mInts && len(o.ints) > 0:
			o.ints[op.b%len(o.ints)] = int32(uint32(op.b))
		}
	case dDrop:
		m.roots[op.a] = 0
	case dPin:
		if k := m.roots[op.a]; k != 0 {
			m.objs[k].pins++
			m.pins = append(m.pins, k)
		}
	case dUnpin:
		if op.a < len(m.pins) {
			m.objs[m.pins[op.a]].pins--
			m.pins = append(m.pins[:op.a], m.pins[op.a+1:]...)
		}
	case dCondPin:
		if k := m.roots[op.a]; k != 0 {
			m.conds = append(m.conds, &modelCond{obj: k, hold: op.b})
		}
	}
}

// collect is one collection: every outstanding request is examined
// exactly once (§7.4).
func (m *heapModel) collect() {
	for _, c := range m.conds {
		if c.outstanding() {
			c.calls++
		}
	}
}

func (m *heapModel) snapshot() []string {
	var held []int
	for _, c := range m.conds {
		if c.outstanding() {
			held = append(held, c.obj)
		}
	}
	return renderGraph(m.objs, m.roots[:], m.pins, held)
}

// renderGraph renders the graph reachable from the root slots, the
// pinned objects and the held objects in a canonical,
// address-independent form: objects are numbered in discovery order,
// and every line captures one object's type, scalar payload, pin state
// and the discovery indices of its referents. The last lines give the
// index of every root slot, pin and held object, so a pinned or held
// object that moved — its recorded Ref now addressing something else —
// shows as a different index.
func renderGraph(objs map[int]*mObj, roots, pins, held []int) []string {
	index := map[int]int{}
	var order []int
	var visit func(int)
	visit = func(k int) {
		if _, seen := index[k]; seen || k == 0 {
			return
		}
		index[k] = len(order)
		order = append(order, k)
		for _, r := range objs[k].refs {
			visit(r)
		}
	}
	for _, set := range [][]int{roots, pins, held} {
		for _, k := range set {
			visit(k)
		}
	}
	idx := func(ks []int) []int {
		out := make([]int, len(ks))
		for i, k := range ks {
			out[i] = -1
			if k != 0 {
				out[i] = index[k]
			}
		}
		return out
	}
	var lines []string
	for i, k := range order {
		o := objs[k]
		pinned := o.pins > 0
		switch o.kind {
		case mNode:
			r := idx(o.refs)
			lines = append(lines, fmt.Sprintf("%d node id=%d data=%d next=%d shadow=%d pinned=%v",
				i, o.id, r[0], r[1], r[2], pinned))
		case mInts:
			lines = append(lines, fmt.Sprintf("%d int32[%d] %v pinned=%v", i, len(o.ints), o.ints, pinned))
		case mRefs:
			lines = append(lines, fmt.Sprintf("%d node[%d] %v pinned=%v", i, len(o.refs), idx(o.refs), pinned))
		case mBad:
			lines = append(lines, fmt.Sprintf("%d invalid ref %#x", i, k))
		default:
			lines = append(lines, fmt.Sprintf("%d ???", i))
		}
	}
	return append(lines,
		fmt.Sprintf("roots %v", idx(roots)),
		fmt.Sprintf("pins %v", idx(pins)),
		fmt.Sprintf("held %v", idx(held)))
}
