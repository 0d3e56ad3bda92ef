// Package serial implements the Motor custom serialization mechanism
// (paper §7.5): a flat object-tree representation with two parts — a
// type table describing every class involved, and object data laid
// out side by side with object references exchanged for local ids.
//
// Traversal is driven by the Transportable bit carried directly on
// the runtime FieldDesc (never by slow reflection metadata):
//
//   - a single object's simple data travels; reference fields NOT
//     marked Transportable are replaced with null on the wire;
//   - fields marked Transportable are followed recursively;
//   - arrays of objects travel together with their element objects;
//   - arrays of simple types travel as raw element data.
//
// The representation has one wire format, the chunked stream of
// stream.go. To support scatter/gather of object arrays, the
// serializer can emit a SPLIT representation (NewStreamWriterPart):
// many standalone parts, each with its own type table and each
// individually deserializable at the receiving end — the capability
// the standard Java/CLI serializers lack (paper §2.4, §7.5).
//
// The visited-object structure is selectable. The default, VisitedMap,
// is the efficient structure the authors name as future work: an
// open-addressed Ref -> id table whose slots are stamped with a reset
// epoch, so a reused writer starts each stream without clearing it or
// allocating. VisitedLinear is the paper's implementation ("a linear
// structure to record objects visited during serialization", the
// cause of the large-object-count degradation in Figure 10); it stays
// so Fig. 10 and ablation A2 can still measure that behaviour.
package serial

import (
	"encoding/binary"
	"errors"

	"motor/internal/vm"
)

// Type-entry kinds.
const (
	kindClassEntry = 0
	kindArrayEntry = 1
)

// Errors.
var (
	ErrFormat   = errors.New("serial: malformed representation")
	ErrTypeless = errors.New("serial: receiver has no matching type")
	ErrShape    = errors.New("serial: type shape mismatch between sender and receiver")
)

// VisitedMode selects the visited-object bookkeeping structure.
type VisitedMode uint8

// Visited-structure choices (see package comment). The zero value is
// the table; the paper's list must be asked for.
const (
	VisitedMap VisitedMode = iota
	VisitedLinear
)

// Options configures a serializer.
type Options struct {
	Visited VisitedMode
}

// visitedSet records serialized objects and their 1-based local ids.
// visit lets a streaming serialization survive collections between
// chunks: the recorded refs are GC roots and must follow moved
// objects, or later lookups would miss and re-emit duplicates. reset
// forgets every entry but keeps the storage for the next stream.
type visitedSet interface {
	lookup(ref vm.Ref) (uint32, bool)
	add(ref vm.Ref, id uint32)
	visit(visit func(vm.Ref) vm.Ref)
	reset()
}

// linearVisited is the paper's structure: lookup scans the whole
// list, so cost grows quadratically with the object count.
type linearVisited struct {
	refs []vm.Ref
	ids  []uint32
}

// lookup compares ref with every entry in order, as the paper's list
// does. The scan is unrolled four ways so its cost does not hinge on
// where the linker places a one-line loop: a 32-byte shift of the
// rolled loop moved whole OO workloads by a quarter.
func (l *linearVisited) lookup(ref vm.Ref) (uint32, bool) {
	refs := l.refs
	i := 0
	for ; i+4 <= len(refs); i += 4 {
		r := refs[i : i+4 : i+4]
		switch ref {
		case r[0]:
			return l.ids[i], true
		case r[1]:
			return l.ids[i+1], true
		case r[2]:
			return l.ids[i+2], true
		case r[3]:
			return l.ids[i+3], true
		}
	}
	for ; i < len(refs); i++ {
		if refs[i] == ref {
			return l.ids[i], true
		}
	}
	return 0, false
}

func (l *linearVisited) add(ref vm.Ref, id uint32) {
	l.refs = append(l.refs, ref)
	l.ids = append(l.ids, id)
}

func (l *linearVisited) visit(visit func(vm.Ref) vm.Ref) {
	for i, r := range l.refs {
		l.refs[i] = visit(r)
	}
}

func (l *linearVisited) reset() { l.refs, l.ids = l.refs[:0], l.ids[:0] }

// tableVisited is an open-addressed Ref -> id table with linear
// probing. Every slot carries the epoch it was written in and a slot
// of any other epoch reads as empty, so reset is epoch++ and reuses
// the slots without clearing them.
type tableVisited struct {
	slots []visitSlot // power-of-two length, at most 3/4 full
	epoch uint32      // current epoch; slots start at 0, so it starts at 1
	n     int
	moved []visitSlot // visit's staging, kept for the next collection
}

type visitSlot struct {
	ref   vm.Ref
	id    uint32
	epoch uint32
}

// home is ref's first probe: refs are aligned heap offsets, so a
// Fibonacci multiply spreads them before the mask.
func (t *tableVisited) home(ref vm.Ref) int {
	return int((uint32(ref) * 0x9E3779B9) & uint32(len(t.slots)-1))
}

func (t *tableVisited) lookup(ref vm.Ref) (uint32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(ref); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			return 0, false
		}
		if s.ref == ref {
			return s.id, true
		}
	}
}

// add inserts a ref not yet in the table, doubling it past 3/4 full.
func (t *tableVisited) add(ref vm.Ref, id uint32) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		oldEpoch := t.epoch
		t.slots = make([]visitSlot, max(64, 2*len(old)))
		t.epoch, t.n = 1, 0
		for _, s := range old {
			if s.epoch == oldEpoch {
				t.add(s.ref, s.id)
			}
		}
	}
	mask := len(t.slots) - 1
	i := t.home(ref)
	for t.slots[i].epoch == t.epoch {
		i = (i + 1) & mask
	}
	t.slots[i] = visitSlot{ref: ref, id: id, epoch: t.epoch}
	t.n++
}

// visit re-keys the table: a collection may have moved every ref.
func (t *tableVisited) visit(visit func(vm.Ref) vm.Ref) {
	t.moved = t.moved[:0]
	for _, s := range t.slots {
		if s.epoch == t.epoch {
			t.moved = append(t.moved, visitSlot{ref: visit(s.ref), id: s.id})
		}
	}
	t.reset()
	for _, s := range t.moved {
		t.add(s.ref, s.id)
	}
}

func (t *tableVisited) reset() {
	t.n = 0
	t.epoch++
	if t.epoch == 0 { // wrapped: old slots could read as current
		clear(t.slots)
		t.epoch = 1
	}
}

// writer builds the representation. Its storage is reused from one
// stream to the next (reset).
type writer struct {
	heap *vm.Heap

	types   []*vm.MethodTable
	typeIdx map[*vm.MethodTable]uint16
	visited visitedSet
	linear  linearVisited
	table   tableVisited
	// pending holds discovered but not yet emitted refs, in id order;
	// pending[head] is the next to emit. It is emptied when it drains,
	// so its capacity is kept.
	pending []vm.Ref
	head    int
	objData []byte
	nextID  uint32
}

// reset readies w for a new stream over h.
func (w *writer) reset(h *vm.Heap, opts Options) {
	w.heap = h
	w.types = w.types[:0]
	if w.typeIdx == nil {
		w.typeIdx = make(map[*vm.MethodTable]uint16)
	}
	clear(w.typeIdx)
	if opts.Visited == VisitedLinear {
		w.visited = &w.linear
	} else {
		w.visited = &w.table
	}
	w.visited.reset()
	w.pending, w.head = w.pending[:0], 0
	w.objData = nil
	w.nextID = 1
}

// assign returns the local id for ref, scheduling it for emission on
// first sight. includeRefs=false callers still get an id (null is 0).
func (w *writer) assign(ref vm.Ref) uint32 {
	if ref == vm.NullRef {
		return 0
	}
	if id, ok := w.visited.lookup(ref); ok {
		return id
	}
	id := w.nextID
	w.nextID++
	w.visited.add(ref, id)
	w.pending = append(w.pending, ref)
	return id
}

func (w *writer) typeIndex(mt *vm.MethodTable) uint16 {
	if i, ok := w.typeIdx[mt]; ok {
		return i
	}
	i := uint16(len(w.types))
	w.types = append(w.types, mt)
	w.typeIdx[mt] = i
	return i
}

// emit serializes the record of one object, of type mt with
// stream-local type index ti, into objData.
func (w *writer) emit(ref vm.Ref, mt *vm.MethodTable, ti uint16) error {
	h := w.heap
	w.u16(ti)
	if mt.Kind == vm.TKArray {
		n := h.Length(ref)
		w.u32(uint32(n))
		if mt.Rank > 1 {
			for _, d := range h.Dims(ref) {
				w.u32(uint32(d))
			}
		}
		if mt.Elem == vm.KindRef {
			// Arrays travel together with their element objects.
			for i := 0; i < n; i++ {
				w.u32(w.assign(h.GetElemRef(ref, i)))
			}
			return nil
		}
		w.objData = append(w.objData, h.DataBytes(ref)...)
		return nil
	}
	// Class instance: per-field emission so reference fields can be
	// swapped for local ids (or null when not Transportable).
	for i := range mt.Fields {
		f := &mt.Fields[i]
		if f.IsRef() {
			if f.Transportable() {
				w.u32(w.assign(h.GetRef(ref, f)))
			} else {
				w.u32(0) // reference replaced with null (paper §4.2.2)
			}
			continue
		}
		bits := h.GetScalar(ref, f)
		w.scalar(f.Kind(), bits)
	}
	return nil
}

func (w *writer) u16(v uint16) {
	w.objData = append(w.objData, byte(v), byte(v>>8))
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.objData = append(w.objData, b[:]...)
}

func (w *writer) scalar(k vm.Kind, bits uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], bits)
	w.objData = append(w.objData, b[:k.Size()]...)
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }

func appendU32(b []byte, v uint32) []byte {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	return append(b, t[:]...)
}

func appendString(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// appendTypeEntry writes one type-table record: enough shape
// information for the receiver to locate its local equivalent and
// validate layout compatibility.
func appendTypeEntry(b []byte, mt *vm.MethodTable) []byte {
	if mt.Kind == vm.TKArray {
		b = append(b, kindArrayEntry)
		b = append(b, byte(mt.Elem), byte(mt.Rank))
		if mt.Elem == vm.KindRef && mt.ElemMT != nil {
			b = appendString(b, mt.ElemMT.Name)
		} else {
			b = appendString(b, "")
		}
		return b
	}
	b = append(b, kindClassEntry)
	b = appendString(b, mt.Name)
	b = appendU16(b, uint16(len(mt.Fields)))
	for i := range mt.Fields {
		f := &mt.Fields[i]
		b = appendString(b, f.Name)
		flags := byte(0)
		if f.Transportable() {
			flags = 1
		}
		b = append(b, byte(f.Kind()), flags)
	}
	return b
}
