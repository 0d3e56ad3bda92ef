package serial

import (
	"encoding/binary"
	"errors"
	"fmt"

	"motor/internal/vm"
)

// The wire format: type entries and object records, organized so the
// representation can be produced and consumed as a sequence of
// bounded chunks. A stream is
//
//	header   u32 magic "MSS2", u8 version=2, u8 flags, u16 reserved,
//	         u32 epoch, u32 rootID
//	section* one of
//	         secTableFull  u8 tag, u32 cacheID, u16 len, type entry
//	         secTableRef   u8 tag, u32 cacheID
//	         secData       u8 tag, u32 len, object records
//	         secEnd        u8 tag, u32 objCount
//
// An object record is u16 type index, then for a class each field in
// field-table order (scalars at their kind's width, references as u32
// ids, 0 = null); for an array u32 length, then u32 element ids (object
// arrays) or u32 dims (rank > 1 only) followed by the raw element data.
// All integers are little-endian. The retired v1 layout ("MSER") is
// rejected with ErrFormat.
//
// Invariants the writer maintains and the reader enforces:
//
//   - a type's table section precedes the first record that uses it,
//     and the k-th table section defines stream-local type index k
//     (records reference types by that index);
//   - an object record never straddles two data sections (a record
//     larger than the chunk target simply yields an oversized chunk);
//   - the stream ends with exactly one secEnd carrying the object
//     count, which the reader cross-checks against the records seen.
//
// Epoch 0 marks a self-describing stream (every table section is
// full); a nonzero epoch ties table references to the sender's
// per-peer cache generation (cache.go).
const (
	streamMagic   = 0x4D53_5332 // "MSS2"
	streamVersion = 2

	secTableFull = 1
	secTableRef  = 2
	secData      = 3
	secEnd       = 4

	streamHeaderSize = 16
)

// DefaultChunkTarget is the largest chunk streaming serialization
// aims for when the caller does not specify one.
const DefaultChunkTarget = 256 << 10

// firstChunk is the size the chunk schedule starts from. A chunk stops
// at a quarter of the bytes already emitted, clamped to [firstChunk,
// target]: a small tree still travels as several chunks, so the peer
// parses chunk k while chunk k+1 is serialized, and chunks then grow
// x1.25 until they reach the target, so a large tree takes a few dozen
// chunks rather than thousands.
const firstChunk = 1 << 10

// ErrStreamDone flags Next being called after the final chunk.
var ErrStreamDone = errors.New("serial: stream already complete")

// StreamWriter emits the representation of one object tree as a
// sequence of bounded chunks, so transport can overlap serialization
// with the wire and never materializes the whole representation.
//
// The writer holds live references between chunks (the pending queue
// and the visited structure); register it as a vm.RootProvider while
// the stream is being produced.
type StreamWriter struct {
	w      *writer
	rootID uint32
	epoch  uint32
	cache  *PeerCache
	target int

	emitted int // bytes of the chunks produced so far
	started bool
	done    bool

	// rootRec holds a synthetic root record (split parts) staged at
	// construction, emitted at the front of the first chunk.
	rootRec []byte
	rootMT  *vm.MethodTable

	scratch []byte // type-entry staging

	// Per-stream accounting, read by the engine's ttcache counters.
	TableFulls int // full table sections emitted
	TableRefs  int // table sections replaced by cache references
	TableBytes int // type-entry bytes actually transmitted
	Chunks     int
}

// NewStreamWriter starts a stream for the tree rooted at root. target
// is the chunk size aimed for (<=0 selects DefaultChunkTarget). cache,
// when non-nil, enables table-reference emission against a per-peer
// type-table cache; nil produces a self-describing (epoch 0) stream.
func NewStreamWriter(h *vm.Heap, root vm.Ref, opts Options, target int, cache *PeerCache) *StreamWriter {
	sw := new(StreamWriter)
	sw.Reset(h, root, opts, target, cache)
	return sw
}

// Reset starts a new stream on sw, as NewStreamWriter does, reusing the
// storage of its previous stream. sw must not be registered as a root
// provider while it is reset.
func (sw *StreamWriter) Reset(h *vm.Heap, root vm.Ref, opts Options, target int, cache *PeerCache) {
	sw.reset(h, opts, target)
	sw.cache = cache
	if cache != nil {
		sw.epoch = cache.Epoch
	}
	sw.rootID = sw.w.assign(root)
}

func (sw *StreamWriter) reset(h *vm.Heap, opts Options, target int) {
	if target <= 0 {
		target = DefaultChunkTarget
	}
	w := sw.w
	if w == nil {
		w = new(writer)
	}
	w.reset(h, opts)
	*sw = StreamWriter{w: w, target: target, rootRec: sw.rootRec[:0], scratch: sw.scratch[:0]}
}

// NewStreamWriterPart starts a stream whose root is a synthetic
// sub-array over arr's element range [lo,hi) — one part of the split
// representation (scatter). Parts are always self-describing.
func NewStreamWriterPart(h *vm.Heap, arr vm.Ref, lo, hi int, opts Options, target int) (*StreamWriter, error) {
	sw := new(StreamWriter)
	if err := sw.ResetPart(h, arr, lo, hi, opts, target); err != nil {
		return nil, err
	}
	return sw, nil
}

// ResetPart starts a new part stream on sw, as NewStreamWriterPart
// does, reusing the storage of its previous stream.
func (sw *StreamWriter) ResetPart(h *vm.Heap, arr vm.Ref, lo, hi int, opts Options, target int) error {
	if arr == vm.NullRef {
		return fmt.Errorf("serial: split of null array")
	}
	mt := h.MT(arr)
	if mt.Kind != vm.TKArray || mt.Rank != 1 {
		return fmt.Errorf("serial: split requires a rank-1 array, got %s", mt)
	}
	n := h.Length(arr)
	if lo < 0 || hi < lo || hi > n {
		return fmt.Errorf("serial: split range [%d,%d) outside array of %d", lo, hi, n)
	}
	sw.reset(h, opts, target)
	sw.rootMT = mt
	w := sw.w
	// Synthetic root: id 1 describes the sub-array; it has no heap
	// object, so it bypasses the visited set. The record is staged now
	// (element payload copied, element objects scheduled) so the
	// source array need not survive until the first chunk.
	sw.rootID = w.nextID
	w.nextID++
	w.objData = sw.rootRec
	w.u16(w.typeIndex(mt))
	w.u32(uint32(hi - lo))
	if mt.Elem == vm.KindRef {
		for i := lo; i < hi; i++ {
			w.u32(w.assign(h.GetElemRef(arr, i)))
		}
	} else {
		es := mt.ElemSize()
		w.objData = append(w.objData, h.DataBytes(arr)[lo*es:hi*es]...)
	}
	sw.rootRec = w.objData
	w.objData = nil
	return nil
}

// Reusable reports whether sw's last stream was small enough for its
// storage to be kept for another (see retainLimit).
func (sw *StreamWriter) Reusable() bool {
	return int(sw.w.nextID)+len(sw.w.types) <= retainLimit && cap(sw.rootRec) <= 8*retainLimit
}

// retainLimit bounds the state a reused writer or reader keeps between
// streams. A stream of up to 8192 objects, types and (for a reader)
// data sections, and a split root record of up to 64 KiB, leaves its
// storage for the next one; a
// larger one's is left to the garbage collector. At the bound a writer
// keeps about 300 KB (table slots, pending queue), a reader about
// 500 KB (refs and records).
const retainLimit = 1 << 13

// VisitRoots implements vm.RootProvider: the not-yet-emitted queue and
// the visited structure hold live (movable) references between chunks.
func (sw *StreamWriter) VisitRoots(visit func(vm.Ref) vm.Ref) {
	w := sw.w
	for i := w.head; i < len(w.pending); i++ {
		w.pending[i] = visit(w.pending[i])
	}
	w.visited.visit(visit)
}

// Done reports whether the final chunk has been produced.
func (sw *StreamWriter) Done() bool { return sw.done }

// ObjectCount reports how many objects the stream has assigned so far
// (final only once Done).
func (sw *StreamWriter) ObjectCount() int { return int(sw.w.nextID - 1) }

// Epoch reports the stream's cache epoch (0 = self-describing).
func (sw *StreamWriter) Epoch() uint32 { return sw.epoch }

// Next appends the next chunk to buf (pass a recycled buffer with the
// chunk target's capacity; records are emitted directly into it, so
// there is no whole-representation staging copy). The chunk is
// complete and transportable as produced; after the chunk carrying the
// end section, Done reports true.
func (sw *StreamWriter) Next(buf []byte) ([]byte, error) {
	if sw.done {
		return nil, ErrStreamDone
	}
	out := buf
	// The chunk starts at len(buf): SerializeStream appends every chunk
	// to one buffer.
	limit := min(max(sw.emitted/4, firstChunk), sw.target) + len(buf)
	if !sw.started {
		sw.started = true
		out = appendU32(out, streamMagic)
		out = append(out, streamVersion, 0, 0, 0)
		out = appendU32(out, sw.epoch)
		out = appendU32(out, sw.rootID)
	}
	w := sw.w
	// One open data section at a time; its length is patched when a
	// table section or the end section closes it.
	dataAt := -1
	openData := func() {
		if dataAt < 0 {
			dataAt = len(out)
			out = append(out, secData, 0, 0, 0, 0)
		}
	}
	closeData := func() {
		if dataAt >= 0 {
			binary.LittleEndian.PutUint32(out[dataAt+1:], uint32(len(out)-(dataAt+5)))
			dataAt = -1
		}
	}
	if len(sw.rootRec) > 0 {
		var err error
		out, err = sw.tableSection(out, sw.rootMT)
		if err != nil {
			return nil, err
		}
		openData()
		out = append(out, sw.rootRec...)
		sw.rootRec = sw.rootRec[:0]
	}
	for w.head < len(w.pending) && len(out) < limit {
		ref := w.pending[w.head]
		w.head++
		if w.head == len(w.pending) {
			w.pending, w.head = w.pending[:0], 0
		}
		mt := w.heap.MT(ref)
		ti, known := w.typeIdx[mt]
		if !known {
			closeData()
			var err error
			out, err = sw.tableSection(out, mt)
			if err != nil {
				return nil, err
			}
			ti = w.typeIndex(mt)
		}
		openData()
		// Emit the record directly into the chunk.
		w.objData = out
		err := w.emit(ref, mt, ti)
		out = w.objData
		w.objData = nil
		if err != nil {
			return nil, err
		}
	}
	closeData()
	if w.head == len(w.pending) {
		out = append(out, secEnd)
		out = appendU32(out, w.nextID-1)
		sw.done = true
	}
	sw.emitted += len(out) - len(buf)
	sw.Chunks++
	return out, nil
}

// tableSection emits the table section introducing mt, registering its
// stream-local index. With a cache, a previously shipped type costs
// five bytes (a reference) instead of the full entry.
func (sw *StreamWriter) tableSection(out []byte, mt *vm.MethodTable) ([]byte, error) {
	sw.w.typeIndex(mt) // stream-local index = section order
	if sw.cache != nil {
		if id, ok := sw.cache.ids[mt]; ok {
			sw.TableRefs++
			out = append(out, secTableRef)
			return appendU32(out, id), nil
		}
	}
	sw.scratch = appendTypeEntry(sw.scratch[:0], mt)
	if len(sw.scratch) > 0xFFFF {
		return nil, fmt.Errorf("%w: type entry of %d bytes", ErrFormat, len(sw.scratch))
	}
	id := uint32(len(sw.w.types)) // ordinal id when uncached
	if sw.cache != nil {
		id = sw.cache.assign(mt)
	}
	sw.TableFulls++
	sw.TableBytes += len(sw.scratch)
	out = append(out, secTableFull)
	out = appendU32(out, id)
	out = appendU16(out, uint16(len(sw.scratch)))
	return append(out, sw.scratch...), nil
}

// TableBlob appends the self-describing table fallback: every type
// this stream used, with its cache id — the payload a sender ships
// when the receiver NACKs unresolved table references.
//
//	u32 epoch, u32 count, count x (u32 cacheID, u16 len, type entry)
func (sw *StreamWriter) TableBlob(out []byte) ([]byte, error) {
	out = appendU32(out, sw.epoch)
	out = appendU32(out, uint32(len(sw.w.types)))
	for i, mt := range sw.w.types {
		id := uint32(i + 1)
		if sw.cache != nil {
			id = sw.cache.ids[mt]
		}
		sw.scratch = appendTypeEntry(sw.scratch[:0], mt)
		if len(sw.scratch) > 0xFFFF {
			return nil, fmt.Errorf("%w: type entry of %d bytes", ErrFormat, len(sw.scratch))
		}
		out = appendU32(out, id)
		out = appendU16(out, uint16(len(sw.scratch)))
		out = append(out, sw.scratch...)
	}
	return out, nil
}

// SerializeStream produces the whole stream into one buffer (the
// one-shot form; transport uses the chunked writer directly). out is
// appended to; pass nil or a recycled buffer.
func SerializeStream(h *vm.Heap, root vm.Ref, opts Options, out []byte) ([]byte, error) {
	sw := NewStreamWriter(h, root, opts, 0, nil)
	for !sw.Done() {
		var err error
		out, err = sw.Next(out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
