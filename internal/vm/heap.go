package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// Ref is a managed object reference: a byte offset into the heap
// arena. The null reference is 0. The arena is reserved once and never
// moves, so only the collector moves objects, and only when they are
// not pinned.
type Ref uint32

// NullRef is the managed null reference.
const NullRef Ref = 0

// Object header layout (16 bytes, 8-aligned):
//
//	[0:4)   method-table index (or forwarding Ref during a scavenge)
//	[4:8)   flags
//	[8:12)  total object size in bytes, including the header
//	[12:16) array length (total element count); 0 for class instances
const (
	HeaderSize = 16

	hdrMT     = 0
	hdrFlags  = 4
	hdrSize   = 8
	hdrLength = 12
)

// Header flag bits.
const (
	flagMark      uint32 = 1 << 0 // live during the current collection
	flagForwarded uint32 = 1 << 1 // header word 0 holds the new location
)

// freeSentinel marks a free block header in the elder space so linear
// sweeps can walk over free gaps.
const freeSentinel uint32 = 0xFFFFFFFF

var (
	// ErrOutOfMemory is returned when the arena limit is exhausted
	// even after a full collection.
	ErrOutOfMemory = errors.New("vm: managed heap out of memory")
	// ErrBadRef is returned by checked accessors handed an offset
	// that does not address an object.
	ErrBadRef = errors.New("vm: invalid object reference")
)

// PinMode selects the bookkeeping structure for explicit pins. The
// paper's footnote 4 observes that the pin/unpin cost depends heavily
// on the runtime build; we reproduce that by implementing both a
// linear request list (SSCLI-like) and a constant-time handle table
// (.NET-like). Ablation A4 benchmarks the difference.
type PinMode uint8

const (
	// PinHandleTable uses a map with O(1) pin/unpin.
	PinHandleTable PinMode = iota
	// PinLinearList scans a slice on every pin and unpin.
	PinLinearList
)

// CondPin is a conditional pin request (paper §4.3): the object must
// not move while Active reports true. Requests are examined during
// the mark phase of each collection; inactive requests are discarded,
// active ones pin the object for that cycle only.
type CondPin struct {
	Ref    Ref
	Active func() bool
}

// GCStats counts collector and pinning activity. The pinning-policy
// tests assert on these counters, and cmd/mpstat reports them.
type GCStats struct {
	Scavenges     uint64
	FullGCs       uint64
	BytesPromoted uint64
	BytesSwept    uint64
	BlocksDonated uint64 // younger blocks relabelled elder due to pins

	Pins            uint64 // explicit Pin calls
	Unpins          uint64
	CondPinsAdded   uint64
	CondPinsHeld    uint64 // requests found active during a mark phase
	CondPinsDropped uint64 // requests found complete and discarded

	// Placement counters. Under the moving policy (gcworkers > 1)
	// PinnedSegregated counting scavenges and BlocksDonated counting
	// fallbacks is the stat pair that proves donation has become rare.
	PinnedSegregated  uint64 // scavenges that kept pinned survivors in dedicated blocks
	PinnedBlockBytes  uint64 // pinned-survivor bytes segregated in place
	NurseriesRecycled uint64 // nurseries re-installed over elder free space instead of fresh arena
	DonatedLiveBytes  uint64 // pinned-survivor bytes kept live by whole-block donation
	DonatedDeadBytes  uint64 // dead-gap bytes a donation returned to the free lists
	Compactions       uint64 // elder sliding compactions performed
	BytesCompacted    uint64 // live bytes moved by compaction

	PauseNs    uint64 // total stop-the-world nanoseconds
	MaxPauseNs uint64 // longest single collection
}

// Snapshot returns a consistent copy of the counters. All writers
// bump atomically (and only under the execution token), so this is
// safe to call from any goroutine — the obs registry and the async
// progress engine read stats while managed threads collect.
func (s *GCStats) Snapshot() GCStats {
	return GCStats{
		Scavenges:       atomic.LoadUint64(&s.Scavenges),
		FullGCs:         atomic.LoadUint64(&s.FullGCs),
		BytesPromoted:   atomic.LoadUint64(&s.BytesPromoted),
		BytesSwept:      atomic.LoadUint64(&s.BytesSwept),
		BlocksDonated:   atomic.LoadUint64(&s.BlocksDonated),
		Pins:            atomic.LoadUint64(&s.Pins),
		Unpins:          atomic.LoadUint64(&s.Unpins),
		CondPinsAdded:   atomic.LoadUint64(&s.CondPinsAdded),
		CondPinsHeld:    atomic.LoadUint64(&s.CondPinsHeld),
		CondPinsDropped: atomic.LoadUint64(&s.CondPinsDropped),

		PinnedSegregated:  atomic.LoadUint64(&s.PinnedSegregated),
		PinnedBlockBytes:  atomic.LoadUint64(&s.PinnedBlockBytes),
		NurseriesRecycled: atomic.LoadUint64(&s.NurseriesRecycled),
		DonatedLiveBytes:  atomic.LoadUint64(&s.DonatedLiveBytes),
		DonatedDeadBytes:  atomic.LoadUint64(&s.DonatedDeadBytes),
		Compactions:       atomic.LoadUint64(&s.Compactions),
		BytesCompacted:    atomic.LoadUint64(&s.BytesCompacted),

		PauseNs:    atomic.LoadUint64(&s.PauseNs),
		MaxPauseNs: atomic.LoadUint64(&s.MaxPauseNs),
	}
}

type rng struct{ start, end uint32 }

type freeBlock struct {
	off  uint32
	size uint32
}

// HeapConfig sizes a heap. Zero values select defaults.
type HeapConfig struct {
	YoungSize       uint32 // size of the younger-generation block
	InitialElder    uint32 // first elder range carved at startup
	ArenaMax        uint32 // arena address space reserved up front; pages commit on first touch
	PinMode         PinMode
	FullGCThreshold uint32 // elder bytes allocated between full GCs

	// GCWorkers selects the collector's policy and mark workers. 1 is
	// the §5.2 policy (whole-block donation, elder never moved) marking
	// with one worker; >1 is the moving policy (pinned survivors
	// segregated into dedicated blocks, elder sliding compaction)
	// marking with that many work-stealing workers. 0 defaults to
	// NumCPU clamped to [2,8] — the moving policy even on one CPU, so
	// behaviour is machine-independent.
	GCWorkers int
}

func (c *HeapConfig) fill() {
	if c.YoungSize == 0 {
		c.YoungSize = 1 << 20 // 1 MiB nursery
	}
	if c.InitialElder == 0 {
		c.InitialElder = 4 << 20
	}
	if c.ArenaMax == 0 {
		c.ArenaMax = 256 << 20
	}
	if c.FullGCThreshold == 0 {
		c.FullGCThreshold = 16 << 20
	}
	if c.GCWorkers == 0 {
		n := runtime.NumCPU()
		if n < 2 {
			n = 2
		}
		if n > 8 {
			n = 8
		}
		c.GCWorkers = n
	}
	if c.GCWorkers < 1 {
		c.GCWorkers = 1
	}
}

// Heap is the managed memory of one VM: a single arena addressed by
// Ref offsets, reserved whole at construction and committed page by
// page as it is first touched, split into a bump-allocated younger
// block and a set of elder ranges managed with free lists. Under the §5.2 policy the
// elder generation is never compacted, matching the SSCLI collector;
// the moving policy slide-compacts it (gccompact.go).
type Heap struct {
	vm *VM

	arena []byte // the whole reservation, ArenaMax bytes; nil once closed
	mem   []byte // arena[:brk:brk]: the carved part, no access past it
	brk   uint32 // arena break: lowest unallocated arena offset

	youngSize  uint32
	youngStart uint32
	youngPos   uint32
	youngEnd   uint32

	elderRanges []rng
	freeList    []freeBlock
	elderUsed   uint32
	sinceFull   uint32
	fullEvery   uint32

	pinMode   PinMode
	pinCounts map[Ref]int
	pinList   []pinEntry
	condPins  []CondPin

	// remembered holds elder objects that may contain references into
	// the younger generation; maintained by the write barrier.
	remembered map[Ref]struct{}

	// inGC suppresses re-entrant collection triggers while the
	// collector itself allocates elder space for promotions.
	inGC bool

	// gcWorkers is the resolved GCWorkers knob: the number of mark
	// workers; 1 selects the §5.2 policy, >1 the moving one.
	gcWorkers int

	// mark is the full collection's mark state, reused across cycles
	// so a full collection does not allocate per object.
	mark *markState

	// compactRequested forces elder compaction on the next full
	// collection under the moving policy, regardless of heuristics.
	compactRequested bool

	// The collector's per-cycle state, reused (collections never
	// overlap): the scavenger, the conditional-pin resolver and the set
	// of explicitly pinned objects.
	scav     scavenger
	resolver *condPinResolver
	pinSet   map[Ref]struct{}

	Stats GCStats
}

func newHeap(vm *VM, cfg HeapConfig) *Heap {
	cfg.fill()
	h := &Heap{
		vm:         vm,
		youngSize:  cfg.YoungSize,
		fullEvery:  cfg.FullGCThreshold,
		pinMode:    cfg.PinMode,
		gcWorkers:  cfg.GCWorkers,
		pinCounts:  make(map[Ref]int),
		remembered: make(map[Ref]struct{}),
	}
	h.scav.h = h
	h.scav.fwd = h.scav.forward
	arena, err := reserveArena(cfg.ArenaMax)
	if err != nil {
		panic(fmt.Sprintf("vm: cannot reserve a %d MiB arena (ArenaMax): %v", cfg.ArenaMax>>20, err))
	}
	h.arena = arena
	liveArenas.Add(1)
	// Offset 0 is reserved so that NullRef never addresses an object.
	h.brk = 8
	start, err := h.carve(cfg.InitialElder)
	if err != nil {
		panic("vm: initial elder range exceeds arena max")
	}
	h.addElderRange(start, start+cfg.InitialElder)
	if err := h.newYoungBlock(); err != nil {
		panic("vm: initial young block exceeds arena max")
	}
	return h
}

// carve takes size bytes of fresh arena by reslicing the reservation:
// the arena never moves or copies.
func (h *Heap) carve(size uint32) (uint32, error) {
	off := align8(h.brk)
	if off+size > uint32(len(h.arena)) || off+size < off {
		return 0, ErrOutOfMemory
	}
	h.brk = off + size
	h.mem = h.arena[:h.brk:h.brk]
	return off, nil
}

func (h *Heap) newYoungBlock() error {
	start, err := h.carve(h.youngSize)
	if err != nil {
		return err
	}
	h.youngStart, h.youngPos, h.youngEnd = start, start, start+h.youngSize
	return nil
}

func (h *Heap) addElderRange(start, end uint32) {
	h.elderRanges = append(h.elderRanges, rng{start, end})
	h.writeFreeBlock(start, end-start)
	h.freeList = append(h.freeList, freeBlock{start, end - start})
}

func (h *Heap) writeFreeBlock(off, size uint32) {
	binary.LittleEndian.PutUint32(h.mem[off+hdrMT:], freeSentinel)
	binary.LittleEndian.PutUint32(h.mem[off+hdrFlags:], 0)
	binary.LittleEndian.PutUint32(h.mem[off+hdrSize:], size)
	binary.LittleEndian.PutUint32(h.mem[off+hdrLength:], 0)
}

func align8(n uint32) uint32 { return (n + 7) &^ 7 }

// IsYoung reports whether ref currently lies in the younger block.
func (h *Heap) IsYoung(ref Ref) bool {
	return uint32(ref) >= h.youngStart && uint32(ref) < h.youngEnd
}

// --- raw header access -------------------------------------------------

func (h *Heap) u32(off uint32) uint32       { return binary.LittleEndian.Uint32(h.mem[off:]) }
func (h *Heap) putU32(off uint32, v uint32) { binary.LittleEndian.PutUint32(h.mem[off:], v) }

func (h *Heap) mtIndex(ref Ref) uint32  { return h.u32(uint32(ref) + hdrMT) }
func (h *Heap) flags(ref Ref) uint32    { return h.u32(uint32(ref) + hdrFlags) }
func (h *Heap) objSize(ref Ref) uint32  { return h.u32(uint32(ref) + hdrSize) }
func (h *Heap) arrayLen(ref Ref) uint32 { return h.u32(uint32(ref) + hdrLength) }

func (h *Heap) setFlags(ref Ref, f uint32)   { h.putU32(uint32(ref)+hdrFlags, f) }
func (h *Heap) orFlags(ref Ref, f uint32)    { h.putU32(uint32(ref)+hdrFlags, h.flags(ref)|f) }
func (h *Heap) clearFlags(ref Ref, f uint32) { h.putU32(uint32(ref)+hdrFlags, h.flags(ref)&^f) }

// MT returns the method table of the object at ref.
func (h *Heap) MT(ref Ref) *MethodTable {
	idx := h.mtIndex(ref)
	if int(idx) >= len(h.vm.types) {
		panic(fmt.Sprintf("vm: corrupt object header at %#x: mt index %d", ref, idx))
	}
	return h.vm.types[idx]
}

// Valid performs a best-effort sanity check that ref addresses a live
// object header. It is used by checked public accessors, not by the
// collector's hot paths.
func (h *Heap) Valid(ref Ref) bool {
	off := uint32(ref)
	if ref == NullRef || off+HeaderSize > uint32(len(h.mem)) {
		return false
	}
	idx := h.mtIndex(ref)
	if idx == freeSentinel || int(idx) >= len(h.vm.types) {
		return false
	}
	sz := h.objSize(ref)
	return sz >= HeaderSize && off+sz <= uint32(len(h.mem))
}

// --- allocation ---------------------------------------------------------

// classAllocSize returns the total allocation size for a class.
func classAllocSize(mt *MethodTable) uint32 {
	return align8(HeaderSize + mt.InstanceSize)
}

// arrayAllocSize returns the total allocation size for an array with
// the given total element count and rank.
func arrayAllocSize(mt *MethodTable, length int) uint32 {
	data := uint32(length * mt.ElemSize())
	extra := uint32(0)
	if mt.Rank > 1 {
		extra = align8(uint32(4 * mt.Rank))
	}
	return align8(HeaderSize + extra + data)
}

// arrayDataOff returns the offset of element storage from the object
// start.
func arrayDataOff(mt *MethodTable) uint32 {
	if mt.Rank > 1 {
		return HeaderSize + align8(uint32(4*mt.Rank))
	}
	return HeaderSize
}

// AllocClass allocates a zeroed instance of mt. It may trigger a
// collection, so it must only be called from GC-safe points (the
// interpreter and FCall helpers guarantee this).
func (h *Heap) AllocClass(mt *MethodTable) (Ref, error) {
	if mt.Kind != TKClass {
		return NullRef, fmt.Errorf("vm: AllocClass on %s", mt)
	}
	ref, err := h.alloc(classAllocSize(mt))
	if err != nil {
		return NullRef, err
	}
	h.initHeader(ref, mt, 0)
	return ref, nil
}

// AllocArray allocates a zeroed rank-1 array of length elements.
func (h *Heap) AllocArray(mt *MethodTable, length int) (Ref, error) {
	if mt.Kind != TKArray || mt.Rank != 1 {
		return NullRef, fmt.Errorf("vm: AllocArray on %s", mt)
	}
	if length < 0 {
		return NullRef, fmt.Errorf("vm: negative array length %d", length)
	}
	ref, err := h.alloc(arrayAllocSize(mt, length))
	if err != nil {
		return NullRef, err
	}
	h.initHeader(ref, mt, uint32(length))
	return ref, nil
}

// AllocMultiDim allocates a true rectangular multidimensional array —
// the CLI array shape the paper calls out as important for scientific
// codes (§3). The dims are stored after the header; the data is one
// contiguous block in row-major order.
func (h *Heap) AllocMultiDim(mt *MethodTable, dims []int) (Ref, error) {
	if mt.Kind != TKArray || mt.Rank != len(dims) || mt.Rank < 2 {
		return NullRef, fmt.Errorf("vm: AllocMultiDim rank mismatch on %s (%d dims)", mt, len(dims))
	}
	total := 1
	for _, d := range dims {
		if d < 0 {
			return NullRef, fmt.Errorf("vm: negative dimension %d", d)
		}
		total *= d
	}
	ref, err := h.alloc(arrayAllocSize(mt, total))
	if err != nil {
		return NullRef, err
	}
	h.initHeader(ref, mt, uint32(total))
	for i, d := range dims {
		h.putU32(uint32(ref)+HeaderSize+uint32(4*i), uint32(d))
	}
	return ref, nil
}

func (h *Heap) initHeader(ref Ref, mt *MethodTable, length uint32) {
	off := uint32(ref)
	h.putU32(off+hdrMT, uint32(mt.Index))
	h.putU32(off+hdrFlags, 0)
	// size was written by alloc
	h.putU32(off+hdrLength, length)
}

// alloc obtains size bytes (already aligned) and writes the size word.
// Objects larger than half the nursery go straight to the elder space.
func (h *Heap) alloc(size uint32) (Ref, error) {
	if size < HeaderSize {
		size = HeaderSize
	}
	size = align8(size)
	if size > h.youngSize/2 {
		off, err := h.elderAlloc(size)
		if err != nil {
			return NullRef, err
		}
		h.putU32(off+hdrSize, size)
		return Ref(off), nil
	}
	if h.youngPos+size > h.youngEnd {
		h.vm.collect(false)
		if h.youngPos+size > h.youngEnd {
			// The nursery is still full: survivors were pinned and the
			// block donated but a new one could not be carved, or the
			// object simply does not fit. Fall back to the elder space.
			off, err := h.elderAlloc(size)
			if err != nil {
				return NullRef, err
			}
			h.putU32(off+hdrSize, size)
			return Ref(off), nil
		}
	}
	off := h.youngPos
	h.youngPos += size
	// Young space between collections is always zero (blocks are
	// carved from fresh arena or zeroed on reset).
	h.putU32(off+hdrSize, size)
	return Ref(off), nil
}

// elderAlloc allocates from the elder free lists, carving a new range
// or running a full collection when exhausted.
func (h *Heap) elderAlloc(size uint32) (uint32, error) {
	if h.sinceFull >= h.fullEvery && !h.inGC {
		h.vm.collect(true)
	}
	if off, ok := h.elderFit(size, true); ok {
		h.sinceFull += size
		return off, nil
	}
	// Carve a fresh range at least as large as the request.
	rangeSize := h.youngSize * 4
	if rangeSize < size+HeaderSize {
		rangeSize = align8(size + HeaderSize)
	}
	if start, err := h.carve(rangeSize); err == nil {
		h.addElderRange(start, start+rangeSize)
		if off, ok := h.elderFit(size, true); ok {
			h.sinceFull += size
			return off, nil
		}
	}
	// Arena exhausted: full collection, then one last attempt.
	if !h.inGC {
		h.vm.collect(true)
	}
	if off, ok := h.elderFit(size, true); ok {
		h.sinceFull += size
		return off, nil
	}
	return 0, ErrOutOfMemory
}

// elderFit finds a first-fit free block, splitting the remainder.
// Blocks that would leave a remainder too small to carry a free-block
// header are skipped entirely: every byte of an elder range must be
// described by some header so linear sweeps can walk it. zero clears
// the block, because elder memory is recycled and must present the
// same all-zero guarantee as fresh young memory; promotion, which
// overwrites every byte of it, passes false.
func (h *Heap) elderFit(size uint32, zero bool) (uint32, bool) {
	for i := range h.freeList {
		fb := h.freeList[i]
		if fb.size < size {
			continue
		}
		rest := fb.size - size
		if rest > 0 && rest < HeaderSize {
			continue
		}
		if rest >= HeaderSize {
			h.freeList[i] = freeBlock{fb.off + size, rest}
			h.writeFreeBlock(fb.off+size, rest)
		} else { // exact fit
			h.freeList = append(h.freeList[:i], h.freeList[i+1:]...)
		}
		if zero {
			clearBytes(h.mem[fb.off : fb.off+size])
		}
		h.elderUsed += size
		return fb.off, true
	}
	return 0, false
}

func clearBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// --- pinning ------------------------------------------------------------

type pinEntry struct {
	ref   Ref
	count int
}

// Pin requests that the object at ref not be moved by the collector
// until a matching Unpin. Pins nest.
func (h *Heap) Pin(ref Ref) {
	if ref == NullRef {
		return
	}
	atomic.AddUint64(&h.Stats.Pins, 1)
	switch h.pinMode {
	case PinHandleTable:
		h.pinCounts[ref]++
	case PinLinearList:
		// SSCLI-profile: the pin list is kept unique by a linear scan
		// on every pin and unpin; this is the slow mechanism that
		// ablation A4 quantifies against the handle table.
		for i := range h.pinList {
			if h.pinList[i].ref == ref {
				h.pinList[i].count++
				return
			}
		}
		h.pinList = append(h.pinList, pinEntry{ref, 1})
	}
}

// Unpin releases one pin on ref.
func (h *Heap) Unpin(ref Ref) {
	if ref == NullRef {
		return
	}
	atomic.AddUint64(&h.Stats.Unpins, 1)
	switch h.pinMode {
	case PinHandleTable:
		if c := h.pinCounts[ref]; c > 1 {
			h.pinCounts[ref] = c - 1
		} else {
			delete(h.pinCounts, ref)
		}
	case PinLinearList:
		for i := range h.pinList {
			if h.pinList[i].ref == ref {
				if h.pinList[i].count > 1 {
					h.pinList[i].count--
				} else {
					h.pinList = append(h.pinList[:i], h.pinList[i+1:]...)
				}
				return
			}
		}
	}
}

// Pinned reports whether ref has at least one explicit pin.
func (h *Heap) Pinned(ref Ref) bool {
	switch h.pinMode {
	case PinHandleTable:
		return h.pinCounts[ref] > 0
	default:
		for _, p := range h.pinList {
			if p.ref == ref {
				return true
			}
		}
		return false
	}
}

// AddCondPin registers a conditional pin request: the object will be
// treated as pinned by any collection whose mark phase finds active()
// still true; the first mark phase that finds it false discards the
// request (paper §4.3, §7.4).
func (h *Heap) AddCondPin(ref Ref, active func() bool) {
	if ref == NullRef || active == nil {
		return
	}
	atomic.AddUint64(&h.Stats.CondPinsAdded, 1)
	h.condPins = append(h.condPins, CondPin{Ref: ref, Active: active})
}

// CondPinCount returns the number of outstanding conditional requests
// (for tests and stats).
func (h *Heap) CondPinCount() int { return len(h.condPins) }

// --- write barrier ------------------------------------------------------

// recordWrite is the generational write barrier: storing a young ref
// into an elder object records the elder object in the remembered set
// so the next scavenge can treat its fields as roots.
func (h *Heap) recordWrite(obj Ref, val Ref) {
	if val == NullRef || obj == NullRef {
		return
	}
	if !h.IsYoung(obj) && h.IsYoung(val) {
		h.remembered[obj] = struct{}{}
	}
}

// MemUse reports arena occupancy for stats surfaces.
func (h *Heap) MemUse() (arena, youngUsed, elderUsed uint32) {
	return h.brk, h.youngPos - h.youngStart, h.elderUsed
}

// Workers reports the resolved gcworkers knob: the number of mark
// workers. 1 means the §5.2 policy, >1 the moving policy.
func (h *Heap) Workers() int { return h.gcWorkers }

// MovesElder reports whether a collection may move elder objects. It
// is the one policy query: the moving policy segregates pinned
// survivors and compacts the elder space; the §5.2 policy donates
// whole younger blocks and never moves an elder object.
func (h *Heap) MovesElder() bool { return h.gcWorkers > 1 }

// RequestCompaction asks the collector to slide-compact the elder
// space during its next full collection, bypassing the fragmentation
// heuristic. A no-op under the §5.2 policy, whose elder space is never
// compacted.
func (h *Heap) RequestCompaction() { h.compactRequested = true }

// explicitPins assembles the unconditional pin set (Pin/Unpin
// bookkeeping only). A collection starts from this set and resolves
// conditional requests lazily through the cycle's single resolver.
func (h *Heap) explicitPins() map[Ref]struct{} {
	if h.pinSet == nil {
		h.pinSet = make(map[Ref]struct{})
	}
	set := h.pinSet
	clear(set)
	for r := range h.pinCounts {
		set[r] = struct{}{}
	}
	for _, p := range h.pinList {
		set[p.ref] = struct{}{}
	}
	return set
}
