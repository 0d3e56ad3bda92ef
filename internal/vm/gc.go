package vm

import (
	"sync/atomic"
	"time"

	"motor/internal/obs"
)

// The collector. Two-generational, stop-the-world (trivially so,
// because managed execution is cooperatively scheduled — see
// thread.go). One collector serves two policies, and
// Heap.MovesElder() (GCWorkers > 1) chooses between them in exactly
// two places:
//
//   - A scavenge evacuates the younger block: live objects are copied
//     into the elder space and every reference is forwarded. Pinned
//     objects are marked in place and never move. If any survive, the
//     §5.2 policy donates the whole younger block to the elder
//     generation and carves a fresh one — the SSCLI behaviour
//     described in §5.2 of the paper; the moving policy segregates
//     them into dedicated pinned blocks instead (gcpar.go).
//   - A full collection additionally marks from the roots with
//     GCWorkers work-stealing workers and sweeps the elder space in
//     place (gcpar.go). Only the moving policy may slide-compact it
//     instead (gccompact.go); under the §5.2 policy an elder object
//     never moves.
//
// Conditional pin requests go through one resolver per cycle
// (gcpar.go): every request's Active() runs exactly once, when the
// collector first reaches its object or at the end of the cycle;
// requests found complete are discarded (§4.3, §7.4). The Motor
// message-passing core registers a GC hook so transport completion
// state is fresh when the requests are examined.

// collect runs a collection. Callers must be in managed context (own
// the execution token) — allocation sites and Thread.Collect* satisfy
// this.
func (v *VM) collect(full bool) {
	h := v.Heap
	if h.inGC {
		return
	}
	h.inGC = true
	defer func() { h.inGC = false }()

	tr := obs.Active()
	if tr != nil {
		kind := obs.GCScavenge
		if full {
			kind = obs.GCFull
		}
		tr.Begin(v.traceLane, obs.KGC, uint64(kind))
	}

	start := time.Now()
	if tr != nil {
		tr.Begin(v.traceLane, obs.KGCPhase, uint64(obs.PhaseHooks))
	}
	for _, hook := range v.gcHooks {
		hook()
	}
	if tr != nil {
		tr.End(v.traceLane)
	}

	res := newCondPinResolver(h)
	pinned := h.explicitPins()

	if tr != nil {
		tr.Begin(v.traceLane, obs.KGCPhase, uint64(obs.PhaseScavenge))
	}
	evacuated := h.scavenge(v, pinned, res)
	if tr != nil {
		tr.End(v.traceLane)
	}
	if full {
		h.fullParallel(v, pinned, res, evacuated)
	}
	// Requests not encountered this cycle still resolve now — every
	// request is examined once per collection (§7.4). The recorded
	// decisions are then emitted as instants inside one cond-pins
	// phase span on the coordinator lane, so each instant stays
	// parented to its cycle.
	res.drain(nil)
	if tr != nil && len(res.decisions) > 0 {
		tr.Begin(v.traceLane, obs.KGCPhase, uint64(obs.PhaseCondPins))
		for _, d := range res.decisions {
			heldArg := uint64(0)
			if d.held {
				heldArg = 1
			}
			tr.Instant(v.traceLane, obs.KCondPin, heldArg, uint64(d.ref))
		}
		tr.End(v.traceLane)
	}
	res.finish()

	pause := uint64(time.Since(start).Nanoseconds())
	gcKind := obs.GCScavenge
	if full {
		gcKind = obs.GCFull
	}
	obs.NoteGC(gcKind, int64(pause))
	atomic.AddUint64(&h.Stats.PauseNs, pause)
	for {
		max := atomic.LoadUint64(&h.Stats.MaxPauseNs)
		if pause <= max || atomic.CompareAndSwapUint64(&h.Stats.MaxPauseNs, max, pause) {
			break
		}
	}
	if tr != nil {
		tr.End(v.traceLane)
		tr.Record(obs.HistGCPause, int64(pause))
	}
}

// visitAllRoots enumerates every reference slot outside the heap:
// the handle table, statics, all managed threads' stacks and
// protected frames, and embedder-provided root sets.
func (v *VM) visitAllRoots(visit func(Ref) Ref) {
	v.Handles.VisitRoots(visit)
	for i := range v.globals {
		if v.globals[i].IsRef && v.globals[i].Bits != 0 {
			v.globals[i].Bits = uint64(visit(Ref(v.globals[i].Bits)))
		}
	}
	v.mu.Lock()
	for t := range v.threads {
		v.rootThreads = append(v.rootThreads, t)
	}
	v.mu.Unlock()
	for _, t := range v.rootThreads {
		t.visitRoots(visit)
	}
	clear(v.rootThreads)
	v.rootThreads = v.rootThreads[:0]
	for _, p := range v.extraRoots {
		p.VisitRoots(visit)
	}
}

// scanRefSlots applies f to every reference slot inside the object,
// writing back changed values. Used by both GC phases.
func (h *Heap) scanRefSlots(obj Ref, f func(Ref) Ref) {
	mt := h.MT(obj)
	if mt.Kind == TKArray {
		if mt.Elem != KindRef {
			return
		}
		base := uint32(obj) + arrayDataOff(mt)
		n := int(h.arrayLen(obj))
		for i := 0; i < n; i++ {
			slot := base + uint32(4*i)
			if r := Ref(h.u32(slot)); r != NullRef {
				if nr := f(r); nr != r {
					h.putU32(slot, uint32(nr))
				}
			}
		}
		return
	}
	for _, off := range mt.RefOffsets {
		slot := uint32(obj) + HeaderSize + off
		if r := Ref(h.u32(slot)); r != NullRef {
			if nr := f(r); nr != r {
				h.putU32(slot, uint32(nr))
			}
		}
	}
}

// reservePromotionSpace guarantees a single free elder block large
// enough to absorb the entire live nursery, so evacuation can never
// fail partway (which would leave the heap inconsistent). Reports
// false when the arena cannot provide it.
func (h *Heap) reservePromotionSpace(need uint32) bool {
	if need == 0 {
		return true
	}
	// Splitting can absorb up to 8 bytes per promotion (tails smaller
	// than a header), so pad the reservation by half.
	need += need/2 + HeaderSize
	for _, fb := range h.freeList {
		if fb.size >= need {
			return true
		}
	}
	size := align8(need + HeaderSize)
	start, err := h.carve(size)
	if err != nil {
		return false
	}
	h.addElderRange(start, start+size)
	return true
}

// scavenge evacuates the younger block, resolving conditional pins
// through the cycle's resolver as it reaches them. Returns false when
// evacuation could not be guaranteed: the nursery is left untouched,
// and the allocator falls back to the elder space and surfaces
// ErrOutOfMemory there.
func (h *Heap) scavenge(v *VM, pinned map[Ref]struct{}, res *condPinResolver) bool {
	ys, ye, yp := h.youngStart, h.youngEnd, h.youngPos
	if ys == ye {
		return true // degraded mode: no nursery
	}
	if !h.reservePromotionSpace(yp - ys) {
		return false
	}
	atomic.AddUint64(&h.Stats.Scavenges, 1)
	sc := &h.scav
	sc.ys, sc.ye, sc.pinned, sc.res, sc.survivors = ys, ye, pinned, res, false
	sc.scan = sc.scan[:0] // an out-of-memory panic may have left entries

	v.visitAllRoots(sc.fwd)
	for r := range pinned {
		if sc.inYoung(r) {
			sc.forward(r)
		}
	}
	// Young conditional requests resolve here at the latest: a held
	// object is a root pinned in place, a dropped one is garbage
	// unless otherwise reachable.
	res.resolveInRange(sc.inYoung, func(r Ref) Ref {
		pinned[r] = struct{}{}
		return sc.forward(r)
	})
	for obj := range h.remembered {
		h.scanRefSlots(obj, sc.fwd)
	}

	for len(sc.scan) > 0 {
		obj := sc.scan[len(sc.scan)-1]
		sc.scan = sc.scan[:len(sc.scan)-1]
		h.scanRefSlots(obj, sc.fwd)
	}

	switch {
	case !sc.survivors:
		// The whole block is dead or evacuated: reset and reuse.
		clearBytes(h.mem[ys:yp])
		h.youngPos = ys
	case h.MovesElder():
		h.segregatePinned(ys, ye, yp)
	default:
		// §5.2: the whole block becomes elder space.
		h.donateYoungBlock(ys, ye, yp)
		atomic.AddUint64(&h.Stats.BlocksDonated, 1)
		if err := h.newYoungBlock(); err != nil {
			// Arena exhausted: run without a nursery; allocations
			// fall through to the elder space.
			h.youngStart, h.youngPos, h.youngEnd = 0, 0, 0
		}
	}
	// The younger generation is empty (or donated): the remembered
	// set can be rebuilt from scratch by the write barrier.
	clear(h.remembered)
	return true
}

// scavenger is one scavenge's state. It lives on the Heap, its scan
// stack is reused and fwd is its forward bound once, so a scavenge
// allocates no closures, captured variables or stack of its own.
type scavenger struct {
	h         *Heap
	ys, ye    uint32 // the younger block being evacuated
	pinned    map[Ref]struct{}
	res       *condPinResolver
	survivors bool // a pinned object stays in the younger block
	scan      []Ref
	fwd       func(Ref) Ref
}

func (sc *scavenger) inYoung(r Ref) bool { return uint32(r) >= sc.ys && uint32(r) < sc.ye }

// forward evacuates the young object r into the elder space, or marks
// it in place when it is pinned, and returns its new reference; any
// other reference is returned as it is.
func (sc *scavenger) forward(r Ref) Ref {
	h := sc.h
	if r == NullRef || !sc.inYoung(r) {
		return r
	}
	fl := h.flags(r)
	if fl&flagForwarded != 0 {
		return Ref(h.u32(uint32(r) + hdrMT))
	}
	_, pin := sc.pinned[r]
	if !pin && sc.res.pinnedNow(r) {
		// Conditionally pinned: the resolver has recorded the held
		// decision; remember it for segregation and compaction.
		pin = true
		sc.pinned[r] = struct{}{}
	}
	if pin {
		if fl&flagMark == 0 {
			h.orFlags(r, flagMark)
			sc.survivors = true
			sc.scan = append(sc.scan, r)
		}
		return r
	}
	size := h.objSize(r)
	newOff, ok := h.elderFit(size, false)
	if !ok {
		rangeSize := h.youngSize * 4
		if rangeSize < size+HeaderSize {
			rangeSize = align8(size + HeaderSize)
		}
		start, err := h.carve(rangeSize)
		if err != nil {
			panic(ErrOutOfMemory)
		}
		h.addElderRange(start, start+rangeSize)
		newOff, ok = h.elderFit(size, false)
		if !ok {
			panic(ErrOutOfMemory)
		}
	}
	copy(h.mem[newOff:newOff+size], h.mem[uint32(r):uint32(r)+size])
	h.putU32(uint32(r)+hdrMT, newOff)
	h.orFlags(r, flagForwarded)
	atomic.AddUint64(&h.Stats.BytesPromoted, uint64(size))
	sc.scan = append(sc.scan, Ref(newOff))
	return Ref(newOff)
}

// donateYoungBlock relabels the current younger block as elder space:
// pinned survivors stay where they are as elder objects; dead gaps
// become free blocks. Dead and live donated bytes are accounted
// separately in Stats (DonatedLiveBytes/DonatedDeadBytes) — the
// parity suite asserts the split covers the donated range.
func (h *Heap) donateYoungBlock(ys, ye, yp uint32) {
	freeStart := ys
	pos := ys
	var live, dead uint64
	flushFree := func(end uint32) {
		if end > freeStart {
			size := end - freeStart
			if size >= HeaderSize {
				h.writeFreeBlock(freeStart, size)
				h.freeList = append(h.freeList, freeBlock{freeStart, size})
				dead += uint64(size)
			}
		}
	}
	for pos < yp {
		size := h.objSize(Ref(pos))
		if size < HeaderSize || pos+size > yp {
			// Corrupt walk — should not happen; absorb the rest.
			break
		}
		fl := h.flags(Ref(pos))
		if fl&flagMark != 0 && fl&flagForwarded == 0 {
			// Pinned survivor: keep in place, now elder.
			flushFree(pos)
			h.clearFlags(Ref(pos), flagMark)
			h.elderUsed += size
			live += uint64(size)
			freeStart = pos + size
		}
		pos += size
	}
	end := ye
	if end-freeStart > 0 && end-freeStart < HeaderSize {
		// The trailing gap is too small to carry a free-block header.
		// Donating it would leave elder-range bytes covered by no
		// header, breaking every linear walk (sweep, CheckInvariants);
		// truncate the range at the last survivor instead and leak the
		// sub-header tail outside all spaces — the same policy the
		// sweep applies to sub-header runs.
		end = freeStart
	}
	h.elderRanges = append(h.elderRanges, rng{ys, end})
	flushFree(end)
	atomic.AddUint64(&h.Stats.DonatedLiveBytes, live)
	atomic.AddUint64(&h.Stats.DonatedDeadBytes, dead)
}
