package vm

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"motor/internal/obs"
)

// The collector's parts that serve both policies, plus the moving
// policy's segregation (gc.go says where the policies differ):
//
//   - Parallel mark: full collections mark with a fixed pool of
//     GCWorkers work-stealing workers over the root set (external
//     slots, pins, thread frames). Liveness lives in a side bitmap
//     (one bit per 8 arena bytes) instead of header flags, so marking
//     never writes managed memory and workers never race on object
//     headers.
//   - Single-resolver conditional pins: a request's Active() runs
//     exactly once per cycle no matter how many workers encounter the
//     object. Workers feed refs to the resolver; the resolver owns
//     the decision, the stats, and the trace instant (correlated to
//     the cycle by the enclosing KGC span).
//   - Pin-aware promotion (moving policy): a scavenge with pinned
//     survivors segregates them into dedicated pinned blocks and keeps
//     (or re-carves) a nursery, instead of donating the whole younger
//     block to the elder generation. donateYoungBlock remains as the
//     dense-pin fallback; Stats.PinnedSegregated vs
//     Stats.BlocksDonated proves it is rare.
//
// The collection is still stop-the-world: collect holds the execution
// token, so no managed thread and no ExecRun progress pass can touch
// the heap while the workers run. Worker goroutines are the only
// concurrency, and they share nothing but the bitmap, the deques, and
// the resolver.

// condPinReq is one conditional request during one cycle.
type condPinReq struct {
	cp   CondPin
	held bool
}

// condPinResolver is the cycle's single resolver for conditional pin
// requests (§4.3, §7.4). pendingCount mirrors the map size so hot
// paths skip the lock once every request has resolved.
//
// Decisions are recorded, not traced inline: workers feed the
// resolver from mark goroutines, which must not touch the
// coordinator's trace-lane span stack. The coordinator emits every
// decision instant inside one cond-pins phase span at the end of the
// cycle, so each instant is parented to the cycle's gc:cond-pins
// span.
type condPinResolver struct {
	pendingCount int64 // atomic; first field for 64-bit alignment on 32-bit hosts
	h            *Heap

	mu        sync.Mutex //motorlint:lockorder 50 gcresolver
	pending   map[Ref][]*condPinReq
	kept      []CondPin
	decisions []condPinDecision
}

type condPinDecision struct {
	ref  Ref
	held bool
}

// newCondPinResolver starts the cycle's resolver, reusing the Heap's
// (collections never overlap): a cycle without conditional requests
// allocates nothing.
func newCondPinResolver(h *Heap) *condPinResolver {
	r := h.resolver
	if r == nil {
		r = &condPinResolver{h: h, pending: make(map[Ref][]*condPinReq)}
		h.resolver = r
	}
	clear(r.pending)
	r.kept, r.decisions = nil, r.decisions[:0] // kept becomes h.condPins
	for _, cp := range h.condPins {
		r.pending[cp.Ref] = append(r.pending[cp.Ref], &condPinReq{cp: cp})
	}
	atomic.StoreInt64(&r.pendingCount, int64(len(h.condPins)))
	return r
}

// take claims every unresolved request on ref. Claiming is what makes
// resolution exactly-once: concurrent callers get nil.
func (r *condPinResolver) take(ref Ref) []*condPinReq {
	if atomic.LoadInt64(&r.pendingCount) == 0 {
		return nil
	}
	r.mu.Lock()
	reqs := r.pending[ref]
	if reqs != nil {
		delete(r.pending, ref)
	}
	r.mu.Unlock()
	return reqs
}

// settle runs Active() for claimed requests — exactly once each —
// records the decision (stats + deferred trace instant), and returns
// whether any request holds the object pinned for this cycle.
func (r *condPinResolver) settle(reqs []*condPinReq) bool {
	if len(reqs) == 0 {
		return false
	}
	held := false
	for _, q := range reqs {
		q.held = q.cp.Active()
		if q.held {
			held = true
			atomic.AddUint64(&r.h.Stats.CondPinsHeld, 1)
		} else {
			atomic.AddUint64(&r.h.Stats.CondPinsDropped, 1)
		}
		r.mu.Lock()
		if q.held {
			r.kept = append(r.kept, q.cp)
		}
		r.decisions = append(r.decisions, condPinDecision{q.cp.Ref, q.held})
		r.mu.Unlock()
	}
	atomic.AddInt64(&r.pendingCount, -int64(len(reqs)))
	return held
}

// pinnedNow resolves any pending requests on ref and reports whether
// ref is conditionally pinned for this cycle. Used by the scavenge
// forwarding path, which must know the decision before moving an
// object.
func (r *condPinResolver) pinnedNow(ref Ref) bool {
	return r.settle(r.take(ref))
}

// observe resolves the requests on ref; a held decision injects it as
// a mark root (pinned objects are live regardless of managed
// reachability). Mark workers pass nil: what they pop is marked already.
func (r *condPinResolver) observe(ref Ref, inject func(Ref)) {
	if r.settle(r.take(ref)) && inject != nil {
		inject(ref)
	}
}

// drain resolves every request not encountered during the cycle:
// each request is examined once per collection (§7.4), reachable or
// not. Held objects are injected as roots when marking is active.
func (r *condPinResolver) drain(inject func(Ref)) {
	for {
		r.mu.Lock()
		var ref Ref
		found := false
		for k := range r.pending {
			ref, found = k, true
			break
		}
		r.mu.Unlock()
		if !found {
			return
		}
		r.observe(ref, inject)
	}
}

// finish writes the surviving requests back as the heap's outstanding
// conditional pins.
func (r *condPinResolver) finish() {
	r.h.condPins = r.kept
}

// --- work-stealing mark ------------------------------------------------

// markDeque is the shared half of one worker's mark work: the owner
// takes back the newest half, thieves the oldest. A worker never holds
// two deque locks at once, so a single rank suffices.
type markDeque struct {
	size int32      // atomic: len(buf)-head, read without the lock
	mu   sync.Mutex //motorlint:lockorder 40 gcdeque
	buf  []Ref
	head int // thieves take from buf[head:]
}

func (d *markDeque) put(refs ...Ref) {
	d.mu.Lock()
	if d.head >= len(d.buf)/2 { // reclaim the stolen front
		d.buf, d.head = d.buf[:copy(d.buf, d.buf[d.head:])], 0
	}
	d.buf = append(d.buf, refs...)
	atomic.StoreInt32(&d.size, int32(len(d.buf)-d.head))
	d.mu.Unlock()
}

// grab moves half the deque, at least one reference, onto dst: the
// newest half for the owner, the oldest for a thief.
func (d *markDeque) grab(dst []Ref, thief bool) []Ref {
	if atomic.LoadInt32(&d.size) == 0 {
		return dst
	}
	d.mu.Lock()
	n := len(d.buf) - d.head
	k := (n + 1) / 2
	if thief {
		dst = append(dst, d.buf[d.head:d.head+k]...)
		d.head += k
	} else {
		dst = append(dst, d.buf[len(d.buf)-k:]...)
		d.buf = d.buf[:len(d.buf)-k]
	}
	atomic.StoreInt32(&d.size, int32(n-k))
	d.mu.Unlock()
	return dst
}

// markState is the shared state of one parallel mark: the side
// bitmap, the deques, and the termination counter. It lives on the
// Heap and is reused, so a mark allocates nothing per object.
//
// pending counts marked-but-unscanned objects plus one coordinator
// token held while roots and drained cond pins are still being
// injected. A worker marks onto a private stack and settles the net
// of what it marked minus what it scanned into pending in batches:
// before it publishes half its stack to its deque, and before it goes
// idle. It exits only with an empty stack, an empty own deque, nothing
// to steal and pending at zero after its own settle, so the last
// worker out reads the exact count.
type markState struct {
	pending int64 // atomic; first field for 64-bit alignment on 32-bit hosts
	h       *Heap
	bits    []uint64
	deques  []markDeque
	workers []markWorker
	cursor  uint32 // coordinator's round-robin injection cursor
	wg      sync.WaitGroup
}

// markWorker is one mark worker's private state.
type markWorker struct {
	m     *markState
	stack []Ref
	delta int64         // marked minus scanned since the last settle
	visit func(Ref) Ref // marks a slot's target and stacks it if new
}

// startMark readies the Heap's mark state for a cycle: a zeroed bitmap
// (one bit per 8 arena bytes) and the coordinator's token.
func (h *Heap) startMark() *markState {
	m := h.mark
	if m == nil {
		m = &markState{h: h, deques: make([]markDeque, h.gcWorkers), workers: make([]markWorker, h.gcWorkers)}
		for i := range m.workers {
			w := &m.workers[i]
			w.m = m
			w.visit = func(r Ref) Ref {
				if r != NullRef && m.trySet(uint32(r)) {
					w.stack = append(w.stack, r)
					w.delta++
				}
				return r
			}
		}
		h.mark = m
	}
	words := (len(h.mem)/8 + 63) / 64
	if cap(m.bits) < words {
		m.bits = make([]uint64, words)
	} else {
		m.bits = m.bits[:words]
		clear(m.bits)
	}
	atomic.StoreInt64(&m.pending, 1)
	return m
}

// trySet atomically sets the mark bit for off, reporting whether this
// call set it. Offsets are 8-aligned, so one bit per 8 bytes is
// exact. CAS loop because the module targets Go 1.22 (no atomic.Or).
func (m *markState) trySet(off uint32) bool {
	i := off >> 3
	w, bit := i>>6, uint64(1)<<(i&63)
	for {
		old := atomic.LoadUint64(&m.bits[w])
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&m.bits[w], old, old|bit) {
			return true
		}
	}
}

// marked reports the bit without synchronization; callers use it only
// after the mark phase has joined.
func (m *markState) marked(off uint32) bool {
	i := off >> 3
	return m.bits[i>>6]&(uint64(1)<<(i&63)) != 0
}

// next returns the offset of the first marked object in [off, end),
// or end, after the mark phase has joined. It steps a bitmap word (512
// arena bytes) at a time and never reads the heap, so a walk over live
// objects touches no dead header.
func (m *markState) next(off, end uint32) uint32 {
	for off < end {
		i := off >> 3
		if word := m.bits[i>>6] >> (i & 63); word != 0 {
			if p := off + uint32(bits.TrailingZeros64(word))<<3; p < end {
				return p
			}
			return end
		}
		if off = (i>>6 + 1) << 9; off == 0 { // past the last word of a 4 GiB arena
			return end
		}
	}
	return end
}

// inject marks ref and, if newly marked, queues it round-robin on a
// deque. Coordinator only: workers stack what they find privately.
func (m *markState) inject(ref Ref) {
	if ref == NullRef || !m.trySet(uint32(ref)) {
		return
	}
	atomic.AddInt64(&m.pending, 1)
	m.cursor++
	m.deques[m.cursor%uint32(len(m.deques))].put(ref)
}

// releaseToken drops the coordinator's injection token.
func (m *markState) releaseToken() {
	atomic.AddInt64(&m.pending, -1)
}

// settle adds the worker's unsettled count to pending.
func (w *markWorker) settle() {
	if w.delta != 0 {
		atomic.AddInt64(&w.m.pending, w.delta)
		w.delta = 0
	}
}

// worker is one mark worker: drain the private stack, refill it from
// the own deque or by stealing, and exit by the termination rule
// (markState). Every popped object is offered to the cond-pin resolver
// (the feed half of the single-resolver discipline), then its
// reference slots are scanned.
func (m *markState) worker(id int, res *condPinResolver) {
	w, own := &m.workers[id], &m.deques[id]
	for {
		n := len(w.stack)
		if n == 0 {
			w.stack = own.grab(w.stack, false)
			for j := 1; j < len(m.deques) && len(w.stack) == 0; j++ {
				w.stack = m.deques[(id+j)%len(m.deques)].grab(w.stack, true)
			}
			if n = len(w.stack); n == 0 {
				w.settle()
				if atomic.LoadInt64(&m.pending) == 0 {
					return
				}
				runtime.Gosched()
				continue
			}
		}
		ref := w.stack[n-1]
		w.stack = w.stack[:n-1]
		if res != nil {
			res.observe(ref, nil) // marked already: nothing to inject
		}
		m.h.scanRefSlots(ref, w.visit)
		w.delta--
		if n = len(w.stack); n > 1 && len(m.deques) > 1 && atomic.LoadInt32(&own.size) == 0 {
			w.settle()
			half := n / 2
			own.put(w.stack[:half]...)
			w.stack = w.stack[:copy(w.stack, w.stack[half:])]
		}
	}
}

// resolveInRange resolves every pending request whose object lies in
// the given range, applying root to held objects. Single-threaded
// (scavenge); root may move the heap.
func (r *condPinResolver) resolveInRange(in func(Ref) bool, root func(Ref) Ref) {
	if atomic.LoadInt64(&r.pendingCount) == 0 {
		return
	}
	r.mu.Lock()
	var refs []Ref
	for ref := range r.pending {
		if in(ref) {
			refs = append(refs, ref)
		}
	}
	r.mu.Unlock()
	for _, ref := range refs {
		if r.settle(r.take(ref)) {
			root(ref)
		}
	}
}

// segregatePinned disposes of a scavenged younger block that holds
// pinned survivors under the moving policy. Instead of donating the
// whole block (§5.2),
// maximal runs of pinned survivors become dedicated fully-used elder
// blocks; the dead gaps between them become elder free space; and the
// largest gap is reused as the next nursery when big enough, so the
// arena does not grow at all in the common few-pins case. Densely
// pinned blocks still take the donation path — the
// PinnedSegregated/BlocksDonated stat pair proves donation is rare.
func (h *Heap) segregatePinned(ys, ye, yp uint32) {
	type span struct{ start, end uint32 }
	var runs []span
	var pinnedBytes uint32
	pos := ys
	corrupt := false
	for pos < yp {
		size := h.objSize(Ref(pos))
		if size < HeaderSize || pos+size > yp {
			corrupt = true
			break
		}
		fl := h.flags(Ref(pos))
		if fl&flagMark != 0 && fl&flagForwarded == 0 {
			if n := len(runs); n > 0 && runs[n-1].end == pos {
				runs[n-1].end = pos + size
			} else {
				runs = append(runs, span{pos, pos + size})
			}
			pinnedBytes += size
		}
		pos += size
	}
	if corrupt || pinnedBytes*4 > ye-ys {
		// Densely pinned (or unwalkable): wholesale relabelling beats
		// splintering the block into many tiny ranges.
		h.donateYoungBlock(ys, ye, yp)
		atomic.AddUint64(&h.Stats.BlocksDonated, 1)
		h.replaceNursery()
		return
	}

	atomic.AddUint64(&h.Stats.PinnedSegregated, 1)
	atomic.AddUint64(&h.Stats.PinnedBlockBytes, uint64(pinnedBytes))

	// Dedicated pinned blocks: each run is a fully-used elder range.
	for _, run := range runs {
		p := run.start
		for p < run.end {
			h.clearFlags(Ref(p), flagMark)
			p += h.objSize(Ref(p))
		}
		h.elderRanges = append(h.elderRanges, rng{run.start, run.end})
		h.elderUsed += run.end - run.start
	}

	// Complement of the runs: dead gaps plus the unallocated tail.
	var gaps []span
	prev := ys
	for _, run := range runs {
		if run.start > prev {
			gaps = append(gaps, span{prev, run.start})
		}
		prev = run.end
	}
	if prev < ye {
		gaps = append(gaps, span{prev, ye})
	}

	// The largest gap becomes the next nursery when it can hold a
	// meaningful one; everything else becomes elder free space.
	nursery := -1
	for i, g := range gaps {
		if g.end-g.start >= h.youngSize/2 &&
			(nursery < 0 || g.end-g.start > gaps[nursery].end-gaps[nursery].start) {
			nursery = i
		}
	}
	for i, g := range gaps {
		if i == nursery {
			continue
		}
		// Sub-header shards are leaked outside all spaces, as the
		// donation path does; everything else re-coalesces with
		// adjacent elder ranges and free blocks immediately, so a
		// recycled nursery's dead bulk flows back into the free block
		// it was cut from instead of waiting for the next full sweep.
		h.returnElderSpace(g.start, g.end)
	}
	if nursery >= 0 {
		g := gaps[nursery]
		clearBytes(h.mem[g.start:g.end])
		h.youngStart, h.youngPos, h.youngEnd = g.start, g.start, g.end
	} else {
		h.replaceNursery()
	}
}

// returnElderSpace hands [start, end) back to the elder space as free
// bytes, merging with exactly adjacent elder ranges and free blocks.
// Segregation gaps re-coalesce incrementally this way; leaving them
// as isolated single-block ranges until the next full sweep splinters
// the heap into fragments too small for promotion reservation or
// nursery recycling, and the resulting carves grow the arena exactly
// the way donation does.
func (h *Heap) returnElderSpace(start, end uint32) {
	if end <= start || end-start < HeaderSize {
		return
	}
	// Merge with the ranges ending and starting exactly at the gap's
	// bounds. (A free block touching the gap lies inside such a range.)
	rs, re := start, end
	li, ri := -1, -1
	for i, rg := range h.elderRanges {
		if rg.end == start {
			li = i
		}
		if rg.start == end {
			ri = i
		}
	}
	if li >= 0 {
		rs = h.elderRanges[li].start
	}
	if ri >= 0 {
		re = h.elderRanges[ri].end
	}
	if li >= 0 && ri >= 0 {
		hi, lo := li, ri
		if hi < lo {
			hi, lo = lo, hi
		}
		h.elderRanges = append(h.elderRanges[:hi], h.elderRanges[hi+1:]...)
		h.elderRanges = append(h.elderRanges[:lo], h.elderRanges[lo+1:]...)
	} else if li >= 0 {
		h.elderRanges = append(h.elderRanges[:li], h.elderRanges[li+1:]...)
	} else if ri >= 0 {
		h.elderRanges = append(h.elderRanges[:ri], h.elderRanges[ri+1:]...)
	}
	h.elderRanges = append(h.elderRanges, rng{rs, re})

	// Absorb free blocks touching the returned span (at most one per
	// side per pass; chains collapse by restarting). Only blocks inside
	// the merged range qualify: a chain can reach the end of the range,
	// and a free block of the next range, carved there since, starts
	// exactly where it ends.
	fs, fe := start, end
	for i := 0; i < len(h.freeList); {
		fb := h.freeList[i]
		switch {
		case fb.off+fb.size == fs && fb.off >= rs:
			fs = fb.off
			h.freeList = append(h.freeList[:i], h.freeList[i+1:]...)
			i = 0
		case fb.off == fe && fb.off+fb.size <= re:
			fe = fb.off + fb.size
			h.freeList = append(h.freeList[:i], h.freeList[i+1:]...)
			i = 0
		default:
			i++
		}
	}
	h.writeFreeBlock(fs, fe-fs)
	h.freeList = append(h.freeList, freeBlock{fs, fe - fs})
}

// replaceNursery installs a fresh nursery after the old block was
// segregated or donated away: recycled elder free space when a large
// enough block exists (the arena footprint stays flat), fresh arena
// otherwise, degraded elder-only mode as the last resort.
func (h *Heap) replaceNursery() {
	if h.recycleNursery() {
		return
	}
	if err := h.newYoungBlock(); err != nil {
		h.youngStart, h.youngPos, h.youngEnd = 0, 0, 0
	}
}

// recycleNursery re-installs the nursery over an elder free block.
// The block is withdrawn from the free lists and its elder range is
// split around the new nursery, so every linear walk (sweep,
// compaction layout, CheckInvariants) still sees ranges exactly
// covered by headers. Pins spread through the nursery leave no
// reusable in-place gap at segregation time; without recycling every
// such scavenge would carve fresh arena, reproducing the donation
// growth segregation exists to avoid.
//
// Selection: fragments no bigger than a configured nursery are
// consumed largest-first — segregation gaps chain back through
// successively smaller nurseries until they drop below the floor
// (1/16 nursery), instead of lying fallow until the next full sweep.
// Only when no such fragment exists is a nursery sliced off the
// smallest oversized block, keeping the big coalesced blocks intact
// for promotion reservation.
func (h *Heap) recycleNursery() bool {
	floor := h.youngSize / 16
	if floor < 4096 {
		floor = 4096
	}
	if floor > h.youngSize {
		floor = h.youngSize
	}
	best := -1
	for i, fb := range h.freeList {
		if fb.size < floor {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		bs := h.freeList[best].size
		fits, bestFits := fb.size <= h.youngSize, bs <= h.youngSize
		switch {
		case fits && bestFits:
			if fb.size > bs {
				best = i
			}
		case fits:
			best = i
		case !bestFits:
			if fb.size < bs {
				best = i
			}
		}
	}
	if best < 0 {
		return false
	}
	fb := h.freeList[best]
	ri := -1
	for i, rg := range h.elderRanges {
		if rg.start <= fb.off && fb.off+fb.size <= rg.end {
			ri = i
			break
		}
	}
	if ri < 0 {
		// Free blocks always lie inside an elder range; tolerate a
		// violation by declining rather than corrupting the walk.
		return false
	}
	take := fb.size
	if take > h.youngSize {
		take = h.youngSize
		if fb.size-take < HeaderSize {
			// The remainder could not carry a free-block header.
			take = fb.size
		}
	}
	if take == fb.size {
		h.freeList = append(h.freeList[:best], h.freeList[best+1:]...)
	} else {
		h.freeList[best] = freeBlock{fb.off + take, fb.size - take}
		h.writeFreeBlock(fb.off+take, fb.size-take)
	}
	rg := h.elderRanges[ri]
	h.elderRanges[ri] = h.elderRanges[len(h.elderRanges)-1]
	h.elderRanges = h.elderRanges[:len(h.elderRanges)-1]
	if fb.off > rg.start {
		h.elderRanges = append(h.elderRanges, rng{rg.start, fb.off})
	}
	if fb.off+take < rg.end {
		h.elderRanges = append(h.elderRanges, rng{fb.off + take, rg.end})
	}
	clearBytes(h.mem[fb.off : fb.off+take])
	h.youngStart, h.youngPos, h.youngEnd = fb.off, fb.off, fb.off+take
	atomic.AddUint64(&h.Stats.NurseriesRecycled, 1)
	return true
}

// fullParallel is the elder phase of a full collection: parallel mark
// from the root set, then, under the moving policy, a compaction plan
// that visits live objects only. A compacting collection slides the
// live objects and rebuilds the free list in the same walk, with no
// sweep; every other one sweeps in parallel.
func (h *Heap) fullParallel(v *VM, pinned map[Ref]struct{}, res *condPinResolver, canCompact bool) {
	atomic.AddUint64(&h.Stats.FullGCs, 1)
	tr := obs.Active()

	if tr != nil {
		tr.Begin(v.traceLane, obs.KGCPhase, uint64(obs.PhaseRoots))
	}
	mk := h.startMark()
	for i := 0; i < h.gcWorkers; i++ {
		mk.wg.Add(1)
		go func(id int) {
			defer mk.wg.Done()
			mk.worker(id, res)
		}(i)
	}
	v.visitAllRoots(func(r Ref) Ref {
		mk.inject(r)
		return r
	})
	for r := range pinned {
		mk.inject(r)
	}
	if tr != nil {
		tr.End(v.traceLane)
		tr.Begin(v.traceLane, obs.KGCPhase, uint64(obs.PhaseMark))
	}
	// Resolution during mark: the resolver settles the requests no
	// worker has fed it yet, injecting held objects as roots, while
	// the workers are marking. The coordinator token keeps the
	// workers from terminating before this completes.
	res.drain(mk.inject)
	mk.releaseToken()
	mk.wg.Wait()
	if tr != nil {
		tr.End(v.traceLane)
		tr.Begin(v.traceLane, obs.KGCPhase, uint64(obs.PhaseSweep))
	}
	// Merging exactly adjacent ranges first lets the sweep coalesce
	// free space across former carve/segregation boundaries; without
	// it, nursery gaps returned by segregatePinned stay separate
	// ranges forever and the heap can never reassemble a block large
	// enough for promotion reservation or nursery recycling.
	h.mergeElderRanges()
	compact, moved := false, uint64(0)
	if canCompact && h.MovesElder() && h.youngPos == h.youngStart {
		// Held conditional pins join the compaction skip set.
		for _, cp := range res.kept {
			pinned[cp.Ref] = struct{}{}
		}
		compact, moved = h.planCompaction(mk, pinned)
	}
	if !compact {
		h.sweepParallel(mk)
	}
	if tr != nil {
		tr.End(v.traceLane)
	}
	if compact {
		if tr != nil {
			tr.Begin(v.traceLane, obs.KGCPhase, uint64(obs.PhaseCompact))
		}
		h.compactElder(v, mk, moved)
		if tr != nil {
			tr.End(v.traceLane)
		}
	}
	h.compactRequested = false
	h.sinceFull = 0
}

// sweepParallel rebuilds the elder free lists from the mark bitmap
// and clears the compaction plan's stamps from the live objects.
// Workers claim whole ranges; the coordinator concatenates results in
// range order so the free list is deterministic regardless of worker
// scheduling.
func (h *Heap) sweepParallel(mk *markState) {
	type result struct {
		free  []freeBlock
		used  uint32
		swept uint64
	}
	results := make([]result, len(h.elderRanges))
	var next uint32 // atomic range cursor
	var wg sync.WaitGroup
	workers := h.gcWorkers
	if workers > len(h.elderRanges) {
		workers = len(h.elderRanges)
	}
	sweepRange := func(idx int) {
		rg := h.elderRanges[idx]
		res := &results[idx]
		pos := rg.start
		freeStart := rg.start
		flush := func(end uint32) {
			// Runs smaller than a header cannot be described in place;
			// they are leaked until the surrounding space coalesces.
			if end > freeStart && end-freeStart >= HeaderSize {
				size := end - freeStart
				h.writeFreeBlock(freeStart, size)
				res.free = append(res.free, freeBlock{freeStart, size})
			}
		}
		for pos < rg.end {
			size := h.objSize(Ref(pos))
			if size < HeaderSize || pos+size > rg.end {
				break
			}
			if h.mtIndex(Ref(pos)) != freeSentinel && mk.marked(pos) {
				h.setFlags(Ref(pos), 0)
				flush(pos)
				res.used += size
				freeStart = pos + size
			} else if h.mtIndex(Ref(pos)) != freeSentinel {
				res.swept += uint64(size)
			}
			pos += size
		}
		flush(rg.end)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(atomic.AddUint32(&next, 1)) - 1
				if idx >= len(h.elderRanges) {
					return
				}
				sweepRange(idx)
			}
		}()
	}
	wg.Wait()

	h.freeList = h.freeList[:0]
	h.elderUsed = 0
	var swept uint64
	for i := range results {
		h.freeList = append(h.freeList, results[i].free...)
		h.elderUsed += results[i].used
		swept += results[i].swept
	}
	atomic.AddUint64(&h.Stats.BytesSwept, swept)
}
