package vm

import (
	"sort"
	"sync/atomic"
)

// Elder sliding compaction (moving policy only). The §5.2 policy
// never compacts the elder generation, so long-lived daemons fragment
// until first-fit allocation falls over. After a full collection's
// mark under the moving policy, when the free fragments are past
// compactFreeListThreshold (or compaction was requested explicitly),
// live elder objects slide toward the start of their range instead of
// being swept, pinned objects stay as islands nothing crosses, and the
// free list is rebuilt fully coalesced. Forwarding is applied through
// the same visitor pipeline the scavenger uses (visitAllRoots +
// scanRefSlots), so every root surface — handles, globals, thread
// frames, embedder root sets — is covered by construction.
//
// Gap-size safety: every object is ≥ HeaderSize and 8-aligned, and
// elder ranges are exactly covered by headers, so every run of dead
// bytes between live objects is 0 or ≥ HeaderSize. Sliding packs each
// run between pinned islands tight and leaves the whole freed space as
// one gap, which therefore always carries a valid free-block header —
// exact range coverage (CheckInvariants) is preserved.
const compactFreeListThreshold = 64

// mergeElderRanges sorts the elder ranges by address and merges
// exactly adjacent ones, so compaction can slide across what used to
// be separate carve/donation/segregation boundaries.
func (h *Heap) mergeElderRanges() {
	sort.Slice(h.elderRanges, func(i, j int) bool {
		return h.elderRanges[i].start < h.elderRanges[j].start
	})
	out := h.elderRanges[:0]
	for _, rg := range h.elderRanges {
		if n := len(out); n > 0 && out[n-1].end == rg.start {
			out[n-1].end = rg.end
		} else {
			out = append(out, rg)
		}
	}
	h.elderRanges = out
}

// planCompaction walks the live elder objects only, stepping by the
// mark bitmap, and stamps each one's destination into its flags word,
// which no elder object uses between collections (an 8-aligned stamp
// never reads as flagMark or flagForwarded). It counts the dead runs
// between live objects, the fragments a sweep would list, to decide
// whether to compact, and returns the bytes that would move.
func (h *Heap) planCompaction(mk *markState, pinned map[Ref]struct{}) (compact bool, moved uint64) {
	frags := 0
	for _, rg := range h.elderRanges {
		dst, end := rg.start, rg.start // end: where the last live object ended
		for pos := mk.next(rg.start, rg.end); pos < rg.end; pos = mk.next(end, rg.end) {
			if pos > end {
				frags++
			}
			if _, pin := pinned[Ref(pos)]; pin {
				dst = pos // nothing slides across a pinned island
			}
			size := h.objSize(Ref(pos))
			h.setFlags(Ref(pos), dst)
			if dst != pos {
				moved += uint64(size)
			}
			dst += size
			end = pos + size
		}
		if rg.end > end {
			frags++
		}
	}
	return h.compactRequested || frags >= compactFreeListThreshold, moved
}

// fwd is compaction's forwarding function: a live elder object's
// flags word holds its planned destination. Anything unstamped (NullRef
// too: the arena's first 8 bytes are never written) stays as it is.
func (h *Heap) fwd(r Ref) Ref {
	if d := h.flags(r); d != 0 {
		return Ref(d)
	}
	return r
}

// compactElder carries out the plan. Every reference is forwarded in
// the pre-move layout, by gcWorkers workers (the coordinator one of
// them) over the objects starting in their slice of the mark bitmap
// (targets' headers are only read), then the roots; one walk then
// slides each object, clears its stamp and rebuilds the free list and
// elderUsed. Runs only when the younger generation is empty (the
// cycle's scavenge completed), so the only reference slots are in
// roots and elder objects.
func (h *Heap) compactElder(v *VM, mk *markState, moved uint64) {
	if moved > 0 {
		fix := func(lo, hi uint32) {
			fwd := h.fwd
			for pos := mk.next(lo, hi); pos < hi; pos = mk.next(pos+h.objSize(Ref(pos)), hi) {
				h.scanRefSlots(Ref(pos), fwd)
			}
		}
		words, n := uint32(len(mk.bits)), uint32(h.gcWorkers)
		for k := uint32(1); k < n; k++ {
			mk.wg.Add(1)
			go func() {
				defer mk.wg.Done()
				fix(k*words/n<<9, (k+1)*words/n<<9)
			}()
		}
		fix(0, words/n<<9)
		mk.wg.Wait()
		// The remembered set needs none: the scavenge cleared it.
		v.visitAllRoots(h.fwd)
	}

	// Ascending order with dst <= src inside each range makes the
	// overlapping copies safe, and a free block is only ever written
	// below the object being placed, over memory already vacated.
	h.freeList = h.freeList[:0]
	used := h.elderUsed
	h.elderUsed = 0
	for _, rg := range h.elderRanges {
		free := rg.start
		for pos := mk.next(rg.start, rg.end); pos < rg.end; {
			size, dst := h.objSize(Ref(pos)), h.flags(Ref(pos))
			if dst > free { // a pinned island
				h.writeFreeBlock(free, dst-free)
				h.freeList = append(h.freeList, freeBlock{free, dst - free})
			}
			if dst != pos {
				copy(h.mem[dst:dst+size], h.mem[pos:pos+size])
			}
			h.setFlags(Ref(dst), 0)
			h.elderUsed += size
			free = dst + size
			pos = mk.next(pos+size, rg.end)
		}
		if rg.end > free {
			h.writeFreeBlock(free, rg.end-free)
			h.freeList = append(h.freeList, freeBlock{free, rg.end - free})
		}
	}
	atomic.AddUint64(&h.Stats.BytesSwept, uint64(used-h.elderUsed))
	if moved > 0 {
		atomic.AddUint64(&h.Stats.Compactions, 1)
		atomic.AddUint64(&h.Stats.BytesCompacted, moved)
	}
}
