package vm

import (
	"sort"
	"sync/atomic"
)

// Elder sliding compaction (moving policy only). The §5.2 policy
// never compacts the elder generation, so long-lived daemons fragment
// until first-fit allocation falls over. After a full collection's
// sweep under the moving policy, when the free list is splintered
// past compactFreeListThreshold (or compaction was requested
// explicitly), live elder objects slide toward the start of their
// range, pinned objects stay as islands nothing crosses, and the free
// list is rebuilt fully coalesced. Forwarding is applied through the
// same visitor pipeline the scavenger uses (visitAllRoots +
// scanRefSlots), so every root surface — handles, globals, thread
// frames, embedder root sets — is covered by construction.
//
// Gap-size safety: every object is ≥ HeaderSize and 8-aligned, and
// after a sweep every free block is ≥ HeaderSize, so the total free
// space in any run between pinned islands is 0 or ≥ HeaderSize.
// Sliding packs each such run tight and leaves the whole freed space
// as one tail gap, which therefore always carries a valid free-block
// header — exact range coverage (CheckInvariants) is preserved.
const compactFreeListThreshold = 64

type gcMove struct{ old, new, size uint32 }

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

// compactElder slides live elder objects downward, skipping pinned
// islands, then fixes up every reference and rebuilds a coalesced
// free list. Runs only when the younger generation is empty (the
// cycle's scavenge completed), so the only reference slots are in
// roots and elder objects.
func (h *Heap) compactElder(v *VM, pinned map[Ref]struct{}) {
	h.mergeElderRanges()

	// Pass A: plan. For each range, objects pack toward the lowest
	// free address; a pinned object resets the destination cursor past
	// itself. layout collects every live object's final position so
	// pass D can rebuild the free list without re-walking moved memory.
	var moves []gcMove
	type placed struct{ off, size uint32 }
	layouts := make([][]placed, len(h.elderRanges))
	for i, rg := range h.elderRanges {
		dst := rg.start
		pos := rg.start
		for pos < rg.end {
			size := h.objSize(Ref(pos))
			if size < HeaderSize || pos+size > rg.end {
				break
			}
			if h.mtIndex(Ref(pos)) == freeSentinel {
				pos += size
				continue
			}
			if _, pin := pinned[Ref(pos)]; pin {
				// Pinned island: stays put; nothing slides across it.
				layouts[i] = append(layouts[i], placed{pos, size})
				dst = pos + size
				pos += size
				continue
			}
			if dst != pos {
				moves = append(moves, gcMove{pos, dst, size})
			}
			layouts[i] = append(layouts[i], placed{dst, size})
			dst += size
			pos += size
		}
	}
	if len(moves) == 0 {
		return
	}

	// Pass B: fix up every reference slot through the move table,
	// reading the pre-move layout. moves is ascending in old address
	// (ranges are sorted and each range is walked in order).
	fwd := func(r Ref) Ref {
		i := sort.Search(len(moves), func(i int) bool { return moves[i].old > uint32(r) }) - 1
		if i >= 0 && uint32(r) == moves[i].old {
			return Ref(moves[i].new)
		}
		return r
	}
	for _, rg := range h.elderRanges {
		pos := rg.start
		for pos < rg.end {
			size := h.objSize(Ref(pos))
			if size < HeaderSize || pos+size > rg.end {
				break
			}
			if h.mtIndex(Ref(pos)) != freeSentinel {
				h.scanRefSlots(Ref(pos), fwd)
			}
			pos += size
		}
	}
	v.visitAllRoots(fwd)
	if len(h.remembered) > 0 {
		// Only possible in degraded corner states; keep the keys honest.
		moved := make(map[Ref]struct{}, len(h.remembered))
		for obj := range h.remembered {
			moved[fwd(obj)] = struct{}{}
		}
		h.remembered = moved
	}

	// Pass C: move. Ascending order with dst <= src inside each range
	// makes the overlapping copies safe.
	var movedBytes uint64
	for _, m := range moves {
		copy(h.mem[m.new:m.new+m.size], h.mem[m.old:m.old+m.size])
		movedBytes += uint64(m.size)
	}

	// Pass D: rebuild the free list from the planned layout, fully
	// coalesced — one free block per gap between live runs.
	h.freeList = h.freeList[:0]
	for i, rg := range h.elderRanges {
		freeStart := rg.start
		for _, p := range layouts[i] {
			if p.off > freeStart {
				size := p.off - freeStart
				h.writeFreeBlock(freeStart, size)
				h.freeList = append(h.freeList, freeBlock{freeStart, size})
			}
			freeStart = p.off + p.size
		}
		if rg.end > freeStart {
			size := rg.end - freeStart
			h.writeFreeBlock(freeStart, size)
			h.freeList = append(h.freeList, freeBlock{freeStart, size})
		}
	}

	atomic.AddUint64(&h.Stats.Compactions, 1)
	atomic.AddUint64(&h.Stats.BytesCompacted, movedBytes)
}
