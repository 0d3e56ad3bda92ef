package vm

import "fmt"

// CheckInvariants is the debug heap verifier: it walks every space,
// validating object headers, space coverage, and every reference slot
// of every live object. Stress tests call it between collections;
// it is not intended for production hot paths.
//
// Checked invariants:
//
//   - every elder range is exactly covered by a sequence of valid
//     object and free-block headers, all 8-aligned;
//   - the younger block's used prefix is a sequence of valid objects;
//   - every reference field and reference array element of every live
//     object is null or addresses a valid object header;
//   - every explicitly pinned object is valid;
//   - elderUsed equals the sum of live object sizes over all elder
//     ranges (the occupancy counter cannot drift from the walk);
//   - every elder object's flags word is zero: no mark, forwarding or
//     compaction stamp outlives the collection that wrote it.
func (h *Heap) CheckInvariants() error {
	valid := make(map[Ref]bool)
	var elderLive uint32

	// Pass 1: walk spaces and record every live object location.
	var walkErr error
	record := func(space string, start, end uint32, usedOnly bool) {
		pos := start
		for pos < end {
			if pos+HeaderSize > end {
				walkErr = fmt.Errorf("vm: %s: header at %#x overruns range end %#x", space, pos, end)
				return
			}
			if pos%8 != 0 {
				walkErr = fmt.Errorf("vm: %s: misaligned header at %#x", space, pos)
				return
			}
			mtIdx := h.mtIndex(Ref(pos))
			size := h.objSize(Ref(pos))
			if size < HeaderSize || size%8 != 0 || pos+size > end {
				walkErr = fmt.Errorf("vm: %s: bad size %d at %#x", space, size, pos)
				return
			}
			if mtIdx != freeSentinel {
				if int(mtIdx) >= len(h.vm.types) {
					walkErr = fmt.Errorf("vm: %s: bad mt index %d at %#x", space, mtIdx, pos)
					return
				}
				mt := h.vm.types[mtIdx]
				want := classAllocSize(mt)
				if mt.Kind == TKArray {
					want = arrayAllocSize(mt, int(h.arrayLen(Ref(pos))))
				}
				if size != want {
					walkErr = fmt.Errorf("vm: %s: object %#x (%s) size %d, want %d", space, pos, mt, size, want)
					return
				}
				valid[Ref(pos)] = true
			}
			pos += size
		}
		if pos != end {
			walkErr = fmt.Errorf("vm: %s: walk ended at %#x, range end %#x", space, pos, end)
		}
	}

	for _, rg := range h.elderRanges {
		record("elder", rg.start, rg.end, false)
		if walkErr != nil {
			return walkErr
		}
		pos := rg.start
		for pos < rg.end {
			if h.mtIndex(Ref(pos)) != freeSentinel {
				if fl := h.flags(Ref(pos)); fl != 0 {
					return fmt.Errorf("vm: elder object %#x carries stale flags %#x", pos, fl)
				}
				elderLive += h.objSize(Ref(pos))
			}
			pos += h.objSize(Ref(pos))
		}
	}
	if elderLive != h.elderUsed {
		return fmt.Errorf("vm: elderUsed accounting drift: counter %d, walk %d", h.elderUsed, elderLive)
	}
	if h.youngStart != h.youngEnd {
		record("young", h.youngStart, h.youngPos, true)
		if walkErr != nil {
			return walkErr
		}
	}

	// Pass 2: every reference slot of every live object must be null
	// or point at a live object.
	for obj := range valid {
		var slotErr error
		h.scanRefSlots(obj, func(r Ref) Ref {
			if slotErr == nil && !valid[r] {
				slotErr = fmt.Errorf("vm: object %#x (%s) references invalid %#x", obj, h.MT(obj), r)
			}
			return r
		})
		if slotErr != nil {
			return slotErr
		}
	}

	// Pass 3: pinned objects must be live.
	for r := range h.pinCounts {
		if !valid[r] {
			return fmt.Errorf("vm: pinned ref %#x is not a live object", r)
		}
	}
	for _, p := range h.pinList {
		if !valid[p.ref] {
			return fmt.Errorf("vm: pinned ref %#x is not a live object", p.ref)
		}
	}
	return nil
}
