package mp

import (
	"errors"
	"fmt"
)

// Dynamic process management (MPI-2). The paper's Motor implements
// "selected MPI-2 functionality such as dynamic process management
// and dynamic intercommunication routines" (§7); this file provides
// the equivalent for shm worlds: Spawn adds ranks to the running
// fabric and connects parents and children through a merged
// communicator (the result of an MPI_Intercomm_merge).

// ErrNoSpawn is returned when the transport cannot grow (sock worlds
// have a fixed mesh).
var ErrNoSpawn = errors.New("mp: transport does not support dynamic process management")

// spawnCtxBase starts the context range reserved for spawned trees so
// parent- and child-allocated contexts never collide.
const spawnCtxBase = 1 << 24

// Spawn is collective over the world communicator: it adds n new
// ranks to the fabric, starts body once per child (each on its own
// goroutine), and returns a merged communicator containing all
// parents followed by all children. Children receive their own World
// (world communicator spanning the children only) plus the same
// merged communicator. A child's error is the child's to handle:
// Spawn drops what body returns, so a child reports failure to a
// parent through the merged communicator.
func (w *World) Spawn(n int, body func(child *World, merged *Comm) error) (*Comm, error) {
	if w.fabric == nil {
		return nil, ErrNoSpawn
	}
	if n < 1 {
		return nil, fmt.Errorf("%w: spawn count %d", errInvalid, n)
	}
	// Agree on the first child rank: rank 0 grows the fabric and
	// broadcasts the base; everyone else learns it from the bcast.
	sizeBuf := make([]byte, 8)
	if w.Comm.Rank() == 0 {
		first := w.fabric.Grow(n)
		putI32(sizeBuf, 0, int32(first))
		putI32(sizeBuf, 4, int32(n))
	}
	if err := w.Comm.Bcast(sizeBuf, 0); err != nil {
		return nil, err
	}
	first := int(getI32(sizeBuf, 0))
	count := int(getI32(sizeBuf, 4))

	// Merged communicator: parents 0..size-1 then children.
	mergedRanks := make([]int, 0, w.size+count)
	for r := 0; r < w.size; r++ {
		mergedRanks = append(mergedRanks, r)
	}
	for r := first; r < first+count; r++ {
		mergedRanks = append(mergedRanks, r)
	}
	// Deterministic context for this spawn tree, derived from the
	// first child rank so repeated spawns get distinct contexts.
	mergedCtx := int32(spawnCtxBase + 4*first)
	merged := newComm(w.Dev, mergedCtx, mergedRanks, w.rank, w.Comm.coll)

	// Rank 0 launches the children.
	if w.Comm.Rank() == 0 {
		childRanks := make([]int, count)
		for i := range childRanks {
			childRanks[i] = first + i
		}
		for i := 0; i < count; i++ {
			childWorldRank := first + i
			go func(cr int) {
				cw := worldFromChannel(w.fabric.Endpoint(cr), 0, w.Dev.EagerMax(), w.fabric)
				// The child's world communicator spans the children.
				cw.rank = cr
				cw.size = count
				cw.Comm = newComm(cw.Dev, mergedCtx+2, childRanks, cr, nil)
				childMerged := newComm(cw.Dev, mergedCtx, mergedRanks, cr, cw.Comm.coll)
				_ = body(cw, childMerged) // the child's to handle, see above
			}(childWorldRank)
		}
	}
	return merged, nil
}
