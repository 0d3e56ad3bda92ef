package serial

import (
	"sync/atomic"

	"motor/internal/vm"
)

// The type-table cache: repeated sends of the same class shapes to the
// same peer transmit a 5-byte table reference instead of the full
// entry. The sender keeps a PeerCache per (comm, peer) assigning small
// ids to method tables; the receiver keeps a TableMirror per (comm,
// peer) holding the raw entries those ids resolve to.
//
// Correctness does not depend on the two sides staying in sync: a
// stream arriving with references the mirror cannot resolve makes the
// receiver NACK, and the sender answers with the self-describing
// TableBlob. Epochs handle invalidation — the sender bumps its epoch
// whenever its VM's type registry generation moves (Load rollback
// unregisters types), and a mirror that sees a new epoch drops
// everything it held.

// PeerCache is the sender side: ids assigned to method tables shipped
// to one peer, valid for the current epoch.
type PeerCache struct {
	// Epoch identifies the cache generation on the wire; starts at 1
	// (0 marks self-describing streams).
	Epoch uint32

	gen  uint64 // vm.TypeGen stamp the ids were built under
	ids  map[*vm.MethodTable]uint32
	next uint32
}

// NewPeerCache builds an empty cache stamped with the VM's current
// type-registry generation.
func NewPeerCache(gen uint64) *PeerCache {
	return &PeerCache{Epoch: 1, gen: gen, ids: make(map[*vm.MethodTable]uint32), next: 1}
}

// Sync flushes the cache when the type-registry generation has moved
// since the ids were assigned (a cached *MethodTable may have been
// unregistered; its pointer could even be reused). Returns true when
// it flushed, which advances the epoch so the receiver's mirror
// self-invalidates on the next stream.
func (c *PeerCache) Sync(gen uint64) bool {
	if gen == c.gen {
		return false
	}
	c.gen = gen
	c.Epoch++
	c.ids = make(map[*vm.MethodTable]uint32)
	c.next = 1
	return true
}

// Entries reports how many types the cache currently holds (tests).
func (c *PeerCache) Entries() int { return len(c.ids) }

func (c *PeerCache) assign(mt *vm.MethodTable) uint32 {
	id := c.next
	c.next++
	c.ids[mt] = id
	return id
}

// TableMirror is the receiver side: raw type entries keyed by the
// sender's cache ids, valid for one sender epoch. Each entry keeps its
// wire bytes and the type they last resolved to, stamped with the
// receiving VM's type-registry generation: a table reference hit then
// parses nothing, and receiver-side registry churn (its own Load
// rollback) re-resolves the entry instead of leaving a stale
// *MethodTable in the mirror.
type TableMirror struct {
	Epoch   uint32
	entries map[uint32]mirrorEntry
}

type mirrorEntry struct {
	raw []byte
	wt  wireType
	v   *vm.VM // wt resolved against v at type generation gen
	gen uint64
}

// NewTableMirror builds an empty mirror.
func NewTableMirror() *TableMirror {
	return &TableMirror{entries: make(map[uint32]mirrorEntry)}
}

// Entries reports how many raw entries the mirror holds (tests).
func (m *TableMirror) Entries() int { return len(m.entries) }

// sync adopts the sender epoch, dropping everything held under a
// different one, parsed types included.
func (m *TableMirror) sync(epoch uint32) {
	if m.Epoch != epoch {
		m.Epoch = epoch
		m.entries = make(map[uint32]mirrorEntry)
	}
}

func (m *TableMirror) install(id uint32, raw []byte) { m.entries[id] = mirrorEntry{raw: raw} }

// resolve returns entry id resolved against v, parsing it only on its
// first use since v's type registry last moved. ok is false when the
// mirror has no such entry.
func (m *TableMirror) resolve(v *vm.VM, id uint32) (wt wireType, ok bool, err error) {
	e, ok := m.entries[id]
	if !ok {
		return wireType{}, false, nil
	}
	if e.v != v || e.gen != v.TypeGen() {
		if e.wt, err = parseEntry(v, e.raw); err != nil {
			return wireType{}, true, err
		}
		e.v, e.gen = v, v.TypeGen()
		m.entries[id] = e
	}
	return e.wt, true, nil
}

// TTCacheStats counts type-table cache activity; the engine registers
// it as the "serial.ttcache" metrics group. All fields are bumped
// atomically (uint64 so the obs registry flattens them).
type TTCacheStats struct {
	Hits       uint64 // table sections sent as cache references
	Misses     uint64 // full table sections sent (first sight per epoch)
	Nacks      uint64 // receiver cache misses answered with a TableBlob
	Resets     uint64 // sender cache flushes (type registry churn)
	TableBytes uint64 // type-entry bytes actually transmitted
}

// Snapshot returns a race-safe copy of the counters.
func (s *TTCacheStats) Snapshot() TTCacheStats {
	return TTCacheStats{
		Hits:       atomic.LoadUint64(&s.Hits),
		Misses:     atomic.LoadUint64(&s.Misses),
		Nacks:      atomic.LoadUint64(&s.Nacks),
		Resets:     atomic.LoadUint64(&s.Resets),
		TableBytes: atomic.LoadUint64(&s.TableBytes),
	}
}
