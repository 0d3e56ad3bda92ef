package core

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"unsafe"

	"motor/internal/mp"
	"motor/internal/mp/adi"
	"motor/internal/vm"
)

// --- oversize regression ------------------------------------------------------
//
// v1 ORecv allocated a buffer of whatever the 8-byte size prefix
// claimed — an untrusted wire value. The streaming protocol caps every
// claim (first chunk, accumulated chunks, table blobs, broadcast
// headers) against MaxOOMessage BEFORE any allocation.

func TestORecvOversizeRejected(t *testing.T) {
	// The whole stream fits one chunk whose size exceeds the receiver's
	// cap: its one record, a 16 KiB array, is larger than any chunk
	// target, so the first probe claim is rejected before the buffer is
	// sized and no chunk is received.
	runRanks(t, 2, []Option{WithMaxOOMessage(4 << 10)}, func(r *rank) error {
		if r.e.Comm.Rank() == 0 {
			arr, err := r.v.Heap.NewInt32Array(make([]int32, 4096)) // 16 KiB representation
			if err != nil {
				return err
			}
			if err := r.e.OSend(r.th, arr, 1, 0); err != nil {
				return err
			}
			// Sync: don't tear the world down before rank 1 probes.
			buf, err := r.v.Heap.NewUint8Array(make([]byte, 1))
			if err != nil {
				return err
			}
			_, err = r.e.Recv(r.th, buf, 1, 99)
			return err
		}
		_, _, err := r.e.ORecv(r.th, 0, 0)
		if !errors.Is(err, ErrOversize) {
			return fmt.Errorf("ORecv err = %v, want ErrOversize", err)
		}
		if n := r.e.Stats.OOChunksRecvd; n != 0 {
			return fmt.Errorf("%d chunks received, want the first claim rejected", n)
		}
		if out := r.e.BufferOutstanding(); out != 0 {
			return fmt.Errorf("%d pooled buffers leaked past the oversize error", out)
		}
		buf, err := r.v.Heap.NewUint8Array(make([]byte, 1))
		if err != nil {
			return err
		}
		return r.e.Send(r.th, buf, 0, 99)
	})
}

func TestORecvOversizeAccumulated(t *testing.T) {
	// Each chunk is under the cap but their sum is not: the accumulation
	// check fails the stream partway through.
	runRanks(t, 2, []Option{WithMaxOOMessage(3 << 10), WithOOChunk(1 << 10)}, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			head := buildLinkedList(r.v, mt, 8, 256) // ~8 KiB across ~8 chunks
			if err := r.e.OSend(r.th, head, 1, 0); err != nil {
				return err
			}
			buf, _ := r.v.Heap.NewUint8Array(make([]byte, 1))
			_, err := r.e.Recv(r.th, buf, 1, 99)
			return err
		}
		_, _, err := r.e.ORecv(r.th, 0, 0)
		if !errors.Is(err, ErrOversize) {
			return fmt.Errorf("ORecv err = %v, want ErrOversize", err)
		}
		if out := r.e.BufferOutstanding(); out != 0 {
			return fmt.Errorf("%d pooled buffers leaked", out)
		}
		buf, _ := r.v.Heap.NewUint8Array(make([]byte, 1))
		return r.e.Send(r.th, buf, 0, 99)
	})
}

// lyingBuf is a buffer that claims n bytes while one inaccessible page
// backs it — the shape of a malicious or corrupted size field on the
// wire. A device that touched its bytes would fault.
func lyingBuf(t *testing.T, n int) adi.Buffer {
	page, err := syscall.Mmap(-1, 0, 4096, syscall.PROT_NONE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(page) })
	return unsafe.Slice(&page[0], n)
}

func TestORecvForgedSizeNoAllocation(t *testing.T) {
	// A forged rendezvous claim of 1 TiB: the receiver must reject it
	// from the probe without attempting the allocation (the test would
	// OOM otherwise) even under the default 1 GiB cap.
	forged := lyingBuf(t, 1<<40)
	runRanks(t, 2, nil, func(r *rank) error {
		if r.e.Comm.Rank() == 0 {
			if _, err := r.e.Comm.IsendOOBuffer(forged, 1, mp.OOSpaceData, 0); err != nil {
				return err
			}
			buf, _ := r.v.Heap.NewUint8Array(make([]byte, 1))
			_, err := r.e.Recv(r.th, buf, 1, 99)
			return err
		}
		_, _, err := r.e.ORecv(r.th, 0, 0)
		if !errors.Is(err, ErrOversize) {
			return fmt.Errorf("forged size: err = %v, want ErrOversize", err)
		}
		buf, _ := r.v.Heap.NewUint8Array(make([]byte, 1))
		return r.e.Send(r.th, buf, 0, 99)
	})
}

func TestOBcastOversizeRejected(t *testing.T) {
	runRanks(t, 2, []Option{WithMaxOOMessage(2 << 10), WithOOChunk(512)}, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			head := buildLinkedList(r.v, mt, 8, 256)
			// The root streams to completion (chunks are eager-sized, so
			// a bailed receiver cannot strand it in a rendezvous).
			if _, err := r.e.OBcast(r.th, head, 0); err != nil {
				return err
			}
			return nil
		}
		_, err := r.e.OBcast(r.th, vm.NullRef, 0)
		if !errors.Is(err, ErrOversize) {
			return fmt.Errorf("OBcast err = %v, want ErrOversize", err)
		}
		if out := r.e.BufferOutstanding(); out != 0 {
			return fmt.Errorf("%d pooled buffers leaked", out)
		}
		return nil
	})
}

// --- chunked pipeline ---------------------------------------------------------

func TestOSendORecvManyChunks(t *testing.T) {
	// A small chunk target forces a long pipeline; the counters prove
	// the stream actually chunked.
	runRanks(t, 2, []Option{WithOOChunk(1 << 10)}, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			head := buildLinkedList(r.v, mt, 40, 64) // ~14 KiB
			if err := r.e.OSend(r.th, head, 1, 0); err != nil {
				return err
			}
			if r.e.Stats.OOChunksSent < 4 {
				return fmt.Errorf("OOChunksSent %d, want >= 4", r.e.Stats.OOChunksSent)
			}
			if out := r.e.BufferOutstanding(); out != 0 {
				return fmt.Errorf("%d pooled buffers outstanding after OSend", out)
			}
			return nil
		}
		head, _, err := r.e.ORecv(r.th, 0, 0)
		if err != nil {
			return err
		}
		if r.e.Stats.OOChunksRecvd < 4 {
			return fmt.Errorf("OOChunksRecvd %d, want >= 4", r.e.Stats.OOChunksRecvd)
		}
		if out := r.e.BufferOutstanding(); out != 0 {
			return fmt.Errorf("%d pooled buffers outstanding after ORecv", out)
		}
		return verifyList(r.v.Heap, mt, head, 40, 64, true)
	})
}

// --- type-table cache ---------------------------------------------------------

func TestTTCacheSecondSendSendsNoTables(t *testing.T) {
	// After the first same-shape message the cache serves every table
	// section as a 5-byte reference: the hit counter moves, the
	// table-byte counter does not — zero type-table bytes on the wire.
	runRanks(t, 2, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			head := buildLinkedList(r.v, mt, 4, 8)
			if err := r.e.OSend(r.th, head, 1, 0); err != nil {
				return err
			}
			first := r.e.TTCache.Snapshot()
			if first.Misses == 0 || first.Hits != 0 || first.TableBytes == 0 {
				return fmt.Errorf("first send: %+v", first)
			}
			// Garbage collections must not disturb the cache: the ids
			// key method tables, not heap refs.
			r.th.CollectYoung()
			r.th.CollectFull()
			head2 := buildLinkedList(r.v, mt, 4, 8)
			if err := r.e.OSend(r.th, head2, 1, 1); err != nil {
				return err
			}
			second := r.e.TTCache.Snapshot()
			if second.Hits == 0 {
				return fmt.Errorf("second send: no cache hits: %+v", second)
			}
			if second.Misses != first.Misses || second.TableBytes != first.TableBytes {
				return fmt.Errorf("second send shipped tables again: %+v -> %+v", first, second)
			}
			return nil
		}
		for tag := 0; tag < 2; tag++ {
			head, _, err := r.e.ORecv(r.th, 0, tag)
			if err != nil {
				return err
			}
			if err := verifyList(r.v.Heap, mt, head, 4, 8, true); err != nil {
				return fmt.Errorf("tag %d: %w", tag, err)
			}
			// The receiver collects between messages too; the mirror
			// holds raw bytes, not refs, and must survive.
			r.th.CollectYoung()
		}
		if r.e.mirror(0).Entries() == 0 {
			return errors.New("receiver mirror empty after cached exchange")
		}
		return nil
	})
}

func TestTTCacheNackRecovery(t *testing.T) {
	// Reordered receive: the stream full of table references arrives at
	// a mirror that never saw the full tables (its stream is still
	// queued). The receiver NACKs, the sender answers with the blob,
	// and both messages land intact.
	runRanks(t, 2, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			a := buildLinkedList(r.v, mt, 2, 4)
			pop := r.th.VM().Protect(&a)
			if err := r.e.OSend(r.th, a, 1, 10); err != nil {
				return err
			}
			pop()
			b := buildLinkedList(r.v, mt, 5, 4)
			pop2 := r.th.VM().Protect(&b)
			defer pop2()
			if err := r.e.OSend(r.th, b, 1, 20); err != nil {
				return err
			}
			if n := r.e.TTCache.Snapshot().Nacks; n != 1 {
				return fmt.Errorf("sender Nacks = %d, want 1", n)
			}
			// Third send: the mirror is warm now, so the ACK path runs.
			c := buildLinkedList(r.v, mt, 3, 4)
			pop3 := r.th.VM().Protect(&c)
			defer pop3()
			if err := r.e.OSend(r.th, c, 1, 30); err != nil {
				return err
			}
			if n := r.e.TTCache.Snapshot().Nacks; n != 1 {
				return fmt.Errorf("warm-mirror send NACKed: Nacks = %d", n)
			}
			return nil
		}
		got20, _, err := r.e.ORecv(r.th, 0, 20) // reordered: references first
		if err != nil {
			return err
		}
		pop := r.th.VM().Protect(&got20)
		got10, _, err := r.e.ORecv(r.th, 0, 10)
		if err != nil {
			return err
		}
		pop()
		if err := verifyList(r.v.Heap, mt, got20, 5, 4, true); err != nil {
			return fmt.Errorf("tag 20: %w", err)
		}
		if err := verifyList(r.v.Heap, mt, got10, 2, 4, true); err != nil {
			return fmt.Errorf("tag 10: %w", err)
		}
		got30, _, err := r.e.ORecv(r.th, 0, 30)
		if err != nil {
			return err
		}
		return verifyList(r.v.Heap, mt, got30, 3, 4, true)
	})
}

func TestTTCacheInvalidatedOnRegistryRollback(t *testing.T) {
	// A module load rollback moves the type-registry generation: the
	// sender cache must flush (epoch bump), the next stream ships full
	// tables again, and the receiver's mirror adopts the new epoch.
	runRanks(t, 2, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			head := buildLinkedList(r.v, mt, 3, 4)
			pop := r.th.VM().Protect(&head)
			defer pop()
			if err := r.e.OSend(r.th, head, 1, 0); err != nil {
				return err
			}
			before := r.e.TTCache.Snapshot()

			// Simulate a failed Rank.Load: declare, then roll back.
			mark := r.v.Mark()
			if _, err := r.v.DeclareClass("Doomed"); err != nil {
				return err
			}
			gen := r.v.TypeGen()
			r.v.RollbackRegistry(mark)
			if r.v.TypeGen() == gen {
				return errors.New("rollback did not move TypeGen")
			}

			if err := r.e.OSend(r.th, head, 1, 1); err != nil {
				return err
			}
			after := r.e.TTCache.Snapshot()
			if after.Resets == before.Resets {
				return fmt.Errorf("cache not reset: %+v -> %+v", before, after)
			}
			if after.Misses <= before.Misses {
				return fmt.Errorf("post-churn send did not ship full tables: %+v -> %+v", before, after)
			}
			return nil
		}
		for tag := 0; tag < 2; tag++ {
			head, _, err := r.e.ORecv(r.th, 0, tag)
			if err != nil {
				return err
			}
			if err := verifyList(r.v.Heap, mt, head, 3, 4, true); err != nil {
				return fmt.Errorf("tag %d: %w", tag, err)
			}
		}
		return nil
	})
}

func TestTTCacheDifferentLoadOrdersInterop(t *testing.T) {
	// The two sides registered their classes in different orders (type
	// indices differ); entries resolve by name, so cached exchanges in
	// both directions still work.
	runRanks(t, 2, nil, func(r *rank) error {
		var mt *vm.MethodTable
		if r.e.Comm.Rank() == 0 {
			mt = registerLinkedArray(r.v)
			r.v.MustNewClass("Padding", nil, []vm.FieldSpec{{Name: "x", Kind: vm.KindInt64}})
		} else {
			r.v.MustNewClass("Padding", nil, []vm.FieldSpec{{Name: "x", Kind: vm.KindInt64}})
			r.v.MustNewClass("Padding2", nil, []vm.FieldSpec{{Name: "y", Kind: vm.KindInt32}})
			mt = registerLinkedArray(r.v)
		}
		other := 1 - r.e.Comm.Rank()
		for round := 0; round < 2; round++ {
			if r.e.Comm.Rank() == 0 {
				head := buildLinkedList(r.v, mt, 3, 4)
				pop := r.th.VM().Protect(&head)
				if err := r.e.OSend(r.th, head, other, round); err != nil {
					return err
				}
				pop()
				got, _, err := r.e.ORecv(r.th, other, round)
				if err != nil {
					return err
				}
				if err := verifyList(r.v.Heap, mt, got, 4, 2, true); err != nil {
					return err
				}
			} else {
				got, _, err := r.e.ORecv(r.th, other, round)
				if err != nil {
					return err
				}
				pop := r.th.VM().Protect(&got)
				if err := verifyList(r.v.Heap, mt, got, 3, 4, true); err != nil {
					return err
				}
				pop()
				head := buildLinkedList(r.v, mt, 4, 2)
				pop2 := r.th.VM().Protect(&head)
				if err := r.e.OSend(r.th, head, other, round); err != nil {
					return err
				}
				pop2()
			}
		}
		// Second round ran on a warm cache in both directions.
		if hits := r.e.TTCache.Snapshot().Hits; hits == 0 {
			return errors.New("no cache hits across rounds")
		}
		return nil
	})
}
