package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"motor/internal/mp"
	"motor/internal/obs"
	"motor/internal/serial"
	"motor/internal/vm"
)

// Hazards of reusing OO writer and reader state between streams: a
// collection that moves objects between chunks, two threads in OO ops
// at once, a reader reused after a failed parse, and a collection
// after an op has given its state back.

// TestStressVisitedTableCollectBetweenChunks: with a full or compacting
// collection between every chunk, the table mode's stream is byte for
// byte the linear list's. Both come from the engine's one pooled
// writer, and each round streams a fresh list, so entries left from
// the previous stream must neither match nor be kept alive.
func TestStressVisitedTableCollectBetweenChunks(t *testing.T) {
	runRanks(t, 1, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		h := r.v.Heap
		guard := &vm.RefRoots{Refs: make([]vm.Ref, 1)}
		r.v.AddRootProvider(guard)
		defer r.v.RemoveRootProvider(guard)
		fArr, fNext := mt.FieldByName("array"), mt.FieldByName("next")
		// stream builds a fresh young list of n cells and streams it
		// with a collection after every chunk. The list is a cycle
		// whose odd cells share their payload arrays with the cell
		// before, so the writer meets the head and every shared array
		// again after a collection has moved them.
		stream := func(mode serial.VisitedMode, n int) ([]byte, error) {
			head := buildLinkedList(r.v, mt, n, 6)
			guard.Refs[0] = head
			cur := head
			for next := h.GetRef(cur, fNext); next != vm.NullRef; next = h.GetRef(cur, fNext) {
				if h.GetScalar(next, mt.FieldByName("id"))%2 == 1 {
					h.SetRef(next, fArr, h.GetRef(cur, fArr))
				}
				cur = next
			}
			h.SetRef(cur, fNext, head)
			sw := r.e.writers.take()
			sw.Reset(h, head, serial.Options{Visited: mode}, 96, nil)
			r.v.AddRootProvider(sw)
			defer r.e.dropWriter(sw)
			var out []byte
			for i := 0; !sw.Done(); i++ {
				chunk, err := sw.Next(nil)
				if err != nil {
					return nil, err
				}
				out = append(out, chunk...)
				if _, err := h.NewInt32Array(make([]int32, 256)); err != nil { // garbage ahead of the list
					return nil, err
				}
				if i%2 == 0 {
					r.th.CollectFull()
				} else {
					r.th.CollectCompact()
				}
			}
			return out, nil
		}
		for round := 0; round < 4; round++ {
			table, err := stream(serial.VisitedMap, 24+round)
			if err != nil {
				return err
			}
			linear, err := stream(serial.VisitedLinear, 24+round)
			if err != nil {
				return err
			}
			if string(linear) != string(table) {
				return fmt.Errorf("round %d: table stream differs from the linear one after collections between chunks", round)
			}
			if err := h.CheckInvariants(); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
		return nil
	})
}

// TestStressOOReaderCollectBetweenCommits is the reader's twin of
// TestStressVisitedTableCollectBetweenChunks: a cyclic graph with
// shared payloads and an object array over every cell is fed to a
// pooled reader one chunk at a time, with a scavenge, a full and a
// compacting collection after each commit, while the graph is
// partly rewired. It must decode to the graph a one-shot
// DeserializeStream of the same bytes gives, byte for byte once
// serialized again.
func TestStressOOReaderCollectBetweenCommits(t *testing.T) {
	runRanks(t, 1, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		h := r.v.Heap
		guard := &vm.RefRoots{Refs: make([]vm.Ref, 2)} // [source array, decoded root]
		r.v.AddRootProvider(guard)
		defer r.v.RemoveRootProvider(guard)
		fArr, fNext := mt.FieldByName("array"), mt.FieldByName("next")
		for round := 0; round < 4; round++ {
			n := 40 + 7*round
			head := buildLinkedList(r.v, mt, n, 64)
			guard.Refs[1] = head
			arr, err := h.AllocArray(r.v.ArrayType(vm.KindRef, mt, 1), n)
			if err != nil {
				return err
			}
			guard.Refs[0] = arr
			cur, i := guard.Refs[1], 0
			for ; ; i++ {
				h.SetElemRef(guard.Refs[0], i, cur)
				next := h.GetRef(cur, fNext)
				if next == vm.NullRef {
					break
				}
				if i%2 == 0 {
					h.SetRef(next, fArr, h.GetRef(cur, fArr))
				}
				cur = next
			}
			h.SetRef(cur, fNext, guard.Refs[1])
			target := []int{0, 200}[round%2]
			sw := serial.NewStreamWriter(h, guard.Refs[0], serial.Options{}, target, nil)
			var chunks [][]byte
			var whole []byte
			for !sw.Done() {
				chunk, err := sw.Next(nil)
				if err != nil {
					return err
				}
				chunks = append(chunks, chunk)
				whole = append(whole, chunk...)
			}
			if len(chunks) < 3 {
				return fmt.Errorf("round %d: %d chunks, want several", round, len(chunks))
			}
			oneShot, err := serial.DeserializeStream(r.v, whole)
			if err != nil {
				return err
			}
			want, err := serial.SerializeStream(h, oneShot, serial.Options{}, nil)
			if err != nil {
				return err
			}
			root, err := func() (vm.Ref, error) {
				sr := r.e.startReader(nil, 0)
				defer r.e.dropReader(sr)
				for k, chunk := range chunks {
					copy(sr.Grow(len(chunk)), chunk)
					if err := sr.Commit(len(chunk)); err != nil {
						return vm.NullRef, err
					}
					if _, err := h.NewInt32Array(make([]int32, 256)); err != nil { // garbage among the parsed objects
						return vm.NullRef, err
					}
					r.th.CollectYoung()
					r.th.CollectFull()
					r.th.CollectCompact()
					if err := h.CheckInvariants(); err != nil {
						return vm.NullRef, fmt.Errorf("round %d, chunk %d: %w", round, k, err)
					}
				}
				return sr.Finish()
			}()
			if err != nil {
				return err
			}
			got, err := serial.SerializeStream(h, root, serial.Options{}, nil)
			if err != nil {
				return err
			}
			if string(got) != string(want) {
				return fmt.Errorf("round %d: the graph read with collections between commits differs from the one-shot decoding", round)
			}
		}
		return nil
	})
}

// TestStressOOScratchTwoThreads: two threads on each rank run OSend /
// ORecv round trips at once, with a chunk target small enough that
// every stream yields between chunks, so the two threads' streams
// interleave on one engine. Each list must come back intact.
func TestStressOOScratchTwoThreads(t *testing.T) {
	const iters = 12
	lengths := [2]int{23, 5}
	runRanks(t, 2, []Option{WithOOChunk(128)}, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		peer := 1 - r.e.Comm.Rank()
		var wg sync.WaitGroup
		errs := make(chan error, len(lengths))
		for k, n := range lengths {
			wg.Add(1)
			go func(k, n int) {
				defer wg.Done()
				th := r.v.StartThread(fmt.Sprintf("oo%d", k))
				defer th.End()
				err := func() error {
					for i := 0; i < iters; i++ {
						var list vm.Ref
						release := r.v.Protect(&list)
						if r.e.Comm.Rank() == 0 {
							list = buildLinkedList(r.v, mt, n, 4+k)
							if err := r.e.OSend(th, list, peer, k); err != nil {
								release()
								return fmt.Errorf("thread %d osend %d: %w", k, i, err)
							}
						}
						got, _, err := r.e.ORecv(th, peer, k)
						if err != nil {
							release()
							return fmt.Errorf("thread %d orecv %d: %w", k, i, err)
						}
						list = got
						if err := verifyList(r.v.Heap, mt, list, n, 4+k, true); err != nil {
							release()
							return fmt.Errorf("rank %d thread %d round %d: %w", r.e.Comm.Rank(), k, i, err)
						}
						if r.e.Comm.Rank() == 1 {
							if err := r.e.OSend(th, list, peer, k); err != nil {
								release()
								return fmt.Errorf("thread %d osend %d: %w", k, i, err)
							}
						}
						release()
						th.CollectYoung()
					}
					return nil
				}()
				if err != nil {
					errs <- err
				}
			}(k, n)
		}
		r.th.Park(wg.Wait)
		close(errs)
		for err := range errs {
			return err
		}
		return r.v.Heap.CheckInvariants()
	})
}

// TestStressOOReaderReuseAfterMalformed: a stream that fails in the
// middle of its records leaves the receiver ready for the next one,
// which must decode exactly.
func TestStressOOReaderReuseAfterMalformed(t *testing.T) {
	const tag = 5
	runRanks(t, 2, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			head := buildLinkedList(r.v, mt, 9, 5)
			release := r.v.Protect(&head)
			defer release()
			valid, err := serial.SerializeStream(r.v.Heap, head, serial.Options{}, nil)
			if err != nil {
				return err
			}
			// Splice a data section holding one record of an unknown
			// type (index 0xFFFF) in front of the end section: every
			// earlier record has been allocated when the parse fails.
			end := len(valid) - 5
			bad := append([]byte(nil), valid[:end]...)
			bad = append(bad, 3, 2, 0, 0, 0, 0xFF, 0xFF) // secData, len 2, type index
			bad = append(bad, valid[end:]...)
			// A stream whose end section miscounts its records fails
			// at Finish, after the whole parse.
			miscount := append([]byte(nil), valid...)
			miscount[end+1]++
			for _, stream := range [][]byte{bad, miscount, bad} {
				req, err := r.e.Comm.IsendOO(stream, 1, mp.OOSpaceData, tag)
				if err != nil {
					return err
				}
				if _, err := r.e.await(r.th, req, obs.OpOSend); err != nil {
					return err
				}
			}
			return r.e.OSend(r.th, head, 1, tag)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := r.e.ORecv(r.th, 0, tag); !errors.Is(err, serial.ErrFormat) {
				return fmt.Errorf("malformed stream %d: err %v, want ErrFormat", i, err)
			}
		}
		head, _, err := r.e.ORecv(r.th, 0, tag)
		if err != nil {
			return err
		}
		return verifyList(r.v.Heap, mt, head, 9, 5, true)
	})
}

// TestStressOOReturnedScratchNotRooted: once an op has completed, its
// writer and reader state no longer root the objects they recorded, so
// a list dropped after the op is collected on both ranks.
func TestStressOOReturnedScratchNotRooted(t *testing.T) {
	const cells, payload = 200, 32
	runRanks(t, 2, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		h := r.v.Heap
		elderUsed := func() uint32 {
			r.th.CollectFull()
			_, _, used := h.MemUse()
			return used
		}
		base := elderUsed()
		for round := 0; round < 2; round++ {
			if r.e.Comm.Rank() == 0 {
				head := buildLinkedList(r.v, mt, cells, payload)
				if err := r.e.OSend(r.th, head, 1, round); err != nil {
					return err
				}
			} else {
				head, _, err := r.e.ORecv(r.th, 0, round)
				if err != nil {
					return err
				}
				if err := verifyList(h, mt, head, cells, payload, true); err != nil {
					return err
				}
			}
			// The list is no longer referenced: a collection must
			// free all of it (a 200-cell list is well over 30 KB).
			if used := elderUsed(); used > base+4<<10 {
				return fmt.Errorf("round %d: %d elder bytes live after the op, %d before: the op's state still roots the list", round, used, base)
			}
			if err := h.CheckInvariants(); err != nil {
				return err
			}
		}
		return nil
	})
}
