package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"motor/internal/mp"
	"motor/internal/mp/adi"
	"motor/internal/vm"
)

// A rendezvous send on shm lends its source array to the receiver:
// its one RTS frame references the sender's arena, and the receiver
// copies it out only when a receive matches it. These tests hold that
// window open across every kind of collection the sender can run.

const lentElems = 32 << 10 // 128 KiB of int32: rendezvous at the default eager limit

func lentPattern(i, salt int) int32 { return int32(uint32(i)*2654435761 + uint32(salt)) }

// TestStressLentSourceUnderCollection posts a 128 KiB send from a young
// or a promoted elder array, whose RTS lends it from Isend on. The
// receiver lets the RTS park unexpected and posts no receive while the
// sender scavenges, collects fully, compacts and (in the grow cases)
// grows its arena; only then does its Irecv match and copy out. After every step both heaps pass CheckInvariants and the source
// is bit-exact and in place; an arena-growing allocation must leave the
// source's bytes at the same address, and the received payload must be
// intact too. The source shares the arena the copy-out reads, so the
// sender reusing it right after its Wait returns is a data race under
// -race unless the send completes strictly after the copy-out.
func TestStressLentSourceUnderCollection(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, elder := range []bool{false, true} {
			for _, grow := range []bool{false, true} {
				name := fmt.Sprintf("gcworkers=%d/elder=%v/grow=%v", workers, elder, grow)
				t.Run(name, func(t *testing.T) { lentUnderCollection(t, workers, elder, grow) })
			}
		}
	}
}

// balanced is a rank's own final check, run once its traffic is done:
// no pin left, nothing outstanding, and an intact heap.
func balanced(r *rank) error {
	r.th.CollectYoung() // drops conditional pins whose request completed
	h := r.v.Heap
	st := h.Stats.Snapshot()
	if st.Pins != st.Unpins || h.CondPinCount() != 0 {
		return fmt.Errorf("rank %d: pins %d/%d, %d conditional pins left",
			r.e.Comm.Rank(), st.Pins, st.Unpins, h.CondPinCount())
	}
	if n := r.e.World.Dev.Outstanding(); n != 0 || r.e.PendingRequests() != 0 {
		return fmt.Errorf("rank %d: %d device requests, %d engine requests outstanding",
			r.e.Comm.Rank(), n, r.e.PendingRequests())
	}
	return h.CheckInvariants()
}

func lentUnderCollection(t *testing.T, workers int, elder, grow bool) {
	const tag = 5
	hc := vm.HeapConfig{YoungSize: 512 << 10, InitialElder: 2 << 20, ArenaMax: 64 << 20, GCWorkers: workers}
	var heaps [2]*vm.Heap
	parked, copyOut, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	check := func(step string) error {
		for i, h := range heaps {
			if err := h.CheckInvariants(); err != nil {
				return fmt.Errorf("after %s: rank %d heap: %w", step, i, err)
			}
		}
		return nil
	}
	runRanksHeap(t, 2, hc, nil, func(r *rank) error {
		h := r.v.Heap
		heaps[r.e.Comm.Rank()] = h
		if r.e.Comm.Rank() == 1 {
			dst, err := h.AllocArray(r.v.ArrayType(vm.KindInt32, nil, 1), lentElems)
			if err != nil {
				return err
			}
			defer r.th.VM().Protect(&dst)()
			// Park the lent RTS on the unexpected queue and post nothing
			// until copyOut: Irecv then matches it and copies it out.
			for {
				ok, _, err := r.e.Comm.Iprobe(0, tag)
				if err != nil {
					return err
				}
				if ok {
					break
				}
			}
			parked <- struct{}{}
			<-copyOut
			id, err := r.e.Irecv(r.th, dst, 0, tag)
			if err != nil {
				return err
			}
			if _, err := r.e.Wait(r.th, id); err != nil {
				return err
			}
			for i, v := range h.Int32Slice(dst) {
				if v != lentPattern(i, 0) {
					return fmt.Errorf("received element %d = %d, want %d", i, v, lentPattern(i, 0))
				}
			}
			<-done
			return balanced(r)
		}

		// Rank 0: a filler promoted just below the source (roots are
		// forwarded in frame order) and then dropped, so a compaction that
		// ignored an unpinned elder source would slide it down.
		filler, err := h.AllocArray(r.v.ArrayType(vm.KindInt32, nil, 1), 16<<10)
		if err != nil {
			return err
		}
		vals := make([]int32, lentElems)
		for i := range vals {
			vals[i] = lentPattern(i, 0)
		}
		src, err := h.NewInt32Array(vals)
		if err != nil {
			return err
		}
		defer r.th.VM().Protect(&filler, &src)()
		if elder {
			r.th.CollectYoung()
			if h.IsYoung(src) {
				return fmt.Errorf("source not promoted")
			}
		}
		filler = vm.NullRef
		id, err := r.e.Isend(r.th, src, 1, tag)
		if err != nil {
			return err
		}
		<-parked
		dev := r.e.World.Dev
		if dev.StatsSnapshot().BytesSent < 4*lentElems {
			return fmt.Errorf("the RTS did not lend the source")
		}
		type step struct {
			name string
			run  func() error
		}
		steps := []step{
			{"CollectYoung", func() error { r.th.CollectYoung(); return nil }},
			{"CollectFull", func() error { r.th.CollectFull(); return nil }},
			{"CollectCompact", func() error { r.th.CollectCompact(); return nil }},
		}
		if grow {
			steps = append(steps, step{"an arena-growing allocation", func() error {
				before := &h.DataBytes(src)[0]
				arena, _, _ := h.MemUse()
				if _, err := h.AllocArray(r.v.ArrayType(vm.KindInt32, nil, 1), int(arena)); err != nil {
					return err
				}
				if grown, _, _ := h.MemUse(); grown <= arena {
					return fmt.Errorf("the arena did not grow")
				}
				if &h.DataBytes(src)[0] != before {
					return fmt.Errorf("the lent source's bytes moved")
				}
				return nil
			}})
		}
		at := src
		for _, s := range steps {
			if err := s.run(); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			if err := check(s.name); err != nil {
				return err
			}
			if src != at {
				return fmt.Errorf("after %s: lent source moved from %#x to %#x", s.name, at, src)
			}
			for i, v := range h.Int32Slice(src) {
				if v != vals[i] {
					return fmt.Errorf("after %s: source element %d = %d, want %d", s.name, i, v, vals[i])
				}
			}
			if dev.Outstanding() != 1 {
				return fmt.Errorf("after %s: the lent send completed early", s.name)
			}
		}
		// The copy-out now runs in rank 1's Irecv while this rank waits
		// and then reuses the source at once.
		close(copyOut)
		if _, err := r.e.Wait(r.th, id); err != nil {
			return err
		}
		data := h.Int32Slice(src)
		for i := range data {
			data[i] = lentPattern(i, 1)
		}
		r.th.CollectFull()
		if h.Pinned(src) {
			return fmt.Errorf("source still pinned after its send completed")
		}
		close(done)
		return balanced(r)
	})
}

// TestStressCancelRacesLentClaim: rank 0 cancels a lent 128 KiB send
// whose RTS waits unexpected at rank 1 while rank 1's Irecv claims it.
// Exactly one wins: either the payload lands and the send succeeds, or
// the send is cancelled and the receive matches the next message, a
// second send of other contents. Rounds put the cancel first, the
// receive first, or race them from one signal, so both outcomes occur.
// Afterwards both ranks' pins balance and nothing is outstanding.
func TestStressCancelRacesLentClaim(t *testing.T) {
	const tag, rounds = 9, 24
	hc := vm.HeapConfig{YoungSize: 512 << 10, InitialElder: 2 << 20, ArenaMax: 64 << 20, GCWorkers: 2}
	type step struct{ parked, first, start chan struct{} }
	steps := make([]step, rounds)
	for i := range steps {
		steps[i] = step{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	}
	var cancelled, gotNext [rounds]bool
	runRanksHeap(t, 2, hc, nil, func(r *rank) error {
		h := r.v.Heap
		buf, err := h.AllocArray(r.v.ArrayType(vm.KindInt32, nil, 1), lentElems)
		if err != nil {
			return err
		}
		defer r.th.VM().Protect(&buf)()
		fill := func(salt int) {
			for i := 0; i < lentElems; i++ {
				h.SetElem(buf, i, uint64(uint32(lentPattern(i, salt))))
			}
		}
		holds := func(salt int) bool {
			for i, v := range h.Int32Slice(buf) {
				if v != lentPattern(i, salt) {
					return false
				}
			}
			return true
		}
		for round, s := range steps {
			order := round % 3 // 0: cancel first, 1: receive first, 2: race
			if r.e.Comm.Rank() == 0 {
				fill(2 * round)
				id, err := r.e.Isend(r.th, buf, 1, tag)
				if err != nil {
					return err
				}
				<-s.parked
				switch order {
				case 1:
					<-s.first
				case 2:
					<-s.start
				}
				if err := r.e.requests[id].req.Cancel(); err != nil {
					return err
				}
				if order == 0 {
					close(s.first)
				}
				_, err = r.e.Wait(r.th, id)
				if cancelled[round] = errors.Is(err, adi.ErrCancelled); err != nil && !cancelled[round] {
					return fmt.Errorf("round %d: send: %w", round, err)
				}
				fill(2*round + 1)
				if err := r.e.Send(r.th, buf, 1, tag); err != nil {
					return fmt.Errorf("round %d: next send: %w", round, err)
				}
				continue
			}
			for ok := false; !ok; {
				if ok, _, err = r.e.Comm.Iprobe(0, tag); err != nil {
					return err
				}
			}
			close(s.parked)
			switch order {
			case 0:
				<-s.first
			case 2:
				close(s.start)
			}
			id, err := r.e.Irecv(r.th, buf, 0, tag)
			if err != nil {
				return err
			}
			if order == 1 {
				close(s.first)
			}
			if _, err := r.e.Wait(r.th, id); err != nil {
				return fmt.Errorf("round %d: receive: %w", round, err)
			}
			if gotNext[round] = holds(2*round + 1); !gotNext[round] {
				if !holds(2 * round) {
					return fmt.Errorf("round %d: received neither message intact", round)
				}
				if _, err := r.e.Recv(r.th, buf, 0, tag); err != nil {
					return err
				}
				if !holds(2*round + 1) {
					return fmt.Errorf("round %d: the next message is corrupt", round)
				}
			}
		}
		return balanced(r)
	})
	won := 0
	for round := range steps {
		if cancelled[round] != gotNext[round] {
			t.Fatalf("round %d: send cancelled %v, but the receive got the next message %v",
				round, cancelled[round], gotNext[round])
		}
		if cancelled[round] {
			won++
		}
	}
	if won == 0 || won == rounds {
		t.Fatalf("the cancel won %d of %d rounds: one outcome never occurred", won, rounds)
	}
	t.Logf("the cancel won %d of %d rounds", won, rounds)
}

// TestStressSharedCopyOut: a lent RTS frame is copied out in two
// halves, one by the receiver's poll and one by the sender's own wait
// (channel.Loan.Help), which writes into the receiver's heap. Blocking
// 128 KiB ping-pong, crossing Sendrecv (each rank is a receiver and a
// lender at once) and elder buffers with a sibling thread compacting
// the sending rank's heap all keep their payloads, pin balance and
// Outstanding()==0, at GOMAXPROCS 1 and 2. At 2 a ping-pong's senders
// must have helped: the mechanism runs, not only its fallback.
func TestStressSharedCopyOut(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, mode := range []string{"pingpong", "sendrecv", "elder-compact"} {
			t.Run(fmt.Sprintf("gomaxprocs=%d/%s", procs, mode), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				sharedCopyOut(t, mode, procs)
			})
		}
	}
}

func sharedCopyOut(t *testing.T, mode string, procs int) {
	const tag, rounds = 8, 32
	hc := vm.HeapConfig{YoungSize: 512 << 10, InitialElder: 2 << 20, ArenaMax: 64 << 20, GCWorkers: 2}
	var helped [2]uint64
	runRanksHeap(t, 2, hc, nil, func(r *rank) error {
		h := r.v.Heap
		me, peer := r.e.Comm.Rank(), 1-r.e.Comm.Rank()
		i32 := r.v.ArrayType(vm.KindInt32, nil, 1)
		var filler, src, dst vm.Ref
		defer r.th.VM().Protect(&filler, &src, &dst)()
		for _, a := range []struct {
			ref *vm.Ref
			n   int
		}{{&filler, 16 << 10}, {&src, lentElems}, {&dst, lentElems}} {
			ref, err := h.AllocArray(i32, a.n)
			if err != nil {
				return err
			}
			*a.ref = ref
		}
		// stopSibling ends the elder case's compactor on the sending rank.
		stopSibling := func() error { return nil }
		if mode == "elder-compact" {
			// As in the tests above: elder buffers above a dropped filler,
			// so an unpinned one slides when the sibling compacts.
			r.th.CollectYoung()
			if h.IsYoung(src) || h.IsYoung(dst) {
				return fmt.Errorf("buffers not promoted")
			}
			filler = vm.NullRef
			if me == 0 {
				before := h.Stats.Snapshot().Compactions
				stop, stopped := make(chan struct{}), make(chan struct{})
				var stopOnce sync.Once
				defer stopOnce.Do(func() { close(stop) }) // a failed round
				go func() {
					defer close(stopped)
					for {
						select {
						case <-stop:
							return
						default:
						}
						sib := r.v.StartThread("compactor") // granted at a wait's poll
						sib.CollectCompact()
						sib.End()
						runtime.Gosched()
					}
				}()
				stopSibling = func() error {
					stopOnce.Do(func() { close(stop) })
					for { // the sibling may be queued for the token
						select {
						case <-stopped:
							if h.Stats.Snapshot().Compactions == before {
								return fmt.Errorf("no compaction ran on the sending rank")
							}
							return nil
						default:
							r.th.PollGC()
							runtime.Gosched()
						}
					}
				}
			}
		}
		for round := 0; round < rounds; round++ {
			for i := 0; i < lentElems; i++ {
				h.SetElem(src, i, uint64(uint32(lentPattern(i, 2*round+me))))
			}
			var err error
			switch {
			case mode == "sendrecv":
				_, err = r.e.Sendrecv(r.th, src, peer, tag, dst, peer, tag)
			case me == 0:
				if err = r.e.Send(r.th, src, peer, tag); err == nil {
					_, err = r.e.Recv(r.th, dst, peer, tag)
				}
			default:
				if _, err = r.e.Recv(r.th, dst, peer, tag); err == nil {
					err = r.e.Send(r.th, src, peer, tag)
				}
			}
			if err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			for i, v := range h.Int32Slice(dst) {
				if w := lentPattern(i, 2*round+peer); v != w {
					return fmt.Errorf("round %d: received element %d = %d, want %d", round, i, v, w)
				}
			}
		}
		if err := stopSibling(); err != nil {
			return err
		}
		helped[me] = r.e.World.Dev.StatsSnapshot().HalvesHelped
		return balanced(r)
	})
	msgs := 2 * rounds
	t.Logf("halves helped per message: %.2f (%d + %d of %d)",
		float64(helped[0]+helped[1])/float64(msgs), helped[0], helped[1], msgs)
	// Crossing Sendrecv rarely leaves a half to help with: each rank is
	// busy copying the other's DATA while its own is copied out.
	if procs > 1 && mode != "sendrecv" && helped[0]+helped[1] == 0 {
		t.Fatalf("no sender helped with its copy-out in %d messages", msgs)
	}
}

// TestStressElderRecvUnderCompaction is the receive twin: an elder
// destination posted by Recv or by Irecv, and a sibling thread on the
// receiving rank compacting the elder space while the receive is
// pending. The transport writes through offsets derived when the
// receive was posted, so the payload must land in the object, and the
// object must still be where those offsets say.
func TestStressElderRecvUnderCompaction(t *testing.T) {
	for _, irecv := range []bool{false, true} {
		t.Run(fmt.Sprintf("irecv=%v", irecv), func(t *testing.T) { elderRecvUnderCompaction(t, irecv) })
	}
}

func elderRecvUnderCompaction(t *testing.T, irecv bool) {
	const tag, n = 6, 1 << 10
	hc := vm.HeapConfig{YoungSize: 512 << 10, InitialElder: 2 << 20, ArenaMax: 64 << 20, GCWorkers: 2}
	compacted := make(chan struct{})
	runRanksHeap(t, 2, hc, nil, func(r *rank) error {
		h := r.v.Heap
		i32 := r.v.ArrayType(vm.KindInt32, nil, 1)
		if r.e.Comm.Rank() == 0 {
			<-compacted
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = lentPattern(i, 2)
			}
			src, err := h.NewInt32Array(vals)
			if err != nil {
				return err
			}
			defer r.th.VM().Protect(&src)()
			return r.e.Send(r.th, src, 1, tag)
		}

		// As on the send side: a filler promoted just below the destination
		// and then dropped, so an unpinned destination slides down. A
		// witness above a second dropped gap moves either way, so the
		// compaction always has work to do.
		var filler, dst, gap, witness vm.Ref
		defer r.th.VM().Protect(&filler, &dst, &gap, &witness)()
		for _, a := range []struct {
			ref *vm.Ref
			n   int
		}{{&filler, 16 << 10}, {&dst, n}, {&gap, 16 << 10}, {&witness, n}} {
			ref, err := h.AllocArray(i32, a.n)
			if err != nil {
				return err
			}
			*a.ref = ref
		}
		r.th.CollectYoung()
		if h.IsYoung(dst) || h.IsYoung(witness) {
			return fmt.Errorf("destination not promoted")
		}
		filler, gap = vm.NullRef, vm.NullRef
		before := h.Stats.Snapshot().Compactions
		dev := r.e.World.Dev
		stop := make(chan struct{}) // a failure before the receive is posted
		defer close(stop)
		go func() {
			defer close(compacted)
			for dev.Outstanding() == 0 { // the receive is posted
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			sib := r.v.StartThread("compactor") // granted at the wait's next poll
			sib.CollectCompact()
			sib.End()
		}()
		if irecv {
			id, err := r.e.Irecv(r.th, dst, 0, tag)
			if err != nil {
				return err
			}
			if _, err := r.e.Wait(r.th, id); err != nil {
				return err
			}
		} else if _, err := r.e.Recv(r.th, dst, 0, tag); err != nil {
			return err
		}
		if h.Stats.Snapshot().Compactions == before {
			return fmt.Errorf("no compaction ran while the receive was pending")
		}
		for i, v := range h.Int32Slice(dst) {
			if v != lentPattern(i, 2) {
				return fmt.Errorf("received element %d = %d, want %d", i, v, lentPattern(i, 2))
			}
		}
		if h.Pinned(dst) {
			return fmt.Errorf("destination still pinned after its receive completed")
		}
		st := h.Stats.Snapshot()
		if st.Pins != st.Unpins {
			return fmt.Errorf("pins %d, unpins %d", st.Pins, st.Unpins)
		}
		if n := dev.Outstanding(); n != 0 || r.e.PendingRequests() != 0 {
			return fmt.Errorf("%d device requests, %d engine requests outstanding", n, r.e.PendingRequests())
		}
		return h.CheckInvariants()
	})
}

// collStress is one collective under TestStressElderCollectiveUnderCompaction:
// run is one rank's call, and want is element i of rank 1's n-element
// destination afterwards. Rank r's source holds collVal(r, i).
type collStress struct {
	name, algo string
	run        func(r *rank, src, dst vm.Ref) error
	want       func(i, n int) int32
}

func collVal(rank, i int) int32 { return lentPattern(i, 3+rank) }

var collStressOps = []collStress{
	{"Bcast", "", func(r *rank, src, dst vm.Ref) error {
		if r.e.Comm.Rank() == 0 {
			return r.e.Bcast(r.th, src, 0)
		}
		return r.e.Bcast(r.th, dst, 0)
	}, func(i, n int) int32 { return collVal(0, i) }},
	{"Allreduce=recdbl", "allreduce=recdbl", collAllreduce, collSum},
	{"Allreduce=ring", "allreduce=ring", collAllreduce, collSum},
	{"Alltoall", "", func(r *rank, src, dst vm.Ref) error {
		return r.e.Alltoall(r.th, src, dst)
	}, func(i, n int) int32 { return collVal(2*i/n, n/2+i%(n/2)) }},
	{"Sendrecv", "", func(r *rank, src, dst vm.Ref) error {
		peer := 1 - r.e.Comm.Rank()
		_, err := r.e.Sendrecv(r.th, src, peer, 7, dst, peer, 7)
		return err
	}, func(i, n int) int32 { return collVal(0, i) }},
}

func collAllreduce(r *rank, src, dst vm.Ref) error {
	return r.e.Allreduce(r.th, src, dst, mp.OpSum)
}

func collSum(i, n int) int32 { return collVal(0, i) + collVal(1, i) }

// TestStressElderCollectiveUnderCompaction is the collective twin of
// the receive test above: rank 1 posts a collective and a sibling
// thread on it moves memory while the collective waits. mp's collectives
// take a []byte resolved once, before the wait, so in the compact
// variant an elder destination must not slide, and in the grow variant a
// young (pinned) one must keep its address while a sibling allocation
// grows the arena under the slice, and then receive its payload.
func TestStressElderCollectiveUnderCompaction(t *testing.T) {
	for _, grow := range []bool{false, true} {
		variant := "compact"
		if grow {
			variant = "grow"
		}
		for _, op := range collStressOps {
			t.Run(variant+"/"+op.name, func(t *testing.T) { collectiveUnderMove(t, op, grow) })
		}
	}
}

func collectiveUnderMove(t *testing.T, op collStress, grow bool) {
	const n = 1 << 10
	hc := vm.HeapConfig{YoungSize: 512 << 10, InitialElder: 2 << 20, ArenaMax: 64 << 20, GCWorkers: 2}
	moved := make(chan struct{})
	runRanksHeap(t, 2, hc, nil, func(r *rank) error {
		h := r.v.Heap
		i32 := r.v.ArrayType(vm.KindInt32, nil, 1)
		me := r.e.Comm.Rank()
		if op.algo != "" {
			if err := r.e.Comm.SetCollAlgo(op.algo); err != nil {
				return err
			}
		}
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = collVal(me, i)
		}
		if me == 0 {
			<-moved
			src, err := h.NewInt32Array(vals)
			if err != nil {
				return err
			}
			dst, err := h.AllocArray(i32, n)
			if err != nil {
				return err
			}
			defer r.th.VM().Protect(&src, &dst)()
			return op.run(r, src, dst)
		}

		// The receive test's layout with a source below the destination:
		// a dropped filler below each, so unpinned elder buffers slide
		// down, and a witness above a third that moves either way.
		var filler, src, gap, dst, gap2, witness vm.Ref
		defer r.th.VM().Protect(&filler, &src, &gap, &dst, &gap2, &witness)()
		for _, a := range []struct {
			ref *vm.Ref
			n   int
		}{{&filler, 16 << 10}, {&src, n}, {&gap, 16 << 10}, {&dst, n}, {&gap2, 16 << 10}, {&witness, n}} {
			ref, err := h.AllocArray(i32, a.n)
			if err != nil {
				return err
			}
			*a.ref = ref
		}
		for i, v := range vals {
			h.SetElem(src, i, uint64(uint32(v)))
		}
		if !grow {
			r.th.CollectYoung()
			if h.IsYoung(src) || h.IsYoung(dst) || h.IsYoung(witness) {
				return fmt.Errorf("buffers not promoted")
			}
		}
		filler, gap, gap2 = vm.NullRef, vm.NullRef, vm.NullRef
		before := h.Stats.Snapshot().Compactions
		dev := r.e.World.Dev
		var sibErr error
		stop := make(chan struct{}) // a failure before the collective posts
		defer close(stop)
		go func() {
			defer close(moved)
			for dev.Outstanding() == 0 {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			sib := r.v.StartThread("mover") // granted at the collective's next poll
			defer sib.End()
			if !grow {
				sib.CollectCompact()
				return
			}
			at := &h.DataBytes(dst)[0]
			arena, _, _ := h.MemUse()
			if _, err := h.AllocArray(i32, int(arena)); err != nil {
				sibErr = err
			} else if grown, _, _ := h.MemUse(); grown <= arena {
				sibErr = fmt.Errorf("the arena did not grow")
			} else if &h.DataBytes(dst)[0] != at {
				sibErr = fmt.Errorf("the destination's bytes moved")
			}
		}()
		if err := op.run(r, src, dst); err != nil {
			return err
		}
		<-moved
		if sibErr != nil {
			return sibErr
		}
		if !grow && h.Stats.Snapshot().Compactions == before {
			return fmt.Errorf("no compaction ran while the collective was pending")
		}
		for i, v := range h.Int32Slice(dst) {
			if w := op.want(i, n); v != w {
				return fmt.Errorf("received element %d = %d, want %d", i, v, w)
			}
		}
		for i, v := range h.Int32Slice(src) {
			if v != vals[i] {
				return fmt.Errorf("source element %d = %d, want %d", i, v, vals[i])
			}
		}
		if h.Pinned(src) || h.Pinned(dst) {
			return fmt.Errorf("buffers still pinned after the collective returned")
		}
		st := h.Stats.Snapshot()
		if st.Pins != st.Unpins {
			return fmt.Errorf("pins %d, unpins %d", st.Pins, st.Unpins)
		}
		if n := dev.Outstanding(); n != 0 || r.e.PendingRequests() != 0 {
			return fmt.Errorf("%d device requests, %d engine requests outstanding", n, r.e.PendingRequests())
		}
		return h.CheckInvariants()
	})
}
