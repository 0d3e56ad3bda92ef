package core

import (
	"fmt"
	"testing"
	"time"

	"motor/internal/mp"
	"motor/internal/obs"
	"motor/internal/vm"
)

// The hand-off ring: the background progress engine is rung for a
// request its poster leaves with no driver (Isend/Irecv returning, an
// OO chunk in flight while the next is serialized) and by a waiter
// that parks — never for a blocking post, whose wait drives it.

// runHandoffRanks runs body on both ranks of an async shm world whose
// progress engines never wake on their idle timer: after its first
// pass an engine runs only when rung.
func runHandoffRanks(t *testing.T, eagerMax int, opts []Option, body func(r *rank) error) {
	t.Helper()
	worlds, err := mp.NewLocalWorlds(mp.ChannelShm, 2, eagerMax)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	vms := make([]*vm.VM, 2)
	for _, w := range worlds {
		go func(w *mp.World) {
			v := vm.New(vm.Config{Name: fmt.Sprintf("rank%d", w.Rank()),
				Heap: vm.HeapConfig{YoungSize: 256 << 10, InitialElder: 1 << 20, ArenaMax: 64 << 20}})
			vms[w.Rank()] = v
			e := Attach(v, w, append(opts, WithAsyncProgress(true))...)
			e.progress.Stop()
			e.progress = mp.StartProgress(w.Dev, mp.ProgressOptions{Gate: v.ExecRun, Lane: w.Rank(), Interval: time.Hour})
			th := v.StartThread("main")
			err := body(&rank{v: v, e: e, th: th})
			th.End()
			e.Close()
			w.Close()
			errc <- err
		}(w)
	}
	deadline := time.After(30 * time.Second)
	for range worlds {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("ranks deadlocked")
		}
	}
	closeVMs(vms)
}

// TestBlockingPingPongRingsNoEngine: a blocking round trip drives its
// own requests and rings this rank's engine only from a wait that
// outlasted the spin budget and parked: once for the park itself
// (WaitsParked) and at most once for the peer's one frame that can land
// while the parked count is up. A call within the budget never parks,
// so without load the engine is not rung at all.
func TestBlockingPingPongRingsNoEngine(t *testing.T) {
	const iters = 400
	runHandoffRanks(t, 0, nil, func(r *rank) error {
		h := r.v.Heap
		me := r.e.Comm.Rank()
		buf, err := h.NewInt32Array(make([]int32, 2))
		if err != nil {
			return err
		}
		slow := uint64(0)
		for i := 0; i < 2*iters; i++ {
			start := time.Now()
			if i%2 == me { // rank 0 sends first, rank 1 echoes
				err = r.e.Send(r.th, buf, 1-me, i/2)
			} else {
				_, err = r.e.Recv(r.th, buf, 1-me, i/2)
			}
			if err != nil {
				return err
			}
			if time.Since(start) >= spinBudget {
				slow++
			}
		}
		wakes, parked := r.e.ProgressStats().Wakes, r.e.Stats.Snapshot().WaitsParked
		if wakes > parked+slow {
			return fmt.Errorf("rank %d: %d rings for %d parked waits and %d calls over the spin budget",
				me, wakes, parked, slow)
		}
		return nil
	})
}

// TestDetachedRequestsCompleteWhileParked: an Isend/Irecv pair posted
// and left while the thread parks on something else completes with no
// wait or test on it. The receive's message is already in the shm
// ring, but nothing reads the ring until the engine is rung: the
// thread is parked outside a request wait (no peer-frame doorbell)
// and the idle timer never fires. Only the post's hand-off ring can
// start that pass.
func TestDetachedRequestsCompleteWhileParked(t *testing.T) {
	idle, sent := make(chan struct{}), make(chan struct{})
	runHandoffRanks(t, 0, nil, func(r *rank) error {
		h := r.v.Heap
		if r.e.Comm.Rank() == 1 {
			msg, err := h.NewInt32Array([]int32{7, 8})
			if err != nil {
				return err
			}
			r.th.Park(func() { <-idle })
			if err := r.e.Send(r.th, msg, 0, 1); err != nil { // eager: done at post
				return err
			}
			close(sent)
			_, err = r.e.Recv(r.th, msg, 0, 2)
			return err
		}
		// The engine's first pass must not be the one that finds the
		// message: wait until it has gone idle before rank 1 sends.
		r.th.Park(func() {
			for r.e.ProgressStats().Passes == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			close(idle)
			<-sent
		})
		rbuf, err := h.NewInt32Array(make([]int32, 2))
		if err != nil {
			return err
		}
		smsg, err := h.NewInt32Array([]int32{1, 2})
		if err != nil {
			return err
		}
		rid, err := r.e.Irecv(r.th, rbuf, 1, 1)
		if err != nil {
			return err
		}
		sid, err := r.e.Isend(r.th, smsg, 1, 2)
		if err != nil {
			return err
		}
		rreq, sreq := r.e.requests[rid].req, r.e.requests[sid].req
		done := make(chan struct{})
		rreq.OnComplete(func() { close(done) })
		r.th.Park(func() {
			select {
			case <-done:
			case <-time.After(2 * time.Second):
			}
		})
		if !rreq.Done() || !sreq.Done() {
			return fmt.Errorf("detached requests pending after the park (recv %v, send %v): %+v",
				rreq.Done(), sreq.Done(), r.e.ProgressStats())
		}
		for _, id := range []int32{rid, sid} {
			if _, err := r.e.Wait(r.th, id); err != nil {
				return err
			}
		}
		if got := h.Int32Slice(rbuf); got[0] != 7 || got[1] != 8 {
			return fmt.Errorf("received %v", got)
		}
		if st := r.e.ProgressStats(); st.Wakes == 0 || st.Timeouts != 0 {
			return fmt.Errorf("progress %+v: want rings and no idle-timer wake", st)
		}
		return nil
	})
}

// TestOOStreamChunkRungInFlight: an OO stream of rendezvous-sized
// chunks rings the sender's engine for each chunk left in flight while
// the next is serialized, and no side waits for the idle timer. A lent
// shm chunk completes when the receiver copies it out, which may come
// before its sender leaves it in flight, and such a chunk needs no
// ring. So the first stream's receiver claims each chunk only after the
// sender has rung for it, or has parked on it (the last chunk is never
// left in flight): every chunk but the last then rings exactly once.
// The second stream runs ORecv against OSend freely, with the type-table
// cache warm, so its ACK wait parks and is rung too.
func TestOOStreamChunkRungInFlight(t *testing.T) {
	sender := make(chan *Engine, 1)
	runHandoffRanks(t, 512, []Option{WithOOChunk(1 << 10)}, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			sender <- r.e
			for tag := 0; tag < 2; tag++ {
				head := buildLinkedList(r.v, mt, 40, 64) // ~14 KiB
				if err := r.e.OSend(r.th, head, 1, tag); err != nil {
					return err
				}
				if tag > 0 {
					break
				}
				chunks := r.e.Stats.Snapshot().OOChunksSent
				parked := r.e.Stats.Snapshot().WaitsParked
				if st := r.e.ProgressStats(); chunks < 2 || st.Wakes-parked != chunks-1 {
					return fmt.Errorf("sender progress %+v, %d parked waits, after %d chunks: want one ring per chunk left in flight",
						st, parked, chunks)
				}
			}
			if st := r.e.ProgressStats(); st.Timeouts != 0 {
				return fmt.Errorf("sender progress %+v: idle-timer wake", st)
			}
			return nil
		}
		send := <-sender
		sr := r.e.startReader(r.e.mirror(0), 1<<10)
		defer r.e.dropReader(sr)
		for k := int64(1); !sr.Ended(); k++ {
			parked := int64(send.Stats.Snapshot().WaitsParked)
			st, err := r.e.probe(r.th, 0, mp.OOSpaceData, 0, obs.OpORecv)
			if err != nil {
				return err
			}
			deadline := time.Now().Add(5 * time.Second)
			r.th.Park(func() {
				for time.Now().Before(deadline) {
					p := int64(send.Stats.Snapshot().WaitsParked)
					if p > parked || int64(send.ProgressStats().Wakes)-p >= k {
						return
					}
					time.Sleep(20 * time.Microsecond)
				}
			})
			req, err := r.e.Comm.IrecvOO(sr.Grow(st.Count), 0, mp.OOSpaceData, 0)
			if err != nil {
				return err
			}
			if _, err := r.e.await(r.th, req, obs.OpORecv); err != nil {
				return err
			}
			req.Recycle()
			if err := sr.Commit(st.Count); err != nil {
				return err
			}
		}
		if sr.SawRefs() {
			return fmt.Errorf("first stream carried table references")
		}
		head, err := sr.Finish()
		if err != nil {
			return err
		}
		if err := verifyList(r.v.Heap, mt, head, 40, 64, true); err != nil {
			return err
		}
		head, _, err = r.e.ORecv(r.th, 0, 1)
		if err != nil {
			return err
		}
		if st := r.e.ProgressStats(); st.Timeouts != 0 {
			return fmt.Errorf("receiver progress %+v: idle-timer wake", st)
		}
		return verifyList(r.v.Heap, mt, head, 40, 64, true)
	})
}
