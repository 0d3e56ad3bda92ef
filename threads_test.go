package motor_test

import (
	"errors"
	"fmt"
	"testing"

	"motor"
)

// TestStressFacadeSiblingThreads runs two threads of one rank at once
// through the facade: on each rank of an async-progress world a Rank.Go
// worker exchanges Isend/Irecv/Wait pairs on one tag while the main
// thread runs a blocking ping-pong on another. Every payload must
// arrive intact, the join must report nil, and neither the engine nor
// the device may keep a request afterwards.
func TestStressFacadeSiblingThreads(t *testing.T) {
	const (
		iters     = 200
		workerTag = 1
		mainTag   = 2
	)
	run(t, motor.Config{Ranks: 2, AsyncProgress: true}, func(r *motor.Rank) error {
		peer := 1 - r.ID()
		join := r.Go("exchange", func(w *motor.Rank) error {
			if w.ID() != r.ID() || w.Thread() == r.Thread() {
				return fmt.Errorf("worker rank %d on thread %p, parent rank %d on %p", w.ID(), w.Thread(), r.ID(), r.Thread())
			}
			for i := 0; i < iters; i++ {
				send, err := w.NewInt32Array([]int32{int32(w.ID()), int32(i)})
				if err != nil {
					return err
				}
				recv, err := w.NewInt32Array(make([]int32, 2))
				if err != nil {
					return err
				}
				release := w.Protect(&send, &recv)
				rreq, err := w.Irecv(recv, peer, workerTag)
				if err != nil {
					release()
					return err
				}
				sreq, err := w.Isend(send, peer, workerTag)
				if err == nil {
					_, err = w.Wait(sreq)
				}
				if _, rerr := w.Wait(rreq); err == nil {
					err = rerr
				}
				got := w.Int32s(recv)
				release()
				if err != nil {
					return err
				}
				if got[0] != int32(peer) || got[1] != int32(i) {
					return fmt.Errorf("worker exchange %d: got %v, want [%d %d]", i, got, peer, i)
				}
			}
			return nil
		})

		buf, err := r.NewInt32Array(make([]int32, 2))
		if err != nil {
			return errors.Join(err, join())
		}
		release := r.Protect(&buf)
		defer release()
		// Rank 0 sends [i, 2i]; rank 1 checks it and returns it plus one.
		pingpong := func(i int) error {
			want := []int32{int32(i), int32(2 * i)}
			if r.ID() == 0 {
				r.SetElem(buf, 0, uint64(uint32(want[0])))
				r.SetElem(buf, 1, uint64(uint32(want[1])))
				if err := r.Send(buf, peer, mainTag); err != nil {
					return err
				}
				want[0]++
				want[1]++
			}
			if _, err := r.Recv(buf, peer, mainTag); err != nil {
				return err
			}
			if got := r.Int32s(buf); got[0] != want[0] || got[1] != want[1] {
				return fmt.Errorf("rank %d ping-pong %d: got %v, want %v", r.ID(), i, got, want)
			}
			if r.ID() == 0 {
				return nil
			}
			r.SetElem(buf, 0, uint64(uint32(want[0]+1)))
			r.SetElem(buf, 1, uint64(uint32(want[1]+1)))
			return r.Send(buf, peer, mainTag)
		}
		for i := 0; i < iters && err == nil; i++ {
			err = pingpong(i)
		}
		if jerr := join(); jerr != nil {
			return fmt.Errorf("rank %d worker: %w", r.ID(), jerr)
		}
		if err != nil {
			return err
		}
		if n := r.Engine().PendingRequests(); n != 0 {
			return fmt.Errorf("rank %d: %d engine requests pending", r.ID(), n)
		}
		if n := r.Engine().Comm.Outstanding(); n != 0 {
			return fmt.Errorf("rank %d: %d device requests outstanding", r.ID(), n)
		}
		return nil
	})
}
