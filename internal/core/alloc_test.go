//go:build !race

package core

import (
	"testing"

	"motor/internal/vm"
)

// Allocation guards for the steady-state message path: a warm 8 B
// operation must allocate nothing in Go, from the engine entry down to
// the ADI request. testing.AllocsPerRun counts every goroutine's
// mallocs, so each figure covers both ranks. The file is excluded
// under -race, whose instrumentation allocates on its own.

// allocGuard runs step on both ranks of a 2-rank world: rank 1 runs it
// warm+1+runs times in lockstep with rank 0, which measures the last
// runs with testing.AllocsPerRun. It returns rank 0's allocations per
// step.
func allocGuard(t *testing.T, runs int, setup func(r *rank) (step func() error, err error)) float64 {
	t.Helper()
	const warm = 200
	var allocs float64
	runRanks(t, 2, nil, func(r *rank) error {
		step, err := setup(r)
		if err != nil {
			return err
		}
		for i := 0; i < warm; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		if r.e.Comm.Rank() == 1 {
			for i := 0; i <= runs; i++ { // AllocsPerRun calls f once more to warm up
				if err := step(); err != nil {
					return err
				}
			}
			return nil
		}
		var stepErr error
		allocs = testing.AllocsPerRun(runs, func() {
			if err := step(); err != nil && stepErr == nil {
				stepErr = err
			}
		})
		return stepErr
	})
	return allocs
}

// elderInt32s allocates two 8 B int32[2] arrays, promotes them and
// keeps them rooted, so the nonblocking forms take the §7.4 elder
// branch (no conditional pin) and the buffers never move.
func elderInt32s(r *rank) (a, b vm.Ref, err error) {
	g := &vm.RefRoots{Refs: make([]vm.Ref, 2)}
	r.v.AddRootProvider(g)
	for i := range g.Refs {
		if g.Refs[i], err = r.v.Heap.NewInt32Array(make([]int32, 2)); err != nil {
			return vm.NullRef, vm.NullRef, err
		}
	}
	r.th.CollectFull()
	return g.Refs[0], g.Refs[1], nil
}

// TestAllocsBlockingPingPong: one warm 8 B round trip of the blocking
// Send/Recv pair (the pp-small op at core level, young buffer, so the
// §7.4 deferred pin is decided every time) allocates nothing.
func TestAllocsBlockingPingPong(t *testing.T) {
	got := allocGuard(t, 2000, func(r *rank) (func() error, error) {
		buf, err := r.v.Heap.NewInt32Array(make([]int32, 2))
		if err != nil {
			return nil, err
		}
		me := r.e.Comm.Rank()
		return func() error {
			if me == 0 {
				if err := r.e.Send(r.th, buf, 1, 7); err != nil {
					return err
				}
				_, err := r.e.Recv(r.th, buf, 1, 7)
				return err
			}
			if _, err := r.e.Recv(r.th, buf, 0, 7); err != nil {
				return err
			}
			return r.e.Send(r.th, buf, 0, 7)
		}, nil
	})
	t.Logf("blocking 8 B round trip: %.2f allocs (both ranks)", got)
	if got != 0 {
		t.Fatalf("blocking 8 B round trip allocates %.2f times, want 0", got)
	}
}

// TestAllocsNonblockingPair: a warm Irecv/Isend/Wait/Wait exchange of
// 8 B on both ranks allocates nothing: the managed request ids, the
// mp handles and the ADI requests are all recycled.
func TestAllocsNonblockingPair(t *testing.T) {
	got := allocGuard(t, 2000, func(r *rank) (func() error, error) {
		sbuf, rbuf, err := elderInt32s(r)
		if err != nil {
			return nil, err
		}
		peer := 1 - r.e.Comm.Rank()
		return func() error {
			rid, err := r.e.Irecv(r.th, rbuf, peer, 9)
			if err != nil {
				return err
			}
			sid, err := r.e.Isend(r.th, sbuf, peer, 9)
			if err != nil {
				return err
			}
			if _, err := r.e.Wait(r.th, sid); err != nil {
				return err
			}
			_, err = r.e.Wait(r.th, rid)
			return err
		}, nil
	})
	t.Logf("Irecv/Isend/Wait/Wait exchange: %.2f allocs (both ranks)", got)
	if got != 0 {
		t.Fatalf("nonblocking 8 B exchange allocates %.2f times, want 0", got)
	}
}
