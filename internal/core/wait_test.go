package core

import (
	"fmt"
	"runtime"
	"testing"

	"motor/internal/mp"
)

// TestStressManagedWaitOversubscribed is the managed form of the mp
// package's oversubscribed wait test: blocking ping-pongs of an eager
// and a lent rendezvous int32 array, then an Allreduce, through the
// engine's polling-wait, with 2 ranks at GOMAXPROCS=1 and 4 at
// GOMAXPROCS=2.
func TestStressManagedWaitOversubscribed(t *testing.T) {
	for _, tc := range []struct{ ranks, procs int }{{2, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("ranks=%d,procs=%d", tc.ranks, tc.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			runRanks(t, tc.ranks, nil, func(r *rank) error {
				h := r.v.Heap
				me, peer := r.e.Comm.Rank(), r.e.Comm.Rank()^1
				for _, n := range []int{2, 32 << 10} {
					for it := 0; it < 20; it++ {
						vals := make([]int32, n)
						for i := range vals {
							vals[i] = int32(it*n + i*(me+1))
						}
						out, err := h.NewInt32Array(vals)
						if err != nil {
							return err
						}
						in, err := h.NewInt32Array(make([]int32, n))
						if err != nil {
							return err
						}
						if me%2 == 0 {
							err = r.e.Send(r.th, out, peer, it)
							if err == nil {
								_, err = r.e.Recv(r.th, in, peer, it)
							}
						} else {
							_, err = r.e.Recv(r.th, in, peer, it)
							if err == nil {
								err = r.e.Send(r.th, out, peer, it)
							}
						}
						if err != nil {
							return err
						}
						for i, v := range h.Int32Slice(in) {
							if v != int32(it*n+i*(peer+1)) {
								return fmt.Errorf("%d ints iter %d: element %d from rank %d is %d", n, it, i, peer, v)
							}
						}
					}
				}
				send, err := h.NewFloat64Array([]float64{float64(me + 1)})
				if err != nil {
					return err
				}
				recv, err := h.NewFloat64Array(make([]float64, 1))
				if err != nil {
					return err
				}
				if err := r.e.Allreduce(r.th, send, recv, mp.OpSum); err != nil {
					return err
				}
				if got, want := h.Float64Slice(recv)[0], float64(tc.ranks*(tc.ranks+1)/2); got != want {
					return fmt.Errorf("allreduce sum %g, want %g", got, want)
				}
				if n := r.e.Comm.Outstanding(); n != 0 || r.e.PendingRequests() != 0 {
					return fmt.Errorf("%d requests outstanding, %d managed requests pending", n, r.e.PendingRequests())
				}
				return nil
			})
		})
	}
}
