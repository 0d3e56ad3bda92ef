package core

import (
	"errors"
	"fmt"
	"testing"

	"motor/internal/mp"
	"motor/internal/vm"
)

// TestCollectiveLocalErrors plants, in every array collective, an
// error each rank detects locally: a ref-bearing buffer
// (ErrObjectModel) or a wrongly sized one (a shape error). The root of
// a rooted collective and the other ranks may trip on different
// buffers, since a non-root never looks at the root-only one. Every
// rank must get the error, without counting an op, leaking a request
// or a pin; and a well-formed collective on the same communicator must
// then succeed, so no rank advanced its collective sequence alone.
func TestCollectiveLocalErrors(t *testing.T) {
	const n, root = 3, 1
	// arrays is what one rank passes: good holds n int32s, refs is a
	// ref-bearing object, short and long are wrongly sized int32 arrays.
	type arrays struct{ good, one, refs, short, long vm.Ref }
	type collCase struct {
		name string
		// rootModel and model say the error is ErrObjectModel, not a
		// shape error, on the root and on the other ranks.
		rootModel, model bool
		call             func(r *rank, c int32, a arrays) error
	}
	onRoot := func(r *rank, atRoot, elsewhere vm.Ref) vm.Ref {
		if r.e.Comm.Rank() == root {
			return atRoot
		}
		return elsewhere
	}
	cases := []collCase{
		{"bcast", true, true, func(r *rank, _ int32, a arrays) error {
			return r.e.Bcast(r.th, a.refs, root)
		}},
		{"scatter", true, true, func(r *rank, _ int32, a arrays) error {
			// The root's send array is bad; elsewhere the recv array.
			return r.e.Scatter(r.th, onRoot(r, a.refs, a.good), onRoot(r, a.one, a.refs), root)
		}},
		{"gather", true, true, func(r *rank, _ int32, a arrays) error {
			// The root's recv array is bad; elsewhere the send array.
			return r.e.Gather(r.th, onRoot(r, a.one, a.refs), onRoot(r, a.refs, a.good), root)
		}},
		{"allgather", false, false, func(r *rank, _ int32, a arrays) error {
			return r.e.Allgather(r.th, a.one, a.long)
		}},
		{"alltoall", false, false, func(r *rank, _ int32, a arrays) error {
			return r.e.Alltoall(r.th, a.good, a.short)
		}},
		{"reduce", false, true, func(r *rank, _ int32, a arrays) error {
			// The root's recv array disagrees with its send array;
			// elsewhere the send array is bad.
			return r.e.Reduce(r.th, onRoot(r, a.good, a.refs), onRoot(r, a.short, a.good), mp.OpSum, root)
		}},
		{"allreduce", false, false, func(r *rank, _ int32, a arrays) error {
			return r.e.Allreduce(r.th, a.good, a.short, mp.OpSum)
		}},
		{"allreduceOn", false, false, func(r *rank, c int32, a arrays) error {
			return r.e.AllreduceOn(r.th, c, a.good, a.long, mp.OpSum)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runRanks(t, n, nil, func(r *rank) error {
				h := r.v.Heap
				mt := registerLinkedArray(r.v)
				refs, _ := h.AllocClass(mt)
				good, _ := h.NewInt32Array(make([]int32, n))
				one, _ := h.NewInt32Array(make([]int32, 1))
				short, _ := h.NewInt32Array(make([]int32, n-1))
				long, _ := h.NewInt32Array(make([]int32, n+1))
				a := arrays{good, one, refs, short, long}
				defer r.th.VM().Protect(&a.good, &a.one, &a.refs, &a.short, &a.long)()
				c := WorldComm
				if tc.name == "allreduceOn" {
					var err error
					if c, err = r.e.CommDup(r.th, WorldComm); err != nil {
						return err
					}
				}
				comm, err := r.e.commByID(c)
				if err != nil {
					return err
				}
				ops, pins, unpins := r.e.Stats.Snapshot().Ops, h.Stats.Pins, h.Stats.Unpins
				err = tc.call(r, c, a)
				if err == nil {
					return fmt.Errorf("rank %d: no error", r.e.Comm.Rank())
				}
				wantModel := tc.model
				if r.e.Comm.Rank() == root {
					wantModel = tc.rootModel
				}
				if errors.Is(err, ErrObjectModel) != wantModel {
					return fmt.Errorf("rank %d: unexpected error %v", r.e.Comm.Rank(), err)
				}
				if got := r.e.Stats.Snapshot().Ops; got != ops {
					return fmt.Errorf("rank %d: Stats.Ops %d -> %d on a locally failed collective", r.e.Comm.Rank(), ops, got)
				}
				if out := comm.Outstanding(); out != 0 {
					return fmt.Errorf("rank %d: %d requests outstanding", r.e.Comm.Rank(), out)
				}
				if p := r.e.PendingRequests(); p != 0 {
					return fmt.Errorf("rank %d: %d managed requests pending", r.e.Comm.Rank(), p)
				}
				if h.Stats.Pins-pins != h.Stats.Unpins-unpins {
					return fmt.Errorf("rank %d: pins %d, unpins %d", r.e.Comm.Rank(), h.Stats.Pins-pins, h.Stats.Unpins-unpins)
				}
				// The same communicator still lines up across ranks.
				me := int32(r.e.Comm.Rank())
				send, _ := h.NewInt32Array([]int32{me, 1})
				sum, _ := h.NewInt32Array(make([]int32, 2))
				if err := r.e.AllreduceOn(r.th, c, send, sum, mp.OpSum); err != nil {
					return fmt.Errorf("rank %d: allreduce after the failed collective: %w", me, err)
				}
				if got := h.Int32Slice(sum); got[0] != n*(n-1)/2 || got[1] != n {
					return fmt.Errorf("rank %d: allreduce after the failed collective = %v", me, got)
				}
				return nil
			})
		})
	}
}
