package core

import (
	"errors"
	"fmt"
	"testing"
)

// TestStressStaleManagedRequest: a managed request id stays unknown
// once Wait has retired it, even after its device request has been
// recycled for a newer immediate operation; Wait and Test on the old
// id fail with ErrBadRequest while the newer operation completes with
// its own payload. The stress tier runs it under -race.
func TestStressStaleManagedRequest(t *testing.T) {
	runRanks(t, 2, nil, func(r *rank) error {
		h := r.v.Heap
		buf, err := h.NewInt32Array([]int32{0, 0})
		if err != nil {
			return err
		}
		release := r.v.Protect(&buf)
		defer release()
		if r.e.Comm.Rank() == 1 {
			h.SetElem(buf, 0, 11)
			if err := r.e.Send(r.th, buf, 0, 1); err != nil {
				return err
			}
			if _, err := r.e.Recv(r.th, buf, 0, 3); err != nil { // go-ahead
				return err
			}
			h.SetElem(buf, 0, 22)
			return r.e.Send(r.th, buf, 0, 2)
		}
		old, err := r.e.Irecv(r.th, buf, 1, 1)
		if err != nil {
			return err
		}
		if _, err := r.e.Wait(r.th, old); err != nil {
			return err
		}
		if got := h.Int32Slice(buf)[0]; got != 11 {
			return fmt.Errorf("first receive got %d, want 11", got)
		}
		cur, err := r.e.Irecv(r.th, buf, 1, 2)
		if err != nil {
			return err
		}
		if _, err := r.e.Wait(r.th, old); !errors.Is(err, ErrBadRequest) {
			return fmt.Errorf("Wait on the retired id: %v, want ErrBadRequest", err)
		}
		if _, _, err := r.e.Test(r.th, old); !errors.Is(err, ErrBadRequest) {
			return fmt.Errorf("Test on the retired id: %v, want ErrBadRequest", err)
		}
		if err := r.e.Send(r.th, buf, 1, 3); err != nil {
			return err
		}
		st, err := r.e.Wait(r.th, cur)
		if err != nil {
			return err
		}
		if got := h.Int32Slice(buf)[0]; got != 22 || st.Tag != 2 {
			return fmt.Errorf("second receive got %d (tag %d), want 22 (tag 2)", got, st.Tag)
		}
		if n := r.e.World.Dev.Outstanding(); n != 0 || r.e.PendingRequests() != 0 {
			return fmt.Errorf("%d device requests, %d engine requests outstanding", n, r.e.PendingRequests())
		}
		return nil
	})
}
