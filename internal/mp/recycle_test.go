package mp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestStressStaleRequestHandle: a receive is waited, recycled and
// reused by a new receive; Test, Wait and Cancel through the old
// handle then fail with ErrStale — without reading or waiting on the
// new operation — and the new receive completes with its own payload.
// The stress tier runs it under -race, with rank 1 completing the new
// receive from its own goroutine.
func TestStressStaleRequestHandle(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		c := w.Comm
		if c.Rank() == 1 {
			if err := c.Send([]byte("first"), 0, 1); err != nil {
				return err
			}
			if _, err := c.Recv(make([]byte, 1), 0, 3); err != nil { // go-ahead
				return err
			}
			return c.Send([]byte("second"), 0, 2)
		}
		buf := make([]byte, 8)
		old, err := c.Irecv(buf, 1, 1)
		if err != nil {
			return err
		}
		if _, err := c.Wait(old); err != nil {
			return err
		}
		old.Recycle()
		buf2 := make([]byte, 8)
		cur, err := c.Irecv(buf2, 1, 2)
		if err != nil {
			return err
		}
		if cur.inner != old.inner {
			return errors.New("the new receive did not reuse the recycled request")
		}
		if _, _, err := old.Test(); !errors.Is(err, ErrStale) {
			return fmt.Errorf("Test through the old handle: %v, want ErrStale", err)
		}
		if _, err := c.Wait(old); !errors.Is(err, ErrStale) {
			return fmt.Errorf("Wait through the old handle: %v, want ErrStale", err)
		}
		if err := old.Cancel(); !errors.Is(err, ErrStale) {
			return fmt.Errorf("Cancel through the old handle: %v, want ErrStale", err)
		}
		if !old.Done() || cur.Done() {
			return fmt.Errorf("old handle done %v, new handle done %v", old.Done(), cur.Done())
		}
		if err := c.Send([]byte{1}, 1, 3); err != nil {
			return err
		}
		st, err := c.Wait(cur)
		if err != nil {
			return err
		}
		if st.Source != 1 || st.Tag != 2 || !bytes.Equal(buf2[:st.Count], []byte("second")) {
			return fmt.Errorf("new receive: status %+v, payload %q", st, buf2[:st.Count])
		}
		cur.Recycle()
		if n := c.Outstanding(); n != 0 {
			return fmt.Errorf("%d requests outstanding", n)
		}
		return nil
	})
}
