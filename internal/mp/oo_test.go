package mp

import (
	"fmt"
	"testing"
	"time"
)

// TestOOWireTagSpacesDisjoint: every (space, user tag) pair maps to a
// distinct wire tag, none of which a regular operation can produce.
func TestOOWireTagSpacesDisjoint(t *testing.T) {
	spaces := []OOSpace{OOSpaceData, OOSpaceAck, OOSpaceTable, OOSpaceColl}
	seen := map[int]bool{}
	for _, sp := range spaces {
		for _, tag := range []int{0, 1, 12345, MaxUserTag} {
			wt := OOWireTag(sp, tag)
			if wt <= MaxUserTag {
				t.Fatalf("space %d tag %d wire tag %d inside user range", sp, tag, wt)
			}
			if int64(wt) != int64(int32(wt)) {
				t.Fatalf("space %d tag %d wire tag %d overflows int32", sp, tag, wt)
			}
			if seen[wt] {
				t.Fatalf("space %d tag %d collides at wire tag %d", sp, tag, wt)
			}
			seen[wt] = true
		}
	}
}

func TestOOTagValidation(t *testing.T) {
	worlds, err := NewLocalWorlds(ChannelShm, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer worlds[0].Close()
	defer worlds[1].Close()
	c := worlds[0].Comm
	if _, err := c.IsendOO(nil, 1, OOSpace(0), 0); err == nil {
		t.Error("space 0 accepted")
	}
	if _, err := c.IsendOO(nil, 1, OOSpace(ooSpaceHi+1), 0); err == nil {
		t.Error("space beyond hi accepted")
	}
	if _, err := c.IsendOO(nil, 1, OOSpaceData, -1); err == nil {
		t.Error("negative tag accepted")
	}
	if _, err := c.IsendOO(nil, 1, OOSpaceData, MaxUserTag+1); err == nil {
		t.Error("oversized tag accepted")
	}
	if _, err := c.IrecvOO(nil, 0, OOSpaceData, MaxUserTag+1); err == nil {
		t.Error("recv oversized tag accepted")
	}
}

// TestOOSpacesNeverCrossMatch sends the same user tag through four
// categories at once — a user-level message, a data chunk, a
// collective part and a table-cache ACK byte — and verifies each
// arrives only through its own space: the ACK byte is never matched by
// a Data, Table or user receive on the same tag.
func TestOOSpacesNeverCrossMatch(t *testing.T) {
	worlds, err := NewLocalWorlds(ChannelShm, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	const tag = 7
	done := make(chan error, 2)
	go func() {
		c := worlds[0].Comm
		defer worlds[0].Close()
		// Post everything before any receive matches: user payload,
		// OO data payload, OO collective payload, then the ACK byte.
		r1, err := c.Isend([]byte("user"), 1, tag)
		if err != nil {
			done <- err
			return
		}
		r2, err := c.IsendOO([]byte("oodata"), 1, OOSpaceData, tag)
		if err != nil {
			done <- err
			return
		}
		r3, err := c.IsendOO([]byte("oocoll"), 1, OOSpaceColl, tag)
		if err != nil {
			done <- err
			return
		}
		r4, err := c.IsendOO([]byte{0}, 1, OOSpaceAck, tag)
		if err != nil {
			done <- err
			return
		}
		done <- c.WaitAll(r1, r2, r3, r4)
	}()
	go func() {
		c := worlds[1].Comm
		defer worlds[1].Close()
		check := func(sp OOSpace, want string) error {
			buf := make([]byte, 16)
			req, err := c.IrecvOO(buf, 0, sp, tag)
			if err != nil {
				return err
			}
			st, err := c.Wait(req)
			if err != nil {
				return err
			}
			if got := string(buf[:st.Count]); got != want {
				return errf("space %d delivered %q, want %q", sp, got, want)
			}
			// Wait reports the raw wire tag (space encoded).
			if st.Tag != OOWireTag(sp, tag) || st.Source != 0 {
				return errf("space %d status %+v", sp, st)
			}
			return nil
		}
		// Drain in the REVERSE of send order: each space must match
		// only its own message.
		if err := check(OOSpaceColl, "oocoll"); err != nil {
			done <- err
			return
		}
		if err := check(OOSpaceData, "oodata"); err != nil {
			done <- err
			return
		}
		// A Data and a Table receive on the same tag, posted while the
		// ACK byte is on its way or already queued, must not take it.
		data, err := c.IrecvOO(make([]byte, 16), 0, OOSpaceData, tag)
		if err != nil {
			done <- err
			return
		}
		table, err := c.IrecvOO(make([]byte, 16), 0, OOSpaceTable, tag)
		if err != nil {
			done <- err
			return
		}
		// The plain user message is still there, untouched by OO drains.
		buf := make([]byte, 16)
		st, err := c.Recv(buf, 0, tag)
		if err != nil {
			done <- err
			return
		}
		if string(buf[:st.Count]) != "user" {
			done <- errf("user message corrupted: %q", buf[:st.Count])
			return
		}
		// The ACK byte arrives only through its own space.
		ack := []byte{0xFF}
		areq, err := c.IrecvOO(ack, 0, OOSpaceAck, tag)
		if err != nil {
			done <- err
			return
		}
		if st, err := c.Wait(areq); err != nil || st.Count != 1 || ack[0] != 0 {
			done <- errf("ACK byte: status %+v, byte %d, err %v", st, ack[0], err)
			return
		}
		for _, r := range []Request{data, table} {
			if r.Done() {
				done <- errf("a Data or Table receive matched the ACK byte: %+v", r.Status())
				return
			}
			if err := r.Cancel(); err != nil {
				done <- err
				return
			}
		}
		if n := c.Device().Outstanding(); n != 0 {
			done <- errf("%d requests left posted", n)
			return
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("OO tag test hung")
		}
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
