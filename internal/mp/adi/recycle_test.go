package adi

import "testing"

// TestRecycleFreshID: a recycled request is reused by the next post
// under a fresh id, and Recycle refuses what the device still needs —
// a pending request — and what it already holds (a second Recycle).
func TestRecycleFreshID(t *testing.T) {
	d0, d1 := devicePair(1024)
	buf := make([]byte, 8)
	pending, err := d1.Irecv(SliceBuf(buf), 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	d1.Recycle(pending) // incomplete: left alone
	if pending.ID() == 0 || pending.Done() {
		t.Fatalf("Recycle took a pending request (id %d)", pending.ID())
	}
	if _, err := d0.Isend(SliceBuf([]byte("12345678")), 1, 1, 0, false); err != nil {
		t.Fatal(err)
	}
	waitBoth(t, d1, d0, pending)
	oldID := pending.ID()
	d1.Recycle(pending)
	d1.Recycle(pending) // a second return is ignored, not a list cycle
	if pending.ID() != 0 {
		t.Fatalf("recycled request keeps id %d", pending.ID())
	}
	a, err := d1.Irecv(SliceBuf(buf), 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d1.Irecv(SliceBuf(buf), 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != pending || b == pending {
		t.Fatalf("free list handed out %p and %p, want %p once", a, b, pending)
	}
	if a.ID() <= oldID || a.Done() {
		t.Fatalf("reused request: id %d (was %d), done %v", a.ID(), oldID, a.Done())
	}
	d1.CancelReq(a)
	d1.CancelReq(b)
	if n := d1.Outstanding(); n != 0 {
		t.Fatalf("%d requests outstanding", n)
	}
}

// TestUnexpectedPayloadRecycled: an unexpected eager payload's buffer
// goes back to the device once a receive has copied it out, the next
// unexpected arrival reuses it, and no payload still queued is touched.
func TestUnexpectedPayloadRecycled(t *testing.T) {
	d0, d1 := devicePair(1024)
	for tag, msg := range []string{"first", "second", "third"} {
		if _, err := d0.Isend(SliceBuf([]byte(msg)), 1, tag, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		d1.Progress()
	}
	if len(d1.unexp) != 3 {
		t.Fatalf("%d unexpected arrivals queued, want 3", len(d1.unexp))
	}
	first := &d1.unexp[0].payload[:1][0]
	recv := func(tag int, want string) {
		t.Helper()
		buf := make([]byte, 16)
		req, err := d1.Irecv(SliceBuf(buf), 0, tag, 0)
		if err != nil || !req.Done() || string(buf[:req.Status().Count]) != want {
			t.Fatalf("tag %d: %q, %v; want %q", tag, buf, err, want)
		}
	}
	recv(0, "first")
	if len(d1.spare) != 1 {
		t.Fatalf("%d spare payload buffers after a match, want 1", len(d1.spare))
	}
	if _, err := d0.Isend(SliceBuf([]byte("fifth")), 1, 3, 0, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && len(d1.unexp) < 3; i++ {
		d1.Progress()
	}
	if last := d1.unexp[len(d1.unexp)-1].payload; len(d1.spare) != 0 || &last[:1][0] != first {
		t.Errorf("the fourth arrival did not reuse the first's buffer (%d spare)", len(d1.spare))
	}
	recv(1, "second")
	recv(2, "third")
	recv(3, "fifth")
}
