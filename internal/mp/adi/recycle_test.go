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
