package adi

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"motor/internal/mp/channel"
	"motor/internal/pal"
	"motor/internal/pal/fault"
)

// Rendezvous DATA on shm is lent: the frame references the sender's
// buffer, the receiver copies it once into its posted buffer, and the
// send completes at that copy-out rather than at CTS.

func lentPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

// progressUntil drives d until cond holds.
func progressUntil(t *testing.T, d *Device, cond func() bool) {
	t.Helper()
	for i := 0; i < 100000 && !cond(); i++ {
		if _, err := d.Progress(); err != nil {
			t.Fatal(err)
		}
	}
	if !cond() {
		t.Fatal("condition never held")
	}
}

// TestLentSendDoneBeforeRecvWaitReturns runs the two ranks on their
// own goroutines. The sender stops polling once its DATA is lent, so
// only the receiver's copy-out can complete the send, and it must have
// done so by the time the receiver's WaitReq returns.
func TestLentSendDoneBeforeRecvWaitReturns(t *testing.T) {
	d0, d1 := devicePair(64)
	msg := lentPayload(64 << 10)
	buf := make([]byte, len(msg))
	rreq, err := d1.Irecv(SliceBuf(buf), 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	sreq, err := d0.Isend(SliceBuf(msg), 1, 3, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	checked := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(checked)
		if _, err := d1.WaitReq(rreq); err != nil {
			errc <- err
			return
		}
		if !sreq.Done() {
			errc <- errors.New("receive returned before the lent send completed")
			return
		}
		errc <- nil
	}()
	go func() {
		for d0.StatsSnapshot().BytesSent == 0 { // rank 1 answers the RTS from its WaitReq
			select {
			case <-checked:
				return
			default:
				d0.Progress()
			}
		}
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ranks deadlocked")
	}
	if _, err := d0.WaitReq(sreq); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatal("lent payload corrupt")
	}
	if d0.Outstanding() != 0 || d1.Outstanding() != 0 {
		t.Fatalf("outstanding %d/%d", d0.Outstanding(), d1.Outstanding())
	}
}

// TestCancelLentSend: cancelling a send whose DATA is lent does not
// release it; the peer's copy-out completes it normally.
func TestCancelLentSend(t *testing.T) {
	d0, d1 := devicePair(64)
	msg := lentPayload(4096)
	buf := make([]byte, len(msg))
	rreq, _ := d1.Irecv(SliceBuf(buf), 0, 1, 0)
	sreq, _ := d0.Isend(SliceBuf(msg), 1, 1, 0, false)
	progressUntil(t, d1, func() bool { return d1.StatsSnapshot().Deliveries == 1 }) // RTS in, CTS out
	progressUntil(t, d0, func() bool { return d0.StatsSnapshot().BytesSent == uint64(len(msg)) })
	d0.CancelReq(sreq)
	if sreq.Done() || d0.Outstanding() != 1 || d0.StatsSnapshot().Cancelled != 0 {
		t.Fatalf("cancel released a lent send (done=%v outstanding=%d)", sreq.Done(), d0.Outstanding())
	}
	waitBoth(t, d1, d0, rreq)
	if !sreq.Done() || sreq.Err() != nil {
		t.Fatalf("lent send after copy-out: done=%v err=%v", sreq.Done(), sreq.Err())
	}
	if !bytes.Equal(buf, msg) || d0.Outstanding() != 0 {
		t.Fatalf("payload intact=%v, %d outstanding", bytes.Equal(buf, msg), d0.Outstanding())
	}
}

// TestSockRendezvousCopies: sock cannot lend, so its rendezvous send
// still completes at CTS, before the receiver has read the DATA.
func TestSockRendezvousCopies(t *testing.T) {
	chans, err := channel.NewSockGroupLocal(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer chans[0].Close()
	defer chans[1].Close()
	d0, d1 := NewDevice(chans[0], 64), NewDevice(chans[1], 64)
	if _, ok := d0.ch.(channel.Lender); ok {
		t.Fatal("the sock channel lends")
	}
	msg := lentPayload(4096)
	buf := make([]byte, len(msg))
	rreq, _ := d1.Irecv(SliceBuf(buf), 0, 2, 0)
	sreq, _ := d0.Isend(SliceBuf(msg), 1, 2, 0, false)
	progressUntil(t, d1, func() bool { return d1.StatsSnapshot().Deliveries == 1 })
	progressUntil(t, d0, sreq.Done)
	if rreq.Done() || d1.StatsSnapshot().DataRecvd != 0 {
		t.Fatal("receiver had the DATA before the send completed")
	}
	// The sender owns its buffer again: the DATA on the wire is a copy.
	clear(msg)
	waitBoth(t, d1, d0, rreq)
	if !bytes.Equal(buf, lentPayload(len(msg))) {
		t.Fatal("sock rendezvous payload corrupt")
	}
}

// TestRendezvousFailedDataCountsNoBytes: BytesSent counts a rendezvous
// payload only once its DATA is posted, as it counts an eager payload
// only after its Send. Here the DATA write fails.
func TestRendezvousFailedDataCountsNoBytes(t *testing.T) {
	// Rank 0's writes: #1 registration, #2 RTS header, #3 DATA header.
	fp := fault.New(pal.Default, fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpWrite, Kind: fault.KindReset, Nth: 3},
	}})
	rp := channel.RetryPolicy{DialAttempts: 2, BootstrapAttempts: 2,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		AcceptTimeout: 5 * time.Second}
	chans, err := channel.NewSockGroupLocalOn([]pal.Platform{fp, nil}, 2, rp)
	if err != nil {
		t.Fatal(err)
	}
	defer chans[0].Close()
	defer chans[1].Close()
	d0, d1 := NewDevice(chans[0], 64), NewDevice(chans[1], 64)
	msg := lentPayload(4096)
	if _, err := d1.Irecv(SliceBuf(make([]byte, len(msg))), 0, 4, 0); err != nil {
		t.Fatal(err)
	}
	sreq, err := d0.Isend(SliceBuf(msg), 1, 4, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	progressUntil(t, d1, func() bool { return d1.StatsSnapshot().Deliveries == 1 }) // RTS in, CTS out
	progressUntil(t, d0, sreq.Done)
	if !errors.Is(sreq.Err(), ErrTransport) {
		t.Fatalf("send err = %v, want ErrTransport", sreq.Err())
	}
	if s := d0.StatsSnapshot(); s.BytesSent != 0 || s.RndvSent != 1 {
		t.Fatalf("BytesSent %d after a failed DATA write (RndvSent %d)", s.BytesSent, s.RndvSent)
	}
}
