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

// A rendezvous send on shm is one lent RTS: the frame references the
// sender's buffer, the receive that matches it copies the payload once
// into its own buffer, and the send completes at that copy-out. There
// is no CTS and no DATA.

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

// TestLentSendDoneBeforeRecvWaitReturns runs the receiver on its own
// goroutine. The sender never polls after its Isend, so only the
// receiver's copy-out can complete the send, and it must have done so
// by the time the receiver's WaitReq returns.
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
	errc := make(chan error, 1)
	go func() {
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

// TestCancelLentSend: once a receive has claimed a lent send's loan,
// cancelling the send does not release it; the copy-out completes it
// normally. The receive's continuation runs after its copy-out and
// before the send's release, so a cancel there finds the loan claimed.
func TestCancelLentSend(t *testing.T) {
	d0, d1 := devicePair(64)
	msg := lentPayload(4096)
	buf := make([]byte, len(msg))
	rreq, _ := d1.Irecv(SliceBuf(buf), 0, 1, 0)
	sreq, _ := d0.Isend(SliceBuf(msg), 1, 1, 0, false)
	checked := false
	d1.OnComplete(rreq, func() {
		checked = true
		d0.CancelReq(sreq)
		if sreq.Done() || d0.Outstanding() != 1 || d0.StatsSnapshot().Cancelled != 0 {
			t.Errorf("cancel released a claimed lent send (done=%v outstanding=%d)", sreq.Done(), d0.Outstanding())
		}
	})
	waitBoth(t, d1, d0, rreq)
	if !checked {
		t.Fatal("the receive's continuation never ran")
	}
	if !sreq.Done() || sreq.Err() != nil {
		t.Fatalf("lent send after copy-out: done=%v err=%v", sreq.Done(), sreq.Err())
	}
	if !bytes.Equal(buf, msg) || d0.Outstanding() != 0 {
		t.Fatalf("payload intact=%v, %d outstanding", bytes.Equal(buf, msg), d0.Outstanding())
	}
}

// TestCancelledRendezvousLeavesNoPhantom: a rendezvous send cancelled
// before any receive claimed it leaves nothing at the receiver to probe
// or match, whether its RTS already waits unexpected there or is still
// in flight toward a posted receive. The receive gets the next message.
func TestCancelledRendezvousLeavesNoPhantom(t *testing.T) {
	for _, parked := range []bool{true, false} {
		d0, d1 := devicePair(64)
		msg := lentPayload(4096)
		buf := make([]byte, len(msg))
		sreq, err := d0.Isend(SliceBuf(msg), 1, 1, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		var rreq *Request
		if parked {
			progressUntil(t, d1, func() bool { return d1.StatsSnapshot().Unexpected == 1 })
		} else if rreq, err = d1.Irecv(SliceBuf(buf), 0, 1, 0); err != nil {
			t.Fatal(err)
		}
		d0.CancelReq(sreq)
		if !sreq.Done() || !errors.Is(sreq.Err(), ErrCancelled) {
			t.Fatalf("parked=%v: cancelled send done=%v err=%v", parked, sreq.Done(), sreq.Err())
		}
		if parked {
			if ok, st, err := d1.Iprobe(0, 1, 0); ok || err != nil {
				t.Fatalf("probe reports the cancelled message (%+v, err %v)", st, err)
			}
			if rreq, err = d1.Irecv(SliceBuf(buf), 0, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		next := []byte("the next message")
		if _, err := d0.Isend(SliceBuf(next), 1, 1, 0, false); err != nil {
			t.Fatal(err)
		}
		st := waitBoth(t, d1, d0, rreq)
		if st.Count != len(next) || !bytes.Equal(buf[:st.Count], next) {
			t.Fatalf("parked=%v: received %d bytes %q, want the next message", parked, st.Count, buf[:min(st.Count, 16)])
		}
		if d0.Outstanding() != 0 || d1.Outstanding() != 0 {
			t.Fatalf("parked=%v: outstanding %d/%d", parked, d0.Outstanding(), d1.Outstanding())
		}
	}
}

// TestLentRTSFilledInsideIrecv: a receive posted after the lent RTS
// arrived copies the payload inside Irecv, and the send is complete
// when Irecv returns. One frame crossed the channel, none came back.
func TestLentRTSFilledInsideIrecv(t *testing.T) {
	d0, d1 := devicePair(64)
	msg := lentPayload(128 << 10)
	sreq, _ := d0.Isend(SliceBuf(msg), 1, 4, 0, false)
	progressUntil(t, d1, func() bool { return d1.StatsSnapshot().Unexpected == 1 })
	buf := make([]byte, len(msg))
	rreq, err := d1.Irecv(SliceBuf(buf), 0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rreq.Done() || rreq.Err() != nil || rreq.Status().Count != len(msg) || !bytes.Equal(buf, msg) {
		t.Fatalf("Irecv left the lent RTS unfilled: done=%v err=%v count=%d", rreq.Done(), rreq.Err(), rreq.Status().Count)
	}
	if !sreq.Done() || sreq.Err() != nil {
		t.Fatalf("send after Irecv's copy-out: done=%v err=%v", sreq.Done(), sreq.Err())
	}
	out := d0.Channel().(channel.StatsSource).TransportStats()
	in := d1.Channel().(channel.StatsSource).TransportStats()
	if out.FramesSent != 1 || in.FramesSent != 0 || d1.StatsSnapshot().DataRecvd != 1 {
		t.Fatalf("frames %d out, %d back; DataRecvd %d", out.FramesSent, in.FramesSent, d1.StatsSnapshot().DataRecvd)
	}
	if d0.Outstanding() != 0 || d1.Outstanding() != 0 {
		t.Fatalf("outstanding %d/%d", d0.Outstanding(), d1.Outstanding())
	}
}

// TestLentSsendCompletesAfterCopyOut: a synchronous send of eager size
// goes as a lent RTS, so it completes only once a receive has copied
// its payload out, not when the frame is queued or parked.
func TestLentSsendCompletesAfterCopyOut(t *testing.T) {
	d0, d1 := devicePair(1024)
	msg := []byte("synchronous")
	buf := make([]byte, len(msg))
	sreq, err := d0.Isend(SliceBuf(msg), 1, 6, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	copied := false
	d0.OnComplete(sreq, func() { copied = bytes.Equal(buf, msg) })
	for i := 0; i < 100; i++ {
		d0.Progress()
		d1.Progress()
	}
	if sreq.Done() || d1.StatsSnapshot().Unexpected != 1 {
		t.Fatalf("ssend done=%v before any receive (unexpected %d)", sreq.Done(), d1.StatsSnapshot().Unexpected)
	}
	rreq, _ := d1.Irecv(SliceBuf(buf), 0, 6, 0)
	waitBoth(t, d0, d1, sreq)
	if !copied || !rreq.Done() || string(buf) != string(msg) {
		t.Fatalf("ssend completed before its copy-out (copied %v, recv done %v)", copied, rreq.Done())
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
