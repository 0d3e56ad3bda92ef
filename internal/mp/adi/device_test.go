package adi

import (
	"bytes"
	"errors"
	"testing"

	"motor/internal/mp/channel"
)

func devicePair(eagerMax int) (*Device, *Device) {
	f := channel.NewShmFabric(2)
	return NewDevice(f.Endpoint(0), eagerMax), NewDevice(f.Endpoint(1), eagerMax)
}

// waitBoth drives both devices' progress until the request completes,
// emulating the two ranks' polling loops from a single test goroutine.
func waitBoth(t *testing.T, mine, peer *Device, req *Request) Status {
	t.Helper()
	for i := 0; i < 100000 && !req.Done(); i++ {
		if _, err := mine.Progress(); err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Progress(); err != nil {
			t.Fatal(err)
		}
	}
	if !req.Done() {
		t.Fatal("request never completed")
	}
	if err := req.Err(); err != nil {
		t.Fatalf("request error: %v", err)
	}
	return req.Status()
}

func TestEagerSendRecv(t *testing.T) {
	d0, d1 := devicePair(1024)
	msg := []byte("eager path")
	sreq, err := d0.Isend(SliceBuf(msg), 1, 7, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sreq.Done() {
		t.Error("eager send should complete locally")
	}
	buf := make([]byte, 64)
	rreq, err := d1.Irecv(SliceBuf(buf), 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := waitBoth(t, d1, d0, rreq)
	if st.Source != 0 || st.Tag != 7 || st.Count != len(msg) {
		t.Errorf("status %+v", st)
	}
	if !bytes.Equal(buf[:st.Count], msg) {
		t.Errorf("payload %q", buf[:st.Count])
	}
	if d0.Stats.EagerSent != 1 {
		t.Errorf("EagerSent %d", d0.Stats.EagerSent)
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	d0, d1 := devicePair(64) // tiny eager threshold forces rendezvous
	msg := bytes.Repeat([]byte{0xAB}, 4096)
	buf := make([]byte, 4096)
	rreq, err := d1.Irecv(SliceBuf(buf), 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	sreq, err := d0.Isend(SliceBuf(msg), 1, 3, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if sreq.Done() {
		t.Error("rendezvous send completed before its copy-out")
	}
	st := waitBoth(t, d1, d0, rreq)
	waitBoth(t, d0, d1, sreq)
	if st.Count != len(msg) || !bytes.Equal(buf, msg) {
		t.Errorf("rendezvous payload corrupt (count %d)", st.Count)
	}
	if d0.Stats.RndvSent != 1 {
		t.Errorf("RndvSent %d", d0.Stats.RndvSent)
	}
}

func TestUnexpectedEagerThenRecv(t *testing.T) {
	d0, d1 := devicePair(1024)
	msg := []byte("early bird")
	if _, err := d0.Isend(SliceBuf(msg), 1, 9, 0, false); err != nil {
		t.Fatal(err)
	}
	// Drive d1 so the message lands unexpected.
	for i := 0; i < 100; i++ {
		d1.Progress()
	}
	if d1.Stats.Unexpected != 1 {
		t.Fatalf("Unexpected = %d", d1.Stats.Unexpected)
	}
	// The channel recycles its payload copy once the message is
	// parked; later traffic of the same size overwrites that slab and
	// must not reach the parked bytes.
	for i := 0; i < 4; i++ {
		other := make([]byte, 16)
		rreq, err := d1.Irecv(SliceBuf(other), 0, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d0.Isend(SliceBuf([]byte("XXXXXXXXXXXX")), 1, 10, 0, false); err != nil {
			t.Fatal(err)
		}
		waitBoth(t, d1, d0, rreq)
	}
	buf := make([]byte, 32)
	rreq, err := d1.Irecv(SliceBuf(buf), 0, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rreq.Done() {
		t.Fatal("recv should match unexpected queue immediately")
	}
	if !bytes.Equal(buf[:rreq.Status().Count], msg) {
		t.Errorf("payload %q", buf[:rreq.Status().Count])
	}
}

func TestUnexpectedRTSThenRecv(t *testing.T) {
	d0, d1 := devicePair(8)
	msg := bytes.Repeat([]byte{1, 2, 3, 4}, 100)
	sreq, err := d0.Isend(SliceBuf(msg), 1, 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		d1.Progress()
	}
	buf := make([]byte, len(msg))
	rreq, err := d1.Irecv(SliceBuf(buf), 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBoth(t, d1, d0, rreq)
	waitBoth(t, d0, d1, sreq)
	if !bytes.Equal(buf, msg) {
		t.Error("rendezvous-after-unexpected payload corrupt")
	}
}

func TestWildcardMatching(t *testing.T) {
	d0, d1 := devicePair(1024)
	if _, err := d0.Isend(SliceBuf([]byte("tagged")), 1, 42, 0, false); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	rreq, err := d1.Irecv(SliceBuf(buf), AnySource, AnyTag, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := waitBoth(t, d1, d0, rreq)
	if st.Source != 0 || st.Tag != 42 {
		t.Errorf("wildcard status %+v", st)
	}
}

func TestTagSelectivity(t *testing.T) {
	d0, d1 := devicePair(1024)
	d0.Isend(SliceBuf([]byte("one")), 1, 1, 0, false)
	d0.Isend(SliceBuf([]byte("two")), 1, 2, 0, false)
	// Receive tag 2 first even though tag 1 arrived first.
	buf := make([]byte, 8)
	rreq, err := d1.Irecv(SliceBuf(buf), 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := waitBoth(t, d1, d0, rreq)
	if string(buf[:st.Count]) != "two" {
		t.Errorf("got %q for tag 2", buf[:st.Count])
	}
	buf2 := make([]byte, 8)
	rreq2, _ := d1.Irecv(SliceBuf(buf2), 0, 1, 0)
	st2 := waitBoth(t, d1, d0, rreq2)
	if string(buf2[:st2.Count]) != "one" {
		t.Errorf("got %q for tag 1", buf2[:st2.Count])
	}
}

func TestContextIsolation(t *testing.T) {
	d0, d1 := devicePair(1024)
	d0.Isend(SliceBuf([]byte("ctx5")), 1, 1, 5, false)
	buf := make([]byte, 8)
	// Receive on context 6: must NOT match.
	rreq, err := d1.Irecv(SliceBuf(buf), 0, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		d1.Progress()
	}
	if rreq.Done() {
		t.Fatal("cross-context match")
	}
	// Correct context succeeds.
	rreq2, _ := d1.Irecv(SliceBuf(buf), 0, 1, 5)
	waitBoth(t, d1, d0, rreq2)
}

func TestFIFOOrderingSameTag(t *testing.T) {
	d0, d1 := devicePair(1024)
	for i := byte(0); i < 10; i++ {
		d0.Isend(SliceBuf([]byte{i}), 1, 4, 0, false)
	}
	for i := byte(0); i < 10; i++ {
		buf := make([]byte, 1)
		rreq, _ := d1.Irecv(SliceBuf(buf), 0, 4, 0)
		waitBoth(t, d1, d0, rreq)
		if buf[0] != i {
			t.Fatalf("message %d out of order: got %d", i, buf[0])
		}
	}
}

func TestEagerTruncation(t *testing.T) {
	d0, d1 := devicePair(1024)
	d0.Isend(SliceBuf([]byte("0123456789")), 1, 1, 0, false)
	buf := make([]byte, 4)
	rreq, _ := d1.Irecv(SliceBuf(buf), 0, 1, 0)
	for i := 0; i < 1000 && !rreq.Done(); i++ {
		d1.Progress()
	}
	if !rreq.Done() {
		t.Fatal("not done")
	}
	if !errors.Is(rreq.Err(), ErrTruncate) {
		t.Errorf("err %v", rreq.Err())
	}
	if string(buf) != "0123" {
		t.Errorf("partial payload %q", buf)
	}
}

// TestRendezvousTruncation: a shorter receive buffer, posted before the
// RTS arrives or after it waits unexpected, gets ErrTruncate, a Count
// of its own length and an intact prefix; the send completes without
// error.
func TestRendezvousTruncation(t *testing.T) {
	for _, posted := range []bool{true, false} {
		d0, d1 := devicePair(8)
		msg := lentPayload(256)
		buf := make([]byte, 100)
		var rreq *Request
		if posted {
			rreq, _ = d1.Irecv(SliceBuf(buf), 0, 1, 0)
		}
		sreq, _ := d0.Isend(SliceBuf(msg), 1, 1, 0, false)
		if !posted {
			progressUntil(t, d1, func() bool { return d1.StatsSnapshot().Unexpected == 1 })
			rreq, _ = d1.Irecv(SliceBuf(buf), 0, 1, 0)
		}
		for i := 0; i < 10000 && !(rreq.Done() && sreq.Done()); i++ {
			d0.Progress()
			d1.Progress()
		}
		if !rreq.Done() || !sreq.Done() {
			t.Fatalf("posted=%v: recv done=%v, lent send done=%v", posted, rreq.Done(), sreq.Done())
		}
		if !errors.Is(rreq.Err(), ErrTruncate) || sreq.Err() != nil {
			t.Errorf("posted=%v: recv err %v, send err %v", posted, rreq.Err(), sreq.Err())
		}
		if !bytes.Equal(buf, msg[:len(buf)]) || rreq.Status().Count != len(buf) {
			t.Fatalf("posted=%v: prefix corrupt or miscounted (count %d)", posted, rreq.Status().Count)
		}
		if d0.Outstanding() != 0 || d1.Outstanding() != 0 {
			t.Fatalf("posted=%v: outstanding %d/%d", posted, d0.Outstanding(), d1.Outstanding())
		}
	}
}

func TestSyncSendWaitsForMatch(t *testing.T) {
	d0, d1 := devicePair(1 << 20)
	// Small message but synchronous: must not complete until matched.
	sreq, err := d0.Isend(SliceBuf([]byte("ss")), 1, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		d0.Progress()
		d1.Progress()
	}
	if sreq.Done() {
		t.Fatal("ssend completed before a receive was posted")
	}
	buf := make([]byte, 2)
	rreq, _ := d1.Irecv(SliceBuf(buf), 0, 1, 0)
	waitBoth(t, d1, d0, rreq)
	waitBoth(t, d0, d1, sreq)
	if string(buf) != "ss" {
		t.Errorf("payload %q", buf)
	}
}

func TestIprobe(t *testing.T) {
	d0, d1 := devicePair(1024)
	ok, _, err := d1.Iprobe(0, 1, 0)
	if err != nil || ok {
		t.Fatalf("probe on empty: ok=%v err=%v", ok, err)
	}
	d0.Isend(SliceBuf([]byte("probe me")), 1, 1, 0, false)
	var st Status
	for i := 0; i < 1000 && !ok; i++ {
		ok, st, err = d1.Iprobe(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !ok || st.Count != 8 || st.Source != 0 {
		t.Fatalf("probe result ok=%v %+v", ok, st)
	}
	// Probing must not consume: a receive still gets the message.
	buf := make([]byte, 8)
	rreq, _ := d1.Irecv(SliceBuf(buf), 0, 1, 0)
	if !rreq.Done() {
		t.Fatal("message consumed by probe?")
	}
}

func TestRankValidation(t *testing.T) {
	d0, _ := devicePair(1024)
	if _, err := d0.Isend(SliceBuf(nil), 7, 0, 0, false); !errors.Is(err, ErrRank) {
		t.Errorf("isend bad rank: %v", err)
	}
	if _, err := d0.Irecv(SliceBuf(nil), 9, 0, 0); !errors.Is(err, ErrRank) {
		t.Errorf("irecv bad rank: %v", err)
	}
}

func TestZeroByteMessages(t *testing.T) {
	d0, d1 := devicePair(1024)
	d0.Isend(SliceBuf(nil), 1, 1, 0, false)
	rreq, _ := d1.Irecv(SliceBuf(nil), 0, 1, 0)
	st := waitBoth(t, d1, d0, rreq)
	if st.Count != 0 {
		t.Errorf("count %d", st.Count)
	}
}

func TestSelfSend(t *testing.T) {
	d0, _ := devicePair(1024)
	// Posted receive first: direct copy.
	buf := make([]byte, 8)
	rreq, err := d0.Irecv(SliceBuf(buf), 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	sreq, err := d0.Isend(SliceBuf([]byte("selfmsg!")), 0, 5, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sreq.Done() || !rreq.Done() {
		t.Fatal("self-send with posted recv should complete immediately")
	}
	if string(buf) != "selfmsg!" {
		t.Errorf("payload %q", buf)
	}

	// Unexpected order: send first, then receive.
	sreq2, err := d0.Isend(SliceBuf([]byte("later")), 0, 6, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sreq2.Done() {
		t.Fatal("buffered self-send should complete")
	}
	buf2 := make([]byte, 5)
	rreq2, err := d0.Irecv(SliceBuf(buf2), AnySource, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rreq2.Done() || string(buf2) != "later" {
		t.Fatalf("unexpected self-send not matched: %q", buf2)
	}
	if st := rreq2.Status(); st.Source != 0 || st.Tag != 6 {
		t.Errorf("status %+v", st)
	}
}

func TestSelfSyncSend(t *testing.T) {
	d0, _ := devicePair(1024)
	sreq, err := d0.Isend(SliceBuf([]byte("sync")), 0, 7, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d0.Progress()
	}
	if sreq.Done() {
		t.Fatal("synchronous self-send completed before local match")
	}
	buf := make([]byte, 4)
	rreq, err := d0.Irecv(SliceBuf(buf), 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rreq.Done() {
		t.Fatal("recv should match buffered self-send")
	}
	d0.Progress() // resolve the pending sync
	if !sreq.Done() {
		t.Fatal("synchronous self-send not completed after match")
	}
	if string(buf) != "sync" {
		t.Errorf("payload %q", buf)
	}
}

func TestIprobeReportsRendezvousSize(t *testing.T) {
	d0, d1 := devicePair(8) // force rendezvous
	msg := bytes.Repeat([]byte{5}, 500)
	if _, err := d0.Isend(SliceBuf(msg), 1, 3, 0, false); err != nil {
		t.Fatal(err)
	}
	var st Status
	ok := false
	for i := 0; i < 1000 && !ok; i++ {
		var err error
		ok, st, err = d1.Iprobe(0, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !ok {
		t.Fatal("probe never saw the RTS")
	}
	// The advertised rendezvous size must be reported, not the
	// zero-length wire payload of the RTS packet.
	if st.Count != 500 {
		t.Errorf("probed count %d, want 500", st.Count)
	}
}
