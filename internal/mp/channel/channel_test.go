package channel

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// collectSink records delivered packets for assertions.
type collectSink struct {
	hdrs     []Header
	payloads [][]byte
	buf      []byte
}

func (s *collectSink) Deliver(hdr Header) []byte {
	if hdr.Size == 0 {
		return nil
	}
	s.buf = make([]byte, hdr.Size)
	return s.buf
}

func (s *collectSink) Done(hdr Header) {
	s.hdrs = append(s.hdrs, hdr)
	if hdr.Size > 0 {
		s.payloads = append(s.payloads, s.buf)
	} else {
		s.payloads = append(s.payloads, nil)
	}
	s.buf = nil
}

func TestHeaderMarshalRoundtrip(t *testing.T) {
	in := Header{Type: PktRTS, Source: 3, Tag: -1, Context: 42, Size: 9999, ReqA: 1 << 40, ReqB: 7}
	var b [HeaderSize]byte
	in.Marshal(b[:])
	var out Header
	out.Unmarshal(b[:])
	if in != out {
		t.Errorf("roundtrip %+v != %+v", out, in)
	}
}

func drain(t *testing.T, ch Channel, sink Sink, want int) {
	t.Helper()
	got := 0
	for i := 0; i < 100000 && got < want; i++ {
		ok, err := ch.Poll(sink)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if ok {
			got++
		}
	}
	if got != want {
		t.Fatalf("drained %d packets, want %d", got, want)
	}
}

func testChannelPair(t *testing.T, a, b Channel) {
	t.Helper()
	// a -> b: three packets, FIFO, mixed sizes.
	msgs := [][]byte{[]byte("hello"), nil, bytes.Repeat([]byte{7}, 100000)}
	for i, m := range msgs {
		hdr := Header{Type: PktEager, Source: int32(a.Rank()), Tag: int32(i), Context: 1}
		if err := a.Send(b.Rank(), hdr, m); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	sink := &collectSink{}
	drain(t, b, sink, len(msgs))
	for i, m := range msgs {
		if int(sink.hdrs[i].Tag) != i {
			t.Errorf("packet %d tag %d (FIFO violated)", i, sink.hdrs[i].Tag)
		}
		if !bytes.Equal(sink.payloads[i], m) {
			t.Errorf("packet %d payload mismatch: %d vs %d bytes", i, len(sink.payloads[i]), len(m))
		}
	}
	// b -> a reply.
	hdr := Header{Type: PktCTS, Source: int32(b.Rank()), Tag: 5, Context: 1, ReqA: 11, ReqB: 22}
	if err := b.Send(a.Rank(), hdr, nil); err != nil {
		t.Fatal(err)
	}
	sink2 := &collectSink{}
	drain(t, a, sink2, 1)
	if sink2.hdrs[0].ReqA != 11 || sink2.hdrs[0].ReqB != 22 {
		t.Errorf("reply header %+v", sink2.hdrs[0])
	}
}

func TestShmChannelPair(t *testing.T) {
	f := NewShmFabric(2)
	testChannelPair(t, f.Endpoint(0), f.Endpoint(1))
}

func TestSockChannelPair(t *testing.T) {
	chans, err := NewSockGroupLocal(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer chans[0].Close()
	defer chans[1].Close()
	testChannelPair(t, chans[0], chans[1])
}

func TestSockGroupMesh(t *testing.T) {
	const n = 4
	chans, err := NewSockGroupLocal(nil, n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range chans {
			c.Close()
		}
	}()
	// Every pair exchanges one packet, concurrently per receiving rank.
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for peer := 0; peer < n; peer++ {
				if peer == r {
					continue
				}
				hdr := Header{Type: PktEager, Source: int32(r), Tag: int32(100*r + peer), Context: 9}
				if err := chans[r].Send(peer, hdr, []byte{byte(r), byte(peer)}); err != nil {
					errs <- err
					return
				}
			}
			sink := &collectSink{}
			got := 0
			for i := 0; i < 200000 && got < n-1; i++ {
				ok, err := chans[r].Poll(sink)
				if err != nil {
					errs <- err
					return
				}
				if ok {
					got++
				}
			}
			for i, h := range sink.hdrs {
				if sink.payloads[i][0] != byte(h.Source) || sink.payloads[i][1] != byte(r) {
					errs <- ErrRank
					return
				}
			}
			errs <- nil
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestShmFabricGrow(t *testing.T) {
	f := NewShmFabric(2)
	if f.Size() != 2 {
		t.Fatalf("size %d", f.Size())
	}
	first := f.Grow(3)
	if first != 2 || f.Size() != 5 {
		t.Errorf("grow: first=%d size=%d", first, f.Size())
	}
	// New rank can talk to an old one.
	a, b := f.Endpoint(4), f.Endpoint(0)
	hdr := Header{Type: PktEager, Source: 4, Tag: 1, Context: 0}
	if err := a.Send(0, hdr, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	drain(t, b, sink, 1)
	if string(sink.payloads[0]) != "hi" {
		t.Errorf("payload %q", sink.payloads[0])
	}
}

func TestShmRankRange(t *testing.T) {
	f := NewShmFabric(2)
	ep := f.Endpoint(0)
	if err := ep.Send(5, Header{Type: PktEager}, nil); err != ErrRank {
		t.Errorf("err %v", err)
	}
}

func TestShmClosedChannel(t *testing.T) {
	f := NewShmFabric(2)
	ep := f.Endpoint(0)
	ep.Close()
	if err := ep.Send(1, Header{Type: PktEager}, nil); err != ErrClosed {
		t.Errorf("send on closed: %v", err)
	}
	if _, err := ep.Poll(&collectSink{}); err != ErrClosed {
		t.Errorf("poll on closed: %v", err)
	}
}

func TestSockBidirectionalLargeTransfers(t *testing.T) {
	// Both endpoints stream large payloads at each other
	// simultaneously; per-pair FIFO and content must survive the
	// interleaved partial reads of the polling receiver.
	chans, err := NewSockGroupLocal(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer chans[0].Close()
	defer chans[1].Close()
	const msgs = 20
	const size = 64 << 10
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for me := 0; me < 2; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			peer := 1 - me
			payload := bytes.Repeat([]byte{byte(me + 1)}, size)
			// Interleave sends with polls so neither side's TCP
			// buffer backs up indefinitely.
			sink := &collectSink{}
			sent, got := 0, 0
			for i := 0; sent < msgs || got < msgs; i++ {
				if sent < msgs {
					hdr := Header{Type: PktEager, Source: int32(me), Tag: int32(sent), Context: 1}
					if err := chans[me].Send(peer, hdr, payload); err != nil {
						errs <- err
						return
					}
					sent++
				}
				ok, err := chans[me].Poll(sink)
				if err != nil {
					errs <- err
					return
				}
				if ok {
					got++
				}
				if i > 1000000 {
					errs <- fmt.Errorf("rank %d stuck at sent=%d got=%d", me, sent, got)
					return
				}
			}
			for i, h := range sink.hdrs {
				if int(h.Tag) != i {
					errs <- fmt.Errorf("rank %d msg %d has tag %d (FIFO violated)", me, i, h.Tag)
					return
				}
				for _, b := range sink.payloads[i] {
					if b != byte(peer+1) {
						errs <- fmt.Errorf("rank %d msg %d corrupt", me, i)
						return
					}
				}
			}
			errs <- nil
		}(me)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
