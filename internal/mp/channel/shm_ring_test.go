package channel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// Tests of the shm channel's SPSC segment queue and its payload slabs.

// publishN queues frame i: tag i, one inline payload byte i.
func publishN(r *shmRing, i int) {
	r.publish(Header{Tag: int32(i), Size: 1}, []byte{byte(i)}, nil)
}

// TestShmRingFIFO checks ordering and emptiness across interleaved
// push/pop bursts that cross segment boundaries in both roles.
func TestShmRingFIFO(t *testing.T) {
	r := newShmRing()
	next, expect := 0, 0
	pushN := func(n int) {
		for i := 0; i < n; i++ {
			publishN(r, next)
			next++
		}
	}
	popN := func(n int) {
		t.Helper()
		var f shmFrame
		for i := 0; i < n; i++ {
			if !r.pop(&f) {
				t.Fatalf("pop %d: ring empty, want frame %d", expect, expect)
			}
			if int(f.hdr.Tag) != expect || f.inl[0] != byte(expect) {
				t.Fatalf("pop out of order: got tag %d payload %d, want %d", f.hdr.Tag, f.inl[0], expect)
			}
			expect++
		}
	}
	for _, burst := range [][2]int{
		{shmSegSlots - 1, shmSegSlots - 1}, // stop one short of the boundary
		{1, 1},                             // exactly the last slot of segment 0
		{3*shmSegSlots + 5, 40},            // producer three segments ahead
		{10, 2*shmSegSlots + 7},            // consumer crosses two boundaries
		{shmSegSlots, 0},
	} {
		pushN(burst[0])
		popN(burst[1])
	}
	popN(next - expect) // drain completely
	if next != expect {
		t.Fatalf("accounting: pushed %d popped %d", next, expect)
	}
	if f := (shmFrame{}); r.pop(&f) {
		t.Fatalf("pop on empty ring returned frame %d", f.hdr.Tag)
	}
	pushN(5)
	popN(5)
}

// TestShmRingBurstReclaimed queues a 10 000-frame eager burst before
// the first poll, then drains it: every popped slot drops its slab
// and loan references at once and can never match the head again,
// consumer and producer end on the same single segment, and the
// consumed segments are unreachable, so the collector takes them.
func TestShmRingBurstReclaimed(t *testing.T) {
	r := newShmRing()
	const n = 10_000
	first := r.headSeg
	collected := make(chan struct{})
	runtime.SetFinalizer(first, func(*shmSeg) { close(collected) })
	first = nil

	big := make([]byte, shmInline+1)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			publishN(r, i)
		case 1:
			r.publish(Header{Tag: int32(i), Size: uint32(len(big))}, big, nil)
		case 2:
			r.publish(Header{Tag: int32(i)}, nil, NewLoan(big, func() {}))
		}
	}
	var f shmFrame
	for i := 0; i < n; i++ {
		seg, slot := r.headSeg, r.head%shmSegSlots
		if ok := r.pop(&f); !ok || int(f.hdr.Tag) != i {
			t.Fatalf("pop %d: ok=%v tag=%d", i, ok, f.hdr.Tag)
		}
		if (i%3 == 1) != (f.slab != nil) || (i%3 == 2) != (f.loan != nil) {
			t.Fatalf("pop %d: slab %v loan %v", i, f.slab != nil, f.loan != nil)
		}
		s := &seg.slots[slot]
		if s.slab != nil || s.loan != nil {
			t.Fatalf("pop %d: slot still references its payload", i)
		}
		if seq := s.seq.Load(); seq > r.head { // every later head+1 is larger
			t.Fatalf("pop %d: slot's seq %d could match a later head", i, seq)
		}
	}
	if r.headSeg != r.tailSeg || r.headSeg.next != nil {
		t.Fatal("drained ring still spans more than one segment")
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("first segment still reachable after the ring was drained")
}

// TestShmRingConcurrent runs one producer and one consumer goroutine
// against each other. Every frame carries a checksum of its own
// payload, so a slot read before it was fully published, a frame
// delivered twice or out of order, or a slab recycled while still
// queued shows up as a mismatch (and as a report under -race). The
// sizes, 8 to 207 bytes, straddle shmInline, so frames travel both
// inline and in slabs.
func TestShmRingConcurrent(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	r := newShmRing()
	go func() {
		buf := make([]byte, 256)
		for i := 0; i < n; i++ {
			p := buf[:8+i%200]
			binary.LittleEndian.PutUint64(p, uint64(i))
			for j := 8; j < len(p); j++ {
				p[j] = byte(i + j)
			}
			r.publish(Header{Tag: int32(i), Size: uint32(len(p)), ReqA: uint64(crc32.ChecksumIEEE(p))}, p, nil)
			if i%1000 == 0 {
				runtime.Gosched() // let the consumer catch up and run dry
			}
		}
	}()
	sink := &collectSink{}
	var f shmFrame
	inline := 0
	for i := 0; i < n; {
		if !r.pop(&f) {
			runtime.Gosched()
			continue
		}
		if f.slab == nil {
			inline++
		}
		f.deliver(sink)
		got := sink.payloads[0]
		if int(f.hdr.Tag) != i || len(got) != 8+i%200 || uint64(crc32.ChecksumIEEE(got)) != f.hdr.ReqA {
			t.Fatalf("frame %d: tag %d, %d bytes, checksum mismatch=%v",
				i, f.hdr.Tag, len(got), uint64(crc32.ChecksumIEEE(got)) != f.hdr.ReqA)
		}
		sink.hdrs, sink.payloads = sink.hdrs[:0], sink.payloads[:0]
		i++
	}
	if r.pop(&f) {
		t.Fatal("frames left after the last one")
	}
	if inline == 0 || inline == n {
		t.Fatalf("%d of %d frames inline, want some of each", inline, n)
	}
}

// TestShmSlotLayout: a slot is two cache lines, its seq, header and
// first 16 inline bytes on the first, and every segment's slots start
// on a line boundary, so one small message is one line.
func TestShmSlotLayout(t *testing.T) {
	var s shmSlot
	if n := unsafe.Sizeof(s); n != 128 {
		t.Fatalf("shmSlot is %d bytes, want 128", n)
	}
	if unsafe.Offsetof(s.seq) != 0 || unsafe.Offsetof(s.hdr)+unsafe.Sizeof(s.hdr) > 64 ||
		unsafe.Offsetof(s.inl)+16 > 64 {
		t.Fatalf("first line: seq at %d, hdr at %d, inl at %d",
			unsafe.Offsetof(s.seq), unsafe.Offsetof(s.hdr), unsafe.Offsetof(s.inl))
	}
	segs := make([]*shmSeg, 8)
	for i := range segs {
		segs[i] = new(shmSeg)
		if a := uintptr(unsafe.Pointer(&segs[i].slots[0])); a%64 != 0 {
			t.Fatalf("segment %d: slots at %#x, not 64-byte aligned", i, a)
		}
	}
}

// TestShmSlabRecycling alternates 1 MiB frames with frames around
// shmInline (0, 1, 16, 17, 63, 64 and 65 bytes) in both directions of
// a pair. Slabs and slots are reused across frames (and slabs across
// the two directions), so each delivered payload is checked in full:
// a frame must never see a previous frame's bytes, neither inside its
// own length nor as a longer tail.
func TestShmSlabRecycling(t *testing.T) {
	f := NewShmFabric(2)
	ep := []*ShmChannel{f.Endpoint(0), f.Endpoint(1)}
	big := make([]byte, 1<<20)
	sink := &collectSink{}
	for round := 0; round < 12; round++ {
		from := round % 2
		for i := range big {
			big[i] = byte(round + i)
		}
		odd := bytes.Repeat([]byte{byte(0x50 + round)}, 1<<20-round-1) // same class as big, shorter
		frames := [][]byte{big}
		for _, n := range []int{0, 1, 16, 17, 63, 64, 65} {
			frames = append(frames, bytes.Repeat([]byte{byte(0xA0 + round + n)}, n), odd)
		}
		for _, p := range frames {
			if err := ep[from].Send(1-from, Header{Type: PktEager, Source: int32(from)}, p); err != nil {
				t.Fatal(err)
			}
		}
		// The sender may reuse its buffer as soon as Send returns.
		clear(big)
		sink.hdrs, sink.payloads = nil, nil
		drain(t, ep[1-from], sink, len(frames))
		for i := range big {
			big[i] = byte(round + i)
		}
		for i, want := range frames {
			if len(sink.payloads[i]) != len(want) || !bytes.Equal(sink.payloads[i], want) {
				t.Fatalf("round %d frame %d: %d bytes delivered, want %d, content differs",
					round, i, len(sink.payloads[i]), len(want))
			}
		}
	}
	s0, s1 := ep[0].TransportStats(), ep[1].TransportStats()
	if s0.FramesSent != 6*15 || s1.FramesRecvd != 6*15 || s0.BytesSent != s1.BytesRecvd || s1.BytesSent != s0.BytesRecvd {
		t.Errorf("stats %+v / %+v", s0, s1)
	}
}

// loanSink keeps lent frames whole, as the device does.
type loanSink struct {
	collectSink
	borrowed []Header
	loans    []*Loan
}

func (s *loanSink) Borrow(hdr Header, loan *Loan) {
	s.borrowed, s.loans = append(s.borrowed, hdr), append(s.loans, loan)
}

// TestShmLend: a lent frame is copied once, from the lender's buffer
// into the sink's, and released only after Done — by Poll for a plain
// sink. A LoanSink gets the loan itself: Poll copies and releases
// nothing, the sink's CopyOut copies as much as fits and hands back the
// release, and a loan its lender revoked first is never read.
func TestShmLend(t *testing.T) {
	f := NewShmFabric(2)
	a, b := f.Endpoint(0), f.Endpoint(1)
	payload := bytes.Repeat([]byte("lent"), 1<<15)
	want := append([]byte(nil), payload...)

	plain := &collectSink{}
	released := 0
	if err := a.Lend(1, Header{Type: PktData}, NewLoan(payload, func() {
		if len(plain.hdrs) != 1 {
			t.Error("released before Done")
		}
		released++
	})); err != nil {
		t.Fatal(err)
	}
	drain(t, b, plain, 1)
	if released != 1 || !bytes.Equal(plain.payloads[0], want) {
		t.Fatalf("plain sink: released %d times, payload intact %v", released, bytes.Equal(plain.payloads[0], want))
	}
	clear(payload) // the lender owns its buffer again
	if !bytes.Equal(plain.payloads[0], want) {
		t.Fatal("the sink kept a reference to the lent buffer")
	}

	ls := &loanSink{}
	if err := a.Lend(1, Header{Type: PktRTS, ReqB: 7}, NewLoan(want, func() { released++ })); err != nil {
		t.Fatal(err)
	}
	drain(t, b, ls, 1)
	if released != 1 || len(ls.loans) != 1 || len(ls.hdrs) != 0 || ls.borrowed[0].ReqB != 7 {
		t.Fatalf("Poll released (%d) or delivered (%d) the loan, or lost it (%d)",
			released-1, len(ls.hdrs), len(ls.loans))
	}
	short := make([]byte, 1000) // a shorter buffer takes the prefix
	release := ls.loans[0].CopyOut(short)
	if release == nil || !bytes.Equal(short, want[:len(short)]) || released != 1 {
		t.Fatal("CopyOut lost the prefix or released by itself")
	}
	release()
	if released != 2 || ls.loans[0].Revoke() {
		t.Fatal("release lost, or a claimed loan revoked")
	}

	revoked := NewLoan(want, func() { released++ })
	if err := a.Lend(1, Header{Type: PktRTS}, revoked); err != nil {
		t.Fatal(err)
	}
	if !revoked.Revoke() || !revoked.Revoked() {
		t.Fatal("an unclaimed loan was not revoked")
	}
	drain(t, b, ls, 1)
	dst := make([]byte, len(want))
	if ls.loans[1].CopyOut(dst) != nil || ls.loans[1].Help() || !bytes.Equal(dst, make([]byte, len(want))) {
		t.Fatal("a revoked loan was copied")
	}
	if released != 2 {
		t.Fatal("a revoked loan was released")
	}
	if s := a.TransportStats(); s.FramesSent != 3 || s.BytesSent != 3*uint64(len(want)) {
		t.Errorf("lender stats %+v", s)
	}
}

// TestShmLoanSharedCopy delivers lent frames while a helper goroutine
// calls Help in a loop, as a waiting lender does: the payload lands
// intact, its release runs once and sees both halves written, and a
// Help after the release writes nothing. Without any Help the receiver
// copies both halves itself. Under -race the helper's half and the
// receiver's reads of it must be ordered by the loan's state alone.
func TestShmLoanSharedCopy(t *testing.T) {
	f := NewShmFabric(2)
	a, b := f.Endpoint(0), f.Endpoint(1)
	helped := 0
	for _, size := range []int{64<<10 + 1, 128 << 10, 1<<20 + 7} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*7 + i>>8)
		}
		sink := &fixedSink{buf: make([]byte, size)}
		for round := 0; round < 8; round++ {
			clear(sink.buf)
			released := 0
			loan := NewLoan(payload, func() {
				released++
				if !bytes.Equal(sink.buf, payload) {
					t.Errorf("%d B round %d: released before both halves were written", size, round)
				}
			})
			stop, helpedHere := make(chan struct{}), make(chan int)
			running := make(chan struct{})
			go func() {
				close(running)
				n := 0
				for {
					select {
					case <-stop:
						helpedHere <- n
						return
					default:
						if loan.Help() {
							n++
						}
					}
				}
			}()
			<-running
			if err := a.Lend(1, Header{Type: PktData}, loan); err != nil {
				t.Fatal(err)
			}
			drain(t, b, sink, 1)
			close(stop)
			helped += <-helpedHere
			if released != 1 || !bytes.Equal(sink.buf, payload) {
				t.Fatalf("%d B round %d: released %d times, payload intact %v",
					size, round, released, bytes.Equal(sink.buf, payload))
			}
			clear(sink.buf) // the receiver reuses its buffer
			if loan.Help() || !bytes.Equal(sink.buf, make([]byte, size)) {
				t.Fatalf("%d B round %d: Help wrote after the release", size, round)
			}
		}

		loan := NewLoan(payload, func() {})
		clear(sink.buf)
		if err := a.Lend(1, Header{Type: PktData}, loan); err != nil {
			t.Fatal(err)
		}
		drain(t, b, sink, 1)
		if !bytes.Equal(sink.buf, payload) || loan.Help() {
			t.Fatalf("%d B unhelped: payload intact %v, or a late Help copied", size, bytes.Equal(sink.buf, payload))
		}
	}
	t.Logf("the helper copied %d of 24 second halves (GOMAXPROCS %d)", helped, runtime.GOMAXPROCS(0))
}

// TestShmStatsReadOnly: reading stats must not create rings (it once
// did, under the fabric lock, from the telemetry goroutine).
func TestShmStatsReadOnly(t *testing.T) {
	f := NewShmFabric(4)
	ep := f.Endpoint(0)
	ep.TransportStats()
	if len(f.rings) != 0 || len(ep.in) != 0 {
		t.Fatalf("stats read created %d rings, cached %d", len(f.rings), len(ep.in))
	}
}

// TestShmEndpointsDiscoverGrowth: endpoints that already cached their
// rings must reach ranks added by a later Grow, in both directions.
func TestShmEndpointsDiscoverGrowth(t *testing.T) {
	f := NewShmFabric(2)
	a, b := f.Endpoint(0), f.Endpoint(1)
	sink := &collectSink{}
	if err := a.Send(1, Header{Type: PktEager}, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	drain(t, b, sink, 1)
	if err := a.Send(2, Header{Type: PktEager}, nil); err != ErrRank {
		t.Fatalf("send past the fabric: %v", err)
	}
	first := f.Grow(2)
	c := f.Endpoint(first + 1)
	if err := a.Send(first+1, Header{Type: PktEager, Source: 0}, []byte("old to new")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(1, Header{Type: PktEager, Source: int32(first + 1)}, []byte("new to old")); err != nil {
		t.Fatal(err)
	}
	sink = &collectSink{}
	drain(t, c, sink, 1)
	drain(t, b, sink, 1)
	if string(sink.payloads[0]) != "old to new" || string(sink.payloads[1]) != "new to old" {
		t.Fatalf("payloads %q", sink.payloads)
	}
	if err := a.Send(0, Header{Type: PktEager}, nil); err != ErrRank {
		t.Fatalf("self-send: %v", err)
	}
}

// TestShmDoorbell: a frame rings its destination's bell exactly once
// while that rank's parked count is > 0, never at 0, never after
// SetWake(nil), and never another rank's bell.
func TestShmDoorbell(t *testing.T) {
	f := NewShmFabric(3)
	a, b, c := f.Endpoint(0), f.Endpoint(1), f.Endpoint(2)
	var rungB, rungC int
	b.SetWake(func() { rungB++ })
	c.SetWake(func() { rungC++ })
	send := func(want int, what string) {
		t.Helper()
		if err := a.Send(1, Header{Type: PktEager}, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if rungB != want {
			t.Fatalf("%s: bell rung %d times, want %d", what, rungB, want)
		}
	}
	send(0, "nobody parked")
	b.AddParked(1)
	send(1, "one parked")
	if err := a.Lend(1, Header{Type: PktData}, NewLoan([]byte("y"), func() {})); err != nil {
		t.Fatal(err)
	}
	if rungB != 2 {
		t.Fatalf("lent frame rang %d times in all, want 2", rungB)
	}
	b.AddParked(1)
	send(3, "two parked") // one ring per frame, not per waiter
	b.AddParked(-2)
	send(3, "unparked")
	b.AddParked(1)
	b.SetWake(nil)
	send(3, "bell cleared")
	if rungC != 0 {
		t.Fatalf("rank 2's bell rung %d times by frames to rank 1", rungC)
	}
	drain(t, b, &collectSink{}, 6)
}

// BenchmarkShmRingSteady interleaves push/pop at a fixed queue depth —
// the common collective pattern where a receiver keeps up with a
// sender but a backlog persists.
func BenchmarkShmRingSteady(b *testing.B) {
	const backlog = 64
	r := newShmRing()
	hdr, payload := Header{Tag: 7, Size: 8}, make([]byte, 8)
	for j := 0; j < backlog; j++ {
		r.publish(hdr, payload, nil)
	}
	var f shmFrame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.publish(hdr, payload, nil)
		if !r.pop(&f) {
			b.Fatal("ring empty")
		}
	}
}

// BenchmarkShmPingPong is one goroutine bouncing a payload between
// the two endpoints of a pair: the channel's own per-frame cost
// (inline or slab copy, queue, copy-out) without a second thread.
func BenchmarkShmPingPong(b *testing.B) {
	for _, size := range []int{8, 128 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			f := NewShmFabric(2)
			ep := []*ShmChannel{f.Endpoint(0), f.Endpoint(1)}
			payload := make([]byte, size)
			sink := &fixedSink{buf: make([]byte, size)}
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				from := i % 2
				if err := ep[from].Send(1-from, Header{Type: PktEager}, payload); err != nil {
					b.Fatal(err)
				}
				if ok, _ := ep[1-from].Poll(sink); !ok {
					b.Fatal("nothing delivered")
				}
			}
		})
	}
}

// BenchmarkShmLendPingPong is a 128 KiB lent round trip between two
// goroutines. Each lends its buffer and, like a device wait, calls Help
// until the peer's copy-out releases it, so the receiver and the lender
// each copy half of every message.
func BenchmarkShmLendPingPong(b *testing.B) {
	const size = 128 << 10
	f := NewShmFabric(2)
	ep := [2]*ShmChannel{f.Endpoint(0), f.Endpoint(1)}
	b.SetBytes(2 * size)
	b.ResetTimer()
	var wg sync.WaitGroup
	for me := range ep {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, sink := make([]byte, size), &fixedSink{buf: make([]byte, size)}
			var returned atomic.Bool
			for i := 0; i < 2*b.N; i++ {
				if i%2 != me { // receive
					for ok := false; !ok; {
						if ok, _ = ep[me].Poll(sink); !ok {
							runtime.Gosched()
						}
					}
					continue
				}
				returned.Store(false)
				loan := NewLoan(src, func() { returned.Store(true) })
				if err := ep[me].Lend(1-me, Header{Type: PktData}, loan); err != nil {
					b.Error(err)
					return
				}
				for !returned.Load() {
					if !loan.Help() {
						runtime.Gosched()
					}
				}
			}
		}()
	}
	wg.Wait()
}

type fixedSink struct{ buf []byte }

func (s *fixedSink) Deliver(hdr Header) []byte { return s.buf[:hdr.Size] }
func (s *fixedSink) Done(Header)               {}
