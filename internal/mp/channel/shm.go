package channel

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"motor/internal/obs"
)

// The shm channel: in-process "shared memory" transport. Each ordered
// rank pair owns a lock-free single-producer/single-consumer frame
// queue, the software analogue of MPICH2's shm channel queues. Each
// slot is published by its own sequence word, as FastForward's cells
// are, and no index is shared between the two sides. A payload of up
// to shmInline bytes travels inside the slot, as in MPICH2's nemesis
// cells, so a small message crosses cores as one cache line; a longer
// one is copied into a pooled slab and out of it into the
// sink-designated buffer on poll, without a per-frame allocation. A
// lent payload (Lend: the device's rendezvous RTS) is not copied on
// send: the frame references the sender's buffer, and the receiver
// copies it once, source buffer to destination buffer, when a receive
// matches it, half of it on the lender's goroutine if the lender is
// waiting (Loan.Help).

// shmInline is the largest payload a slot carries inline.
const shmInline = 64

// shmFrame is one queued packet. Its payload is the first hdr.Size
// bytes of inl, or of slab when it did not fit inline; a lent one is
// loan's, handed back through its release once it has been copied out.
type shmFrame struct {
	hdr  Header
	inl  [shmInline]byte
	slab *[]byte
	loan *Loan
}

// slabs recycles payload copies by power-of-two size class: class k
// holds buffers of capacity 1<<k. The sender takes a slab, the
// receiver returns it after the copy-out, so a steady exchange reuses
// the same few buffers instead of allocating one per frame.
var slabs [bits.UintSize]sync.Pool

// slabClass is the class of an n-byte payload, n > 0.
func slabClass(n int) int { return bits.Len(uint(n - 1)) }

// copyToSlab returns a pooled copy of payload, len(payload) > 0.
func copyToSlab(payload []byte) *[]byte {
	k := slabClass(len(payload))
	s, _ := slabs[k].Get().(*[]byte)
	if s == nil {
		b := make([]byte, 1<<k)
		s = &b
	}
	copy(*s, payload)
	return s
}

// deliver hands one frame to the sink, then recycles its slab or
// releases its lent payload. Both happen only after the copy-out: the
// sink never keeps a reference to either, so the next sender may
// overwrite the slab, and the lender its buffer, at once. A LoanSink
// takes a lent frame whole and copies it out itself.
func (f *shmFrame) deliver(sink Sink) {
	if f.loan != nil {
		if ls, ok := sink.(LoanSink); ok {
			ls.Borrow(f.hdr, f.loan)
			return
		}
	}
	dst := sink.Deliver(f.hdr)
	var release func()
	if f.loan != nil {
		release = f.loan.CopyOut(dst)
	} else if f.slab != nil {
		copy(dst, (*f.slab)[:f.hdr.Size])
		slabs[slabClass(int(f.hdr.Size))].Put(f.slab)
	} else {
		copy(dst, f.inl[:f.hdr.Size])
	}
	sink.Done(f.hdr)
	if release != nil {
		release()
	}
}

// shmSegSlots is the number of frames per queue segment.
const shmSegSlots = 64

// shmSlot is one 128-byte queue slot: a frame behind the word that
// publishes it. seq, the header and the first 16 inline bytes share
// the slot's first cache line, so a small message is one line for the
// consumer to fetch. seq is t+1 once frame t is written in the slot;
// values left from an earlier lap of a reused segment are smaller, so
// they never match.
type shmSlot struct {
	seq atomic.Uint64 // producer stores after the frame, consumer loads first
	shmFrame
}

// shmSeg leads its slots with 56 bytes: the allocator stores an
// 8-byte header before an object of this size and starts it in a
// 64-byte-aligned size class, so the slots start on a line boundary
// (TestShmSlotLayout checks it).
type shmSeg struct {
	next  *shmSeg // set by the producer before it publishes the last slot
	_     [48]byte
	slots [shmSegSlots]shmSlot
}

// shmRing is an unbounded FIFO for one (sender, receiver) pair: a
// linked list of fixed-size segments with exactly one producer and
// one consumer goroutine at a time. The producer writes a slot and
// then publishes it by storing its seq; the consumer compares the seq
// of the slot at its private head with head+1, so an empty poll is
// one atomic load, and neither side reads the other's index. The
// consumer clears the references of each popped slot and, when it
// leaves a segment, hands it back to the producer as the spare its
// next segment reuses, so a steady exchange allocates nothing;
// nothing else links back to a consumed segment, so a drained burst
// is collectable however deep it was. Producer and consumer state sit
// on separate cache lines.
type shmRing struct {
	tail    uint64   // frames published; producer only
	tailSeg *shmSeg  // producer only
	bell    *shmBell // the consumer's; fixed at creation
	_       [40]byte

	head    uint64                 // frames popped; consumer only
	headSeg *shmSeg                // consumer only
	spare   atomic.Pointer[shmSeg] // a drained segment; consumer stores, producer takes
	_       [40]byte
}

func newShmRing() *shmRing {
	seg := new(shmSeg)
	return &shmRing{tailSeg: seg, headSeg: seg}
}

// publish queues one frame: the header, then the payload inline if it
// fits, else a slab copy of it, or the loan; then the slot's seq.
func (r *shmRing) publish(hdr Header, payload []byte, loan *Loan) {
	t := r.tail
	seg, i := r.tailSeg, t%shmSegSlots
	s := &seg.slots[i]
	s.hdr = hdr
	switch {
	case loan != nil:
		s.loan = loan
	case len(payload) <= shmInline:
		copy(s.inl[:], payload)
	default:
		s.slab = copyToSlab(payload)
	}
	if i == shmSegSlots-1 {
		next := r.spare.Swap(nil)
		if next == nil {
			next = new(shmSeg)
		}
		seg.next, r.tailSeg = next, next
	}
	s.seq.Store(t + 1)
	r.tail = t + 1
}

// pop moves the oldest frame into f, its inline bytes copied, so no
// reference into the slot outlives the call.
func (r *shmRing) pop(f *shmFrame) bool {
	seg, i := r.headSeg, r.head%shmSegSlots
	s := &seg.slots[i]
	if s.seq.Load() != r.head+1 {
		return false
	}
	f.hdr, f.slab, f.loan = s.hdr, s.slab, s.loan
	if s.slab == nil && s.loan == nil {
		copy(f.inl[:], s.inl[:s.hdr.Size])
	}
	s.slab, s.loan = nil, nil
	if i == shmSegSlots-1 {
		r.headSeg, seg.next = seg.next, nil
		r.spare.Store(seg) // every slot is cleared and the producer has moved on
	}
	r.head++
	return true
}

// shmBell is one rank's doorbell (Doorbell): how many of its waiters
// are parked, and the func that wakes its progress engine.
type shmBell struct {
	parked atomic.Int32
	wake   atomic.Pointer[func()]
}

// ring wakes the bell's rank if a waiter is parked there. The caller
// has just published a frame: its seq store precedes this load, as
// the waiter's count increment precedes its last poll.
func (b *shmBell) ring() {
	if b.parked.Load() > 0 {
		if w := b.wake.Load(); w != nil && *w != nil {
			(*w)()
		}
	}
}

// ShmFabric is the shared substrate connecting n in-process ranks.
// Its mutex guards only the ring and bell tables, which an endpoint
// consults the first time it meets a peer; frames never touch it.
type ShmFabric struct {
	size  atomic.Int64
	mu    sync.Mutex          //motorlint:lockorder 30 channel
	rings map[[2]int]*shmRing // [from,to]
	bells map[int]*shmBell    // by rank
}

// NewShmFabric creates the substrate for an n-rank world.
func NewShmFabric(n int) *ShmFabric {
	f := &ShmFabric{rings: make(map[[2]int]*shmRing), bells: make(map[int]*shmBell)}
	f.size.Store(int64(n))
	return f
}

// bellLocked returns rank's bell, creating it on first use.
func (f *ShmFabric) bellLocked(rank int) *shmBell {
	b, ok := f.bells[rank]
	if !ok {
		b = new(shmBell)
		f.bells[rank] = b
	}
	return b
}

// Size returns the current number of ranks in the fabric.
func (f *ShmFabric) Size() int { return int(f.size.Load()) }

// Grow adds n ranks to the fabric (dynamic process management) and
// returns the first new rank id.
func (f *ShmFabric) Grow(n int) int {
	return int(f.size.Add(int64(n))) - n
}

func (f *ShmFabric) ring(from, to int) *shmRing {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := [2]int{from, to}
	r, ok := f.rings[key]
	if !ok {
		r = newShmRing()
		r.bell = f.bellLocked(to)
		f.rings[key] = r
	}
	return r
}

// Endpoint creates the channel for one rank of the fabric.
func (f *ShmFabric) Endpoint(rank int) *ShmChannel {
	f.mu.Lock()
	bell := f.bellLocked(rank)
	f.mu.Unlock()
	return &ShmChannel{fabric: f, rank: rank, bell: bell}
}

// ShmChannel is one rank's view of a ShmFabric. It caches the rings
// to and from every peer it has seen; attach extends the cache when
// the fabric has grown.
type ShmChannel struct {
	fabric  *ShmFabric
	rank    int
	closed  bool
	in, out []*shmRing // by peer rank; nil at the endpoint's own rank
	bell    *shmBell   // this rank's

	stats struct {
		framesSent  atomic.Uint64
		framesRecvd atomic.Uint64
		bytesSent   atomic.Uint64
		bytesRecvd  atomic.Uint64
	}
}

var (
	_ Channel     = (*ShmChannel)(nil)
	_ Lender      = (*ShmChannel)(nil)
	_ Doorbell    = (*ShmChannel)(nil)
	_ StatsSource = (*ShmChannel)(nil)
)

// SetWake implements Doorbell.
func (c *ShmChannel) SetWake(wake func()) { c.bell.wake.Store(&wake) }

// AddParked implements Doorbell.
func (c *ShmChannel) AddParked(n int) { c.bell.parked.Add(int32(n)) }

// attach caches the rings of peers [len(c.in), n).
func (c *ShmChannel) attach(n int) {
	for peer := len(c.in); peer < n; peer++ {
		var in, out *shmRing
		if peer != c.rank {
			in, out = c.fabric.ring(peer, c.rank), c.fabric.ring(c.rank, peer)
		}
		c.in, c.out = append(c.in, in), append(c.out, out)
	}
}

// TransportStats implements StatsSource.
func (c *ShmChannel) TransportStats() TransportStats {
	return TransportStats{
		FramesSent:  c.stats.framesSent.Load(),
		FramesRecvd: c.stats.framesRecvd.Load(),
		BytesSent:   c.stats.bytesSent.Load(),
		BytesRecvd:  c.stats.bytesRecvd.Load(),
	}
}

// Rank implements Channel.
func (c *ShmChannel) Rank() int { return c.rank }

// Size implements Channel.
func (c *ShmChannel) Size() int { return c.fabric.Size() }

// Send implements Channel: copy the payload into the ring slot, or
// into a slab if it does not fit, and queue it on the pair ring.
// Self-sends are the device's business (it delivers them locally), as
// on the sock channel.
func (c *ShmChannel) Send(dest int, hdr Header, payload []byte) error {
	return c.push(dest, hdr, payload, nil)
}

// Lend implements Lender: queue a reference to the payload, not a copy.
func (c *ShmChannel) Lend(dest int, hdr Header, loan *Loan) error {
	return c.push(dest, hdr, loan.payload, loan)
}

// push queues a frame for dest: lent if loan is set, else a copy.
func (c *ShmChannel) push(dest int, hdr Header, payload []byte, loan *Loan) error {
	if c.closed {
		return ErrClosed
	}
	if dest >= len(c.out) {
		c.attach(c.fabric.Size())
	}
	if dest < 0 || dest >= len(c.out) || dest == c.rank {
		return ErrRank
	}
	hdr.Size = uint32(len(payload))
	out := c.out[dest]
	out.publish(hdr, payload, loan)
	out.bell.ring()
	c.stats.framesSent.Add(1)
	c.stats.bytesSent.Add(uint64(len(payload)))
	if tr := obs.Active(); tr != nil {
		tr.Instant(c.rank, obs.KFrame,
			uint64(obs.FrameOut), uint64(hdr.Type), uint64(dest), uint64(len(payload)))
	}
	return nil
}

// Poll implements Channel: round-robin over the incoming rings.
func (c *ShmChannel) Poll(sink Sink) (bool, error) {
	if c.closed {
		return false, ErrClosed
	}
	if n := c.fabric.Size(); n > len(c.in) {
		c.attach(n)
	}
	var f shmFrame
	for _, ring := range c.in {
		if ring == nil {
			continue
		}
		if ring.pop(&f) {
			c.stats.framesRecvd.Add(1)
			c.stats.bytesRecvd.Add(uint64(f.hdr.Size))
			if tr := obs.Active(); tr != nil {
				tr.Instant(c.rank, obs.KFrame,
					uint64(obs.FrameIn), uint64(f.hdr.Type), uint64(f.hdr.Source), uint64(f.hdr.Size))
			}
			f.deliver(sink)
			return true, nil
		}
	}
	return false, nil
}

// Close implements Channel.
func (c *ShmChannel) Close() error {
	c.closed = true
	return nil
}
