// Package mp is the MPI layer of the Motor message-passing core: the
// platform- and interconnect-generic API over the ADI device (paper
// §6). It provides communicators with rank translation and context
// isolation, blocking / synchronous / immediate point-to-point
// operations, probes, and the collective operations of coll.go.
//
// Buffers at this layer are plain byte slices (or adi.Buffer for the
// Motor core's managed-heap ranges); datatype interpretation only
// matters to reduction operations (op.go).
package mp

import (
	"errors"
	"fmt"
	"sync/atomic"

	"motor/internal/mp/adi"
)

// Wildcards, re-exported from the device layer.
const (
	AnySource = adi.AnySource
	AnyTag    = adi.AnyTag
)

// ErrTransport is the typed error class for transport failures,
// re-exported from the device layer: a Wait/Test on a request whose
// peer connection died returns an error wrapping ErrTransport rather
// than hanging (check with errors.Is).
var ErrTransport = adi.ErrTransport

// ErrStale is returned by Test, Wait and Cancel through a Request
// handle whose request was recycled: the operation it names has
// completed, and its request now carries another one.
var ErrStale = errors.New("mp: stale request handle (request recycled)")

// MaxUserTag is the largest tag application code may use; larger
// values (and negative ones) are reserved for collectives.
const MaxUserTag = 1 << 28

// Status describes a completed receive in communicator rank terms.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// Request is a handle, held by value, to an immediate operation. It
// carries the id its device request was issued with: once the request
// is recycled for another operation the handle is stale, and Test,
// Wait and Cancel return ErrStale. The zero Request names no operation.
type Request struct {
	inner *adi.Request
	id    uint64
	comm  *Comm
}

func (c *Comm) handle(req *adi.Request) Request { return Request{inner: req, id: req.ID(), comm: c} }

// stale reports whether r's request has moved on to another operation.
func (r Request) stale() bool { return r.inner.ID() != r.id }

// Valid reports whether r names an operation (is not the zero Request).
func (r Request) Valid() bool { return r.inner != nil }

// Done reports whether the operation has completed (without driving
// progress; use Test to poll). Safe from any goroutine. A stale handle
// reports true: its request was only recycled after completing.
func (r Request) Done() bool { return r.stale() || r.inner.Done() }

// OnComplete registers f to run exactly once when the request
// completes — on whichever goroutine completes it (a background
// progress pass, a sibling thread's Wait, or f immediately if the
// request is already done). With an async progress engine running, a
// waiter can park on a channel that f closes instead of re-entering
// the polling-wait.
func (r Request) OnComplete(f func()) {
	if r.stale() {
		f()
		return
	}
	r.comm.dev.OnComplete(r.inner, f)
}

// Test makes one progress pass and reports completion (Comm.Test on
// the request's own communicator).
func (r Request) Test() (bool, Status, error) { return r.comm.Test(r) }

// Detach declares that the caller returns without driving the
// request: if it is still pending, the background progress engine (if
// any) is rung to move it. The nonblocking []byte forms (Isend,
// Irecv) detach what they post; the Buffer and OO forms leave
// it to a caller that will wait at once.
func (r Request) Detach() { r.comm.dev.Detach(r.inner) }

// Cancel withdraws an incomplete request from its device; it then
// completes with adi.ErrCancelled. A no-op on a completed request;
// ErrStale on a stale handle.
func (r Request) Cancel() error {
	if r.stale() {
		return ErrStale
	}
	r.comm.dev.CancelReq(r.inner)
	return nil
}

// Recycle hands a completed request back to its device for reuse
// (adi.Device.Recycle). Only the operation's one consumer may call it,
// after reading the final status; every copy of r is stale afterwards.
func (r Request) Recycle() {
	if !r.stale() {
		r.comm.dev.Recycle(r.inner)
	}
}

// Status returns the receive status in communicator ranks (valid
// once Done — inside an OnComplete continuation, for example).
func (r Request) Status() Status { return r.comm.status(r.inner.Status()) }

// Err returns the request's terminal error (valid once Done).
func (r Request) Err() error { return r.inner.Err() }

// Peer returns the world rank (not the communicator rank) the request
// waits on — the numbering the stall watchdog reports — or AnySource.
func (r Request) Peer() int { return r.inner.Peer() }

// Comm is a communicator: an isolated context over an ordered group
// of world ranks.
type Comm struct {
	dev    *adi.Device
	ctx    int32 // point-to-point context id
	cctx   int32 // collective context id (ctx+1)
	ranks  []int // communicator rank -> world rank
	myRank int   // my rank within this communicator

	// nextCtx allocates child context ids. Communicator construction
	// is collective and SPMD-deterministic, so all members compute
	// identical ids.
	nextCtx int32

	// coll is the collective configuration and counters, shared with
	// every communicator derived from the same world (collalgo.go).
	// collSeq is this communicator's own collective sequence number,
	// mixed into collective tags so back-to-back collectives never
	// cross-match (coll.go).
	coll    *collConfig
	collSeq uint32

	// ooSeq sequences OO collective part streams (oo.go), mixed into
	// their tags the same way collSeq is for buffered collectives.
	ooSeq uint32
}

// errInvalid flags API misuse.
var errInvalid = errors.New("mp: invalid argument")

func newComm(dev *adi.Device, ctx int32, ranks []int, myWorldRank int, coll *collConfig) *Comm {
	if coll == nil {
		coll = &collConfig{}
	}
	c := &Comm{dev: dev, ctx: ctx, cctx: ctx + 1, ranks: ranks, myRank: -1, nextCtx: ctx + 2, coll: coll}
	for i, wr := range ranks {
		if wr == myWorldRank {
			c.myRank = i
		}
	}
	return c
}

// Rank returns the calling process's rank in this communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(rank int) int { return c.ranks[rank] }

// Device exposes the underlying progress engine.
func (c *Comm) Device() *adi.Device { return c.dev }

// commRankOf translates a world rank back to this communicator's
// numbering (-1 when the world rank is not a member).
func (c *Comm) commRankOf(world int) int {
	for i, wr := range c.ranks {
		if wr == world {
			return i
		}
	}
	return -1
}

func (c *Comm) checkDest(rank int) error {
	if rank < 0 || rank >= len(c.ranks) {
		return fmt.Errorf("%w: rank %d of %d", errInvalid, rank, len(c.ranks))
	}
	return nil
}

func (c *Comm) checkTag(tag int) error {
	if tag < 0 || tag > MaxUserTag {
		return fmt.Errorf("%w: tag %d", errInvalid, tag)
	}
	return nil
}

func (c *Comm) status(s adi.Status) Status {
	return Status{Source: c.commRankOf(s.Source), Tag: s.Tag, Count: s.Count}
}

// --- point-to-point ----------------------------------------------------------

// IsendBuffer starts an immediate send of an abstract buffer. This is
// the entry point the Motor core uses with managed-heap ranges; plain
// code should prefer Isend.
func (c *Comm) IsendBuffer(buf adi.Buffer, dest, tag int, sync bool) (Request, error) {
	if err := c.checkDest(dest); err != nil {
		return Request{}, err
	}
	if err := c.checkTag(tag); err != nil {
		return Request{}, err
	}
	req, err := c.dev.Isend(buf, c.ranks[dest], tag, c.ctx, sync)
	if err != nil {
		return Request{}, err
	}
	return c.handle(req), nil
}

// IrecvBuffer starts an immediate receive into an abstract buffer.
func (c *Comm) IrecvBuffer(buf adi.Buffer, source, tag int) (Request, error) {
	worldSrc := adi.AnySource
	if source != AnySource {
		if err := c.checkDest(source); err != nil {
			return Request{}, err
		}
		worldSrc = c.ranks[source]
	}
	if tag != AnyTag {
		if err := c.checkTag(tag); err != nil {
			return Request{}, err
		}
	}
	req, err := c.dev.Irecv(buf, worldSrc, tag, c.ctx)
	if err != nil {
		return Request{}, err
	}
	return c.handle(req), nil
}

// Isend starts an immediate standard-mode send.
func (c *Comm) Isend(buf []byte, dest, tag int) (Request, error) {
	return detach(c.IsendBuffer(adi.SliceBuf(buf), dest, tag, false))
}

// Irecv starts an immediate receive.
func (c *Comm) Irecv(buf []byte, source, tag int) (Request, error) {
	return detach(c.IrecvBuffer(adi.SliceBuf(buf), source, tag))
}

func detach(req Request, err error) (Request, error) {
	if err == nil {
		req.Detach()
	}
	return req, err
}

// Send performs a blocking standard-mode send.
func (c *Comm) Send(buf []byte, dest, tag int) error {
	_, err := c.waitRecycle(c.IsendBuffer(adi.SliceBuf(buf), dest, tag, false))
	return err
}

// Ssend performs a blocking synchronous-mode send.
func (c *Comm) Ssend(buf []byte, dest, tag int) error {
	_, err := c.waitRecycle(c.IsendBuffer(adi.SliceBuf(buf), dest, tag, true))
	return err
}

// Recv performs a blocking receive.
func (c *Comm) Recv(buf []byte, source, tag int) (Status, error) {
	return c.waitRecycle(c.IrecvBuffer(adi.SliceBuf(buf), source, tag))
}

// waitRecycle is a blocking operation's tail: wait for the request it
// posted, then recycle it, since nothing else holds its handle.
func (c *Comm) waitRecycle(req Request, err error) (Status, error) {
	if err != nil {
		return Status{}, err
	}
	st, err := c.Wait(req)
	req.Recycle()
	return st, err
}

// Wait blocks (polling-wait) until the request completes.
func (c *Comm) Wait(req Request) (Status, error) {
	if req.stale() {
		return Status{}, ErrStale
	}
	s, err := c.dev.WaitReq(req.inner)
	return c.status(s), err
}

// Test makes one progress pass and reports completion.
func (c *Comm) Test(req Request) (bool, Status, error) {
	if req.stale() {
		return false, Status{}, ErrStale
	}
	done, s, err := c.dev.TestReq(req.inner)
	if !done {
		return false, Status{}, err
	}
	return true, c.status(s), err
}

// WaitAll waits for every request, returning the first error. Zero
// Requests are skipped.
func (c *Comm) WaitAll(reqs ...Request) error {
	var first error
	for _, r := range reqs {
		if !r.Valid() {
			continue
		}
		if _, err := c.Wait(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Iprobe reports whether a matching message is available.
func (c *Comm) Iprobe(source, tag int) (bool, Status, error) {
	worldSrc := adi.AnySource
	if source != AnySource {
		if err := c.checkDest(source); err != nil {
			return false, Status{}, err
		}
		worldSrc = c.ranks[source]
	}
	ok, s, err := c.dev.Iprobe(worldSrc, tag, c.ctx)
	if !ok {
		return false, Status{}, err
	}
	return true, c.status(s), err
}

// Probe blocks until a matching message is available: it posts a
// probe request and waits for it like any other.
func (c *Comm) Probe(source, tag int) (Status, error) {
	return c.waitRecycle(c.probe(source, tag))
}

// probe posts a probe (adi.Device.Probe): a request that completes
// when a matching message is available, with its status, and leaves
// the message to a receive.
func (c *Comm) probe(source, tag int) (Request, error) {
	worldSrc := adi.AnySource
	if source != AnySource {
		if err := c.checkDest(source); err != nil {
			return Request{}, err
		}
		worldSrc = c.ranks[source]
	}
	req, err := c.dev.Probe(worldSrc, tag, c.ctx)
	if err != nil {
		return Request{}, err
	}
	return c.handle(req), nil
}

// --- communicator management ---------------------------------------------------

// allocCtxPair reserves a (pt2pt, collective) context id pair. All
// members execute the same communicator-construction sequence, so the
// ids agree without communication (as in classic MPICH).
func (c *Comm) allocCtxPair(n int32) int32 {
	return atomic.AddInt32(&c.nextCtx, 2*n) - 2*n
}

// Dup creates a communicator with the same group but an isolated
// context. Collective: every member must call it.
func (c *Comm) Dup() *Comm {
	ctx := c.allocCtxPair(1)
	ranks := append([]int(nil), c.ranks...)
	return newComm(c.dev, ctx, ranks, c.dev.Rank(), c.coll)
}

// Split partitions the communicator by color; ranks within each new
// communicator are ordered by key (ties by old rank). Collective.
// A negative color yields a nil communicator for that caller, but the
// caller still participates in the exchange.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Allgather (color, key) over the collective context.
	mine := [2]int32{int32(color), int32(key)}
	all := make([][2]int32, c.Size())
	if err := c.allgatherPairs(mine, all); err != nil {
		return nil, err
	}
	// Deterministic context assignment: distinct non-negative colors
	// in ascending order each claim one context pair.
	var colors []int32
	for _, p := range all {
		if p[0] < 0 {
			continue
		}
		seen := false
		for _, cc := range colors {
			if cc == p[0] {
				seen = true
				break
			}
		}
		if !seen {
			colors = append(colors, p[0])
		}
	}
	sortInt32s(colors)
	base := c.allocCtxPair(int32(len(colors)))
	if color < 0 {
		return nil, nil
	}
	var ctx int32
	for i, cc := range colors {
		if cc == int32(color) {
			ctx = base + int32(2*i)
		}
	}
	// Members of my color, ordered by (key, old rank).
	type member struct {
		key     int32
		oldRank int
	}
	var members []member
	for r, p := range all {
		if p[0] == int32(color) {
			members = append(members, member{p[1], r})
		}
	}
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && (members[j].key < members[j-1].key ||
			(members[j].key == members[j-1].key && members[j].oldRank < members[j-1].oldRank)); j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	ranks := make([]int, len(members))
	for i, m := range members {
		ranks[i] = c.ranks[m.oldRank]
	}
	return newComm(c.dev, ctx, ranks, c.dev.Rank(), c.coll), nil
}

func sortInt32s(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// allgatherPairs is a tiny fixed-payload allgather used by Split
// before general collectives are in play.
func (c *Comm) allgatherPairs(mine [2]int32, out [][2]int32) error {
	buf := make([]byte, 8)
	putI32(buf, 0, mine[0])
	putI32(buf, 4, mine[1])
	gathered := make([]byte, 8*c.Size())
	if err := c.Allgather(buf, gathered); err != nil {
		return err
	}
	for i := range out {
		out[i][0] = getI32(gathered, i*8)
		out[i][1] = getI32(gathered, i*8+4)
	}
	return nil
}
