// Package adi implements the device layer of the message-passing
// core — the analogue of MPICH2's CH3 device over the Abstract
// Device Interface (paper §6): message matching (posted and
// unexpected queues), packetizing, and the eager / rendezvous
// transfer protocols, all driven by a polling progress engine.
//
// The device is transport-agnostic: it talks to any channel.Channel.
// A Buffer may be a range of a managed heap: the Motor core hands the
// device a pinned object's bytes in place, the mechanism behind
// zero-copy transfers into pinned objects.
package adi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"motor/internal/mp/channel"
	"motor/internal/obs"
)

// Wildcards for receive matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Errors surfaced by the device (MPI error classes).
var (
	ErrTruncate = errors.New("adi: message truncated (receive buffer too small)")
	ErrRank     = errors.New("adi: rank out of range")
	ErrState    = errors.New("adi: request in invalid state")
	// ErrTransport is the typed error class for transport failures: a
	// reset, poisoned or prematurely-closed peer connection. Requests
	// bound to the failed peer complete with an error wrapping
	// ErrTransport instead of hanging the progress engine; the rest of
	// the world keeps running.
	ErrTransport = errors.New("adi: transport failure")
	// ErrCancelled is the terminal error of a request abandoned via
	// CancelReq (collective error-drain paths).
	ErrCancelled = errors.New("adi: request cancelled")
)

// Buffer is a contiguous transfer buffer: a byte slice resolved once,
// when the operation posts. A managed heap's arena is reserved whole and
// never moves, so a pinned object's bytes stay where they were posted.
type Buffer []byte

// SliceBuf adapts a plain []byte.
func SliceBuf(b []byte) Buffer { return b }

// Status describes a completed receive.
type Status struct {
	Source int // world rank of the sender
	Tag    int
	Count  int // delivered bytes
}

// reqKind discriminates requests.
type reqKind uint8

const (
	reqSend reqKind = iota
	reqRecv
	reqProbe // completes when a matching message is available, takes none
)

// reqState tracks protocol progress.
type reqState uint32

const (
	stActive   reqState = iota // posted / awaiting protocol step
	stComplete                 // done (check Err)
	stFree                     // on the device's free list (Recycle)
)

// Request is a pending point-to-point operation.
//
// A request is recycled only when its one consumer returns it
// (Device.Recycle); others are left to the garbage collector. Every
// post takes a fresh id, so a handle that remembers its id (ID) can
// tell that its request has moved on.
type Request struct {
	id   uint64
	kind reqKind
	next *Request // free-list link (device lock)

	buf  Buffer
	peer int // dest for sends, source (or AnySource) for recvs
	tag  int
	ctx  int32

	sync bool // synchronous send: complete only when matched

	// loan is set (device lock) when a rendezvous send's RTS lends buf
	// (shm): the send completes when the receive that matches it has
	// copied buf out, it can be cancelled only until a receiver claims
	// the loan (CancelReq), and its waits help with that copy
	// (progressFor).
	loan *channel.Loan

	// state is written last on every completion path (an atomic
	// release store in complete) and loaded first by readers (an
	// atomic acquire load in Done), so err and status — written
	// before the store — are visible to any goroutine that has
	// observed Done() == true, without taking the device lock.
	state  atomic.Uint32
	err    error
	status Status

	// onDone holds completion continuations (device lock). They are
	// queued by complete and run after the device lock is released —
	// never under it, since a continuation may re-enter the device
	// (a parked waiter immediately testing its request).
	onDone []func()

	// Trace identity, assigned at post time when a tracer is active.
	// The request's lifetime is an async obs span: it can complete
	// under a different engine op than the one that posted it (or
	// under none), so it cannot live on the lane's span stack.
	traceSpan   uint64
	traceParent uint64
	traceStart  int64

	// edgeSeq remembers the correlation sequence stamped on this
	// send's RTS so a sock DATA packet carries the same id (the
	// receiver records its edge:recv when the payload lands, not when
	// the announcement arrives).
	edgeSeq uint32
}

// ID returns the id of the operation the request currently carries.
func (r *Request) ID() uint64 { return r.id }

// Done reports completion (poll via Device.TestReq). Safe to call
// from any goroutine — this is the check conditional pin requests
// evaluate during the collector's mark phase while a background
// progress engine may be completing the request.
func (r *Request) Done() bool { return reqState(r.state.Load()) == stComplete }

// Err returns the request's terminal error, if any (valid once Done).
func (r *Request) Err() error { return r.err }

// Status returns the receive status (valid once Done).
func (r *Request) Status() Status { return r.status }

// Peer returns the world rank the request waits on: the destination of
// a send, the source of a receive (AnySource for a wildcard receive).
func (r *Request) Peer() int { return r.peer }

// unexpected holds an arrived-but-unmatched message.
type unexpected struct {
	hdr     channel.Header
	payload []byte        // eager payload copy; nil for RTS
	loan    *channel.Loan // a lent RTS's payload (shm); nil otherwise
}

// DeviceStats counts protocol activity; the Motor pinning-policy
// tests and cmd/mpstat read these.
type DeviceStats struct {
	EagerSent  uint64
	RndvSent   uint64
	EagerRecvd uint64
	DataRecvd  uint64
	Unexpected uint64
	Polls      uint64
	Deliveries uint64
	BytesSent  uint64
	BytesRecvd uint64
	// TransportErrors counts requests (or operation starts) that
	// failed with ErrTransport; PeersLost counts peer connections
	// declared dead by the channel.
	TransportErrors uint64
	PeersLost       uint64
	// Cancelled counts requests abandoned via CancelReq.
	Cancelled uint64
	// HalvesHelped counts halves of lent rendezvous payloads this
	// rank's waits copied into the receiver's buffer (channel.Loan.Help).
	HalvesHelped uint64
}

// Device is one rank's progress engine and matching state.
//
// Every public method is safe for concurrent use: all matching and
// protocol state is guarded by one mutex, so multiple guest threads
// and a background progress engine (mp.Progress) can share a rank.
// The lock order is strictly device mutex → channel internals; the
// device never blocks on anything but the channel while holding its
// lock, and the embedder yield (Yield, the Motor GC poll) only runs
// from Idle, outside the lock — a GC hook may therefore call
// Progress without deadlocking.
type Device struct {
	mu sync.Mutex //motorlint:lockorder 20 device

	ch   channel.Channel
	rank int

	eagerMax int

	posted []*Request   // posted receives and probes, FIFO
	unexp  []unexpected // unexpected arrivals, FIFO
	active map[uint64]*Request
	nextID uint64
	free   *Request // recycled requests (Recycle), linked by next

	// Yield is invoked inside blocking waits between progress polls.
	// The Motor core points it at the managed thread's GC poll — the
	// polling-wait of paper §7.1/§7.4. Nil is allowed.
	Yield func()

	// tmp is scratch for unexpected eager payload delivery.
	tmp []byte
	// spare holds up to maxSpare eager payload buffers a matched
	// unexpected arrival has given back, for the next one to reuse.
	spare [][]byte

	// deliver state for the in-flight packet between Deliver and Done.
	curReq   *Request
	curUnexp bool

	// pendingSelfSyncs are synchronous self-sends awaiting their
	// local match.
	pendingSelfSyncs []selfSync

	// lost remembers peers declared dead, with the failure that killed
	// them. Peer death is a sticky condition: a send or receive posted
	// after the failure must fail immediately — the edge-triggered
	// failPeer sweep can only reach requests that already exist, and a
	// later post would otherwise wait forever on a peer that can no
	// longer answer (a receive touches no connection, so the channel
	// cannot refuse it).
	lost map[int]error

	// cbq holds completion continuations queued by complete while the
	// lock was held; unlockNotify drains it after release.
	cbq []func()

	// wake, when set (SetWake), is the background progress engine's
	// doorbell, rung by Detach for a request nobody drives.
	wake func()

	// Stats is guarded by mu. Concurrent readers (the obs registry,
	// mpstat -metrics) must use StatsSnapshot; direct field access is
	// only safe when nothing else touches the device.
	Stats DeviceStats

	// edgeSeq holds the per-destination trace correlation counters
	// (guarded by mu, allocated on first stamped send). Seq 0 is
	// reserved for "unstamped", so counters start at 1.
	edgeSeq []uint32
}

// DefaultEagerMax is the eager/rendezvous switchover. Messages at or
// below this size are sent eagerly; larger ones use rendezvous (one
// lent RTS on shm, RTS/CTS/DATA on sock) and land in the posted buffer
// without an intermediate copy.
const DefaultEagerMax = 64 << 10

// NewDevice wraps a channel endpoint.
func NewDevice(ch channel.Channel, eagerMax int) *Device {
	if eagerMax <= 0 {
		eagerMax = DefaultEagerMax
	}
	return &Device{
		ch:       ch,
		rank:     ch.Rank(),
		eagerMax: eagerMax,
		active:   make(map[uint64]*Request),
	}
}

// Rank returns this device's world rank.
func (d *Device) Rank() int { return d.rank }

// Size returns the world size.
func (d *Device) Size() int { return d.ch.Size() }

// EagerMax returns the eager threshold.
func (d *Device) EagerMax() int { return d.eagerMax }

// Channel exposes the underlying channel (stats surfaces, tests).
func (d *Device) Channel() channel.Channel { return d.ch }

func (d *Device) newRequest(kind reqKind, buf Buffer, peer, tag int, ctx int32) *Request {
	d.nextID++
	req := d.free
	if req != nil {
		d.free = req.next
		req.next, req.sync, req.err, req.status, req.edgeSeq = nil, false, nil, Status{}, 0
		req.state.Store(uint32(stActive))
	} else {
		req = new(Request)
	}
	req.id, req.kind, req.buf, req.peer, req.tag, req.ctx = d.nextID, kind, buf, peer, tag, ctx
	if tr := obs.Active(); tr != nil {
		req.traceSpan = tr.NewSpanID()
		req.traceParent = tr.Current(d.rank)
		req.traceStart = tr.Now()
	}
	return req
}

// Recycle returns a completed request to the free list, where a later
// post reuses it under a fresh id. Only its one consumer may call it,
// once it has read the final status. A request that is incomplete,
// already free, or still registered as active is left to the garbage
// collector (a completed lent send's loan has run its release).
func (d *Device) Recycle(req *Request) {
	d.mu.Lock()
	if reqState(req.state.Load()) == stComplete && req.onDone == nil && d.active[req.id] != req {
		req.state.Store(uint32(stFree))
		req.id, req.buf, req.loan = 0, nil, nil // ids start at 1: every handle is stale now
		req.next, d.free = d.free, req
	}
	d.mu.Unlock()
}

// SetWake installs (or clears, with nil) the doorbell: Detach rings it
// for a request left with no driver, so a parked background progress
// engine can cut its sleep short. On a channel.Doorbell channel it is
// also what a peer's frame rings while AddParked's count is > 0.
// Install it before the device is shared between goroutines.
func (d *Device) SetWake(wake func()) {
	d.mu.Lock()
	d.wake = wake
	d.mu.Unlock()
	if bell, ok := d.ch.(channel.Doorbell); ok {
		bell.SetWake(wake)
	}
}

// AddParked adds n to the count of this rank's waiters parked until a
// completion continuation fires. While it is > 0, a peer's frame to
// this rank rings the wake doorbell. A waiter raises it before its
// last Test and lowers it after waking. A no-op on channels without a
// doorbell, where the progress engine's idle timer finds the frame.
func (d *Device) AddParked(n int) {
	if bell, ok := d.ch.(channel.Doorbell); ok {
		bell.AddParked(n)
	}
}

// OnComplete registers a continuation that runs exactly once when the
// request completes — on whichever goroutine's device call (or
// progress pass) completes it, after the device lock is released. A
// request that is already complete runs f immediately on the calling
// goroutine. This is what lets Isend/Irecv finish without the caller
// ever re-entering Wait.
func (d *Device) OnComplete(req *Request, f func()) {
	d.mu.Lock()
	if req.Done() {
		d.mu.Unlock()
		f()
		return
	}
	req.onDone = append(req.onDone, f)
	d.mu.Unlock()
}

// unlockNotify releases the device lock and then runs the completion
// continuations queued since it was taken. Every public entry point
// that can complete requests exits through here; continuations must
// not run under the lock because they may re-enter the device.
func (d *Device) unlockNotify() {
	cbs := d.cbq
	if cbs != nil {
		d.cbq = nil
	}
	d.mu.Unlock()
	for _, cb := range cbs {
		cb()
	}
}

// Detach rings the wake doorbell if req is still pending: its poster
// returns without driving it (a nonblocking post), so only the
// background progress engine can move it until someone waits. A
// blocking post never calls it; its wait drives the request itself.
func (d *Device) Detach(req *Request) {
	d.mu.Lock()
	wake := d.wake
	d.mu.Unlock()
	if wake != nil && !req.Done() {
		wake()
	}
}

// complete marks a request terminal and emits its trace span. Every
// completion path funnels through here (lock held) so the request's
// full lifetime (post → protocol steps → completion/cancel/failure)
// is observable no matter which step finished it.
func (d *Device) complete(req *Request) {
	// err and status are fully written by now; the release store
	// publishes them to lock-free Done readers.
	req.state.Store(uint32(stComplete))
	if len(req.onDone) > 0 {
		d.cbq = append(d.cbq, req.onDone...)
		req.onDone = nil
	}
	if req.traceSpan == 0 {
		return
	}
	if tr := obs.Active(); tr != nil {
		dir := obs.ReqRecv
		if req.kind == reqSend {
			dir = obs.ReqSend
		}
		peer := req.peer
		if peer < 0 { // AnySource: report the matched sender
			peer = req.status.Source
		}
		tr.Span(d.rank, obs.KADIReq, req.traceSpan, req.traceParent, req.traceStart,
			uint64(dir), uint64(peer), uint64(len(req.buf)))
	}
	req.traceSpan = 0
}

// --- send path --------------------------------------------------------------

// Isend starts a (buffered-eager or rendezvous) send of buf to world
// rank dest and returns immediately. Sends to the device's own rank
// are delivered locally without touching the channel (MPI requires
// self-sends to work on every transport).
func (d *Device) Isend(buf Buffer, dest, tag int, ctx int32, sync bool) (*Request, error) {
	d.mu.Lock()
	req, err := d.isendLocked(buf, dest, tag, ctx, sync)
	d.unlockNotify()
	return req, err
}

func (d *Device) isendLocked(buf Buffer, dest, tag int, ctx int32, sync bool) (*Request, error) {
	if dest < 0 || dest >= d.Size() {
		return nil, fmt.Errorf("%w: dest %d of %d", ErrRank, dest, d.Size())
	}
	if dest == d.rank {
		return d.selfSend(buf, tag, ctx, sync)
	}
	if werr := d.lostErr(dest); werr != nil {
		return nil, werr
	}
	req := d.newRequest(reqSend, buf, dest, tag, ctx)
	req.sync = sync
	size := len(buf)
	if !sync && size <= d.eagerMax {
		hdr := channel.Header{
			Type: channel.PktEager, Source: int32(d.rank),
			Tag: int32(tag), Context: ctx, ReqA: req.id,
		}
		d.stampEdge(&hdr, dest, size)
		if err := d.ch.Send(dest, hdr, buf); err != nil {
			return nil, d.transportErr(err)
		}
		d.Stats.EagerSent++
		d.Stats.BytesSent += uint64(size)
		d.complete(req)
		return req, nil
	}
	// Rendezvous: announce, advertising the transfer size in ReqB. On
	// shm the RTS lends buf: the receive that matches it copies buf
	// straight into its own buffer and then completes req (lentDone).
	// On sock it carries no payload and waits for clear-to-send.
	hdr := channel.Header{
		Type: channel.PktRTS, Source: int32(d.rank),
		Tag: int32(tag), Context: ctx, ReqA: req.id, ReqB: uint64(size),
	}
	d.stampEdge(&hdr, dest, size)
	req.edgeSeq = hdr.Seq
	if l, ok := d.ch.(channel.Lender); ok {
		loan := channel.NewLoan(buf, func() { d.lentDone(req) })
		if err := l.Lend(dest, hdr, loan); err != nil {
			return nil, d.transportErr(err)
		}
		req.loan = loan
		d.Stats.BytesSent += uint64(size)
	} else if err := d.ch.Send(dest, hdr, nil); err != nil {
		return nil, d.transportErr(err)
	}
	d.Stats.RndvSent++
	d.active[req.id] = req
	return req, nil
}

// stampEdge assigns the next per-destination correlation sequence to
// a message-bearing packet (eager or RTS) and records the sender's
// half of the cross-rank edge. Lock held. When tracing is off the
// header keeps Seq 0, so the merge pass sees exactly the messages
// that were stamped — never a half-traced run's leftovers.
func (d *Device) stampEdge(hdr *channel.Header, dest, bytes int) {
	tr := obs.Active()
	if tr == nil {
		return
	}
	if d.edgeSeq == nil {
		d.edgeSeq = make([]uint32, d.Size())
	}
	d.edgeSeq[dest]++
	hdr.Seq = d.edgeSeq[dest]
	tr.Instant(d.rank, obs.KEdge, uint64(obs.EdgeSend),
		obs.PackCorr(d.rank, dest, hdr.Seq),
		uint64(uint32(hdr.Context))<<32|uint64(uint32(hdr.Tag)), uint64(bytes))
}

// noteEdgeRecv records the receiver's half of a stamped message edge
// at payload arrival (eager delivery or rendezvous DATA). Arrival —
// not match — time is what the merge pass wants: it lower-bounds the
// clock offset between the two ranks regardless of when the local
// receive is finally posted.
func (d *Device) noteEdgeRecv(hdr channel.Header) {
	if hdr.Seq == 0 {
		return
	}
	tr := obs.Active()
	if tr == nil {
		return
	}
	tr.Instant(d.rank, obs.KEdge, uint64(obs.EdgeRecv),
		obs.PackCorr(int(hdr.Source), d.rank, hdr.Seq),
		uint64(uint32(hdr.Context))<<32|uint64(uint32(hdr.Tag)), uint64(hdr.Size))
}

// selfSend delivers a message locally: an immediately-matched posted
// receive gets the payload copied straight across; otherwise the
// payload is buffered on the unexpected queue. Synchronous self-sends
// complete when matched, which for the unexpected case means a
// matching receive must eventually be posted from the same rank (the
// usual Isend-self / Irecv-self pairing).
func (d *Device) selfSend(buf Buffer, tag int, ctx int32, sync bool) (*Request, error) {
	req := d.newRequest(reqSend, buf, d.rank, tag, ctx)
	// ReqA carries the request id so each pending synchronous
	// self-send can be distinguished even when tags and sizes match.
	hdr := channel.Header{
		Type: channel.PktEager, Source: int32(d.rank),
		Tag: int32(tag), Context: ctx, Size: uint32(len(buf)), ReqA: req.id,
	}
	if posted := d.matchPosted(hdr); posted != nil {
		d.completeEagerRecv(posted, hdr, buf)
		delete(d.active, posted.id)
		d.complete(req)
		d.Stats.BytesSent += uint64(len(buf))
		return req, nil
	}
	d.queueUnexpected(hdr, buf)
	if sync {
		// Complete when a local receive matches: reuse the
		// conditional machinery by checking on Test/Wait.
		req.sync = true
		d.active[req.id] = req
		d.pendingSelfSyncs = append(d.pendingSelfSyncs, selfSync{req: req, hdr: hdr})
		return req, nil
	}
	d.complete(req)
	d.Stats.BytesSent += uint64(len(buf))
	return req, nil
}

// selfSync tracks a synchronous self-send awaiting its local match.
type selfSync struct {
	req *Request
	hdr channel.Header
}

// resolveSelfSyncs completes synchronous self-sends whose unexpected
// entry has been consumed by a local receive.
func (d *Device) resolveSelfSyncs() {
	if len(d.pendingSelfSyncs) == 0 {
		return
	}
	kept := d.pendingSelfSyncs[:0]
	for _, ss := range d.pendingSelfSyncs {
		consumed := true
		for i := range d.unexp {
			if d.unexp[i].hdr == ss.hdr {
				consumed = false
				break
			}
		}
		if consumed {
			d.complete(ss.req)
			delete(d.active, ss.req.id)
			d.Stats.BytesSent += uint64(len(ss.req.buf))
		} else {
			kept = append(kept, ss)
		}
	}
	d.pendingSelfSyncs = kept
}

// --- receive path -------------------------------------------------------------

// Irecv posts a receive and returns immediately. Earlier unexpected
// arrivals are matched first, preserving MPI ordering semantics.
func (d *Device) Irecv(buf Buffer, source, tag int, ctx int32) (*Request, error) {
	d.mu.Lock()
	req, err := d.irecvLocked(buf, source, tag, ctx)
	d.unlockNotify()
	return req, err
}

func (d *Device) irecvLocked(buf Buffer, source, tag int, ctx int32) (*Request, error) {
	if source != AnySource && (source < 0 || source >= d.Size()) {
		return nil, fmt.Errorf("%w: source %d of %d", ErrRank, source, d.Size())
	}
	req := d.newRequest(reqRecv, buf, source, tag, ctx)
	for i := 0; i < len(d.unexp); i++ {
		u := d.unexp[i]
		if !matches(req, u.hdr) {
			continue
		}
		d.unexp = append(d.unexp[:i], d.unexp[i+1:]...)
		switch {
		case u.loan != nil:
			if !d.takeLoan(req, u.hdr, u.loan) {
				i-- // its send was cancelled: dropped, the next may match
				continue
			}
		case u.hdr.Type == channel.PktEager:
			d.completeEagerRecv(req, u.hdr, u.payload)
			if len(d.spare) < maxSpare && cap(u.payload) <= d.eagerMax {
				d.spare = append(d.spare, u.payload)
			}
		default: // a sock RTS
			d.acceptRendezvous(req, u.hdr)
		}
		return req, nil
	}
	return d.post(req)
}

// post queues a receive or probe the unexpected queue did not satisfy.
// Only then is a dead source's failure reported: traffic that arrived
// before a peer died is still valid and must stay receivable.
func (d *Device) post(req *Request) (*Request, error) {
	if werr := d.lostErr(req.peer); werr != nil {
		return nil, werr
	}
	d.posted = append(d.posted, req)
	d.active[req.id] = req
	return req, nil
}

// lostErr returns, and counts, the failure that killed peer; nil for a
// live peer or AnySource.
func (d *Device) lostErr(peer int) error {
	werr, dead := d.lost[peer]
	if dead {
		d.Stats.TransportErrors++
	}
	return werr
}

// maxSpare bounds the device's recycled eager payload buffers.
const maxSpare = 16

// queueUnexpected queues an eager arrival no posted receive matched,
// its payload copied into a recycled buffer when there is one.
func (d *Device) queueUnexpected(hdr channel.Header, payload []byte) {
	var buf []byte
	if n := len(d.spare); n > 0 {
		buf, d.spare = d.spare[n-1][:0], d.spare[:n-1]
	}
	d.Stats.Unexpected++
	d.unexp = append(d.unexp, unexpected{hdr: hdr, payload: append(buf, payload...)})
}

// completeEagerRecv copies an already-buffered eager payload into the
// request's buffer.
func (d *Device) completeEagerRecv(req *Request, hdr channel.Header, payload []byte) {
	n := int(hdr.Size)
	if n > len(req.buf) {
		req.err = fmt.Errorf("%w: got %d bytes into %d-byte buffer", ErrTruncate, n, len(req.buf))
		n = len(req.buf)
	}
	copy(req.buf[:n], payload[:n])
	req.status = Status{Source: int(hdr.Source), Tag: int(hdr.Tag), Count: n}
	d.complete(req)
	d.Stats.BytesRecvd += uint64(n)
}

// takeLoan copies a lent RTS's payload into req's buffer, as much as
// fits, and completes req. The sender's release joins the completion
// continuations after req's own, so lentDone runs once this device's
// lock is dropped and never under two device locks. It reports false,
// leaving req untouched, if the send was cancelled first (its loan
// revoked).
func (d *Device) takeLoan(req *Request, rts channel.Header, loan *channel.Loan) bool {
	release := loan.CopyOut(req.buf)
	if release == nil {
		return false
	}
	size, n := int(rts.ReqB), min(int(rts.ReqB), len(req.buf))
	if size > n {
		req.err = fmt.Errorf("%w: rendezvous %d bytes into %d-byte buffer", ErrTruncate, size, n)
	}
	req.status = Status{Source: int(rts.Source), Tag: int(rts.Tag), Count: n}
	d.Stats.DataRecvd++
	d.Stats.BytesRecvd += uint64(n)
	d.noteEdgeRecv(rts)
	delete(d.active, req.id)
	d.complete(req)
	d.cbq = append(d.cbq, release)
	return true
}

// acceptRendezvous answers a matched sock RTS with a CTS; the DATA
// packet will be steered directly into req's buffer.
func (d *Device) acceptRendezvous(req *Request, rts channel.Header) {
	size := int(rts.ReqB) // advertised transfer size
	if size > len(req.buf) {
		req.err = fmt.Errorf("%w: rendezvous %d bytes into %d-byte buffer", ErrTruncate, size, len(req.buf))
	}
	req.status = Status{Source: int(rts.Source), Tag: int(rts.Tag), Count: size}
	d.active[req.id] = req
	cts := channel.Header{
		Type: channel.PktCTS, Source: int32(d.rank),
		Tag: rts.Tag, Context: rts.Context,
		ReqA: rts.ReqA, ReqB: req.id,
	}
	if err := d.ch.Send(int(rts.Source), cts, nil); err != nil && req.err == nil {
		req.err = d.transportErr(err)
		d.complete(req)
		delete(d.active, req.id)
	}
}

func matches(req *Request, hdr channel.Header) bool {
	if req.ctx != hdr.Context {
		return false
	}
	if req.peer != AnySource && int32(req.peer) != hdr.Source {
		return false
	}
	if req.tag != AnyTag && int32(req.tag) != hdr.Tag {
		return false
	}
	return true
}

// matchPosted removes and returns the first posted receive matching
// hdr (findPosted), or nil.
func (d *Device) matchPosted(hdr channel.Header) *Request {
	i := d.findPosted(hdr)
	if i < 0 {
		return nil
	}
	req := d.posted[i]
	d.posted = append(d.posted[:i], d.posted[i+1:]...)
	return req
}

// findPosted returns the index of the first posted receive matching
// hdr, or -1. Each matching probe it passes completes and leaves the
// queue: the message goes on to a receive or the unexpected queue.
func (d *Device) findPosted(hdr channel.Header) int {
	for i := 0; i < len(d.posted); i++ {
		req := d.posted[i]
		if !matches(req, hdr) {
			continue
		}
		if req.kind != reqProbe {
			return i
		}
		d.posted = append(d.posted[:i], d.posted[i+1:]...)
		i--
		req.status = probeStatus(hdr)
		delete(d.active, req.id)
		d.complete(req)
	}
	return -1
}

// probeStatus is what a probe reports of hdr's message: its whole size.
func probeStatus(hdr channel.Header) Status {
	count := int(hdr.Size)
	if hdr.Type == channel.PktRTS {
		count = int(hdr.ReqB)
	}
	return Status{Source: int(hdr.Source), Tag: int(hdr.Tag), Count: count}
}

// CancelReq abandons an incomplete request: a posted receive is
// removed from the match list and any request is marked complete with
// ErrCancelled. Collective error paths use this so a failing
// operation never leaves buffers registered in the device. A lent send
// (shm) is cancelled only while no receive has claimed its loan: the
// revoked RTS is then dropped wherever the peer finds it, and a
// receive matches the next message. Once claimed, the peer is reading
// its buffer, so it completes normally at the copy-out. Cancelling a
// sock rendezvous send whose CTS later arrives is safe for this device
// (the CTS is dropped), but its RTS stays matchable at the peer, whose
// receive then depends on its own failure handling — cancellation is
// strictly a teardown-path tool. Completed requests are left
// untouched, and so are recycled ones.
func (d *Device) CancelReq(req *Request) {
	if req == nil {
		return
	}
	d.mu.Lock()
	if reqState(req.state.Load()) != stActive || req.loan != nil && !req.loan.Revoke() {
		d.mu.Unlock()
		return
	}
	d.cancelLocked(req)
	d.unlockNotify()
}

func (d *Device) cancelLocked(req *Request) {
	for i, r := range d.posted {
		if r == req {
			d.posted = append(d.posted[:i], d.posted[i+1:]...)
			break
		}
	}
	delete(d.active, req.id)
	kept := d.pendingSelfSyncs[:0]
	for _, ss := range d.pendingSelfSyncs {
		if ss.req != req {
			kept = append(kept, ss)
		}
	}
	d.pendingSelfSyncs = kept
	req.err = ErrCancelled
	d.complete(req)
	d.Stats.Cancelled++
}

// Outstanding reports the number of incomplete requests registered
// with the device (posted receives plus protocol-pending sends). The
// collective layer's drain discipline guarantees this returns to zero
// after every collective, successful or not.
func (d *Device) Outstanding() int {
	d.mu.Lock()
	n := len(d.active)
	d.mu.Unlock()
	return n
}

// StatsSnapshot returns a consistent copy of the device counters,
// safe to call while other goroutines drive the device.
func (d *Device) StatsSnapshot() DeviceStats {
	d.mu.Lock()
	s := d.Stats
	d.mu.Unlock()
	return s
}

// --- transport failure handling ----------------------------------------------

// transportErr converts a channel PeerError into a typed ErrTransport
// error, failing every other request bound to the same peer first so
// no request outlives its connection. Non-peer errors pass through.
func (d *Device) transportErr(err error) error {
	var pe *channel.PeerError
	if !errors.As(err, &pe) {
		return err
	}
	d.failPeer(pe.Peer, pe.Err)
	d.Stats.TransportErrors++
	return fmt.Errorf("%w: peer %d: %v", ErrTransport, pe.Peer, pe.Err)
}

// failPeer declares a peer connection dead: every outstanding request
// bound to that peer — posted receives, rendezvous sends awaiting
// CTS, receives awaiting DATA — completes with a typed ErrTransport
// error (no lent send among them: only sock reports peer failures,
// and sock never lends). Receives posted with AnySource stay posted;
// they can still be satisfied by surviving peers. Unexpected eager
// payloads already received from the dead peer remain matchable: their
// bytes arrived intact before the failure.
func (d *Device) failPeer(peer int, cause error) {
	werr := fmt.Errorf("%w: peer %d: %v", ErrTransport, peer, cause)
	if d.lost == nil {
		d.lost = make(map[int]error)
	}
	if _, seen := d.lost[peer]; !seen {
		d.Stats.PeersLost++
		d.lost[peer] = werr
	}
	kept := d.posted[:0]
	for _, r := range d.posted {
		if r.peer == peer {
			r.err = werr
			d.complete(r)
			delete(d.active, r.id)
			d.Stats.TransportErrors++
			continue
		}
		kept = append(kept, r)
	}
	d.posted = kept
	for id, r := range d.active {
		if r.peer == peer && !r.Done() {
			r.err = werr
			d.complete(r)
			delete(d.active, id)
			d.Stats.TransportErrors++
		}
	}
}

// --- progress engine -----------------------------------------------------------

// Progress makes one polling pass over the channel. It reports
// whether any packet was processed. A peer-confined transport failure
// is absorbed here: the affected requests complete with ErrTransport
// (observed via TestReq/WaitReq) and the progress engine keeps
// running for the surviving peers.
func (d *Device) Progress() (bool, error) {
	d.mu.Lock()
	progressed, err := d.progressLocked()
	d.unlockNotify()
	return progressed, err
}

func (d *Device) progressLocked() (bool, error) {
	d.Stats.Polls++
	d.resolveSelfSyncs()
	progressed, err := d.ch.Poll(d)
	if err != nil {
		var pe *channel.PeerError
		if errors.As(err, &pe) {
			d.failPeer(pe.Peer, pe.Err)
			// Report progress: requests changed state, so waiters
			// must re-check before idling.
			return true, nil
		}
		return progressed, err
	}
	return progressed, nil
}

// WaitReq blocks (polling-wait) until the request completes. The
// idle step (Idle) runs between fruitless passes, outside the device
// lock, so a GC triggered from the embedder yield may itself drive
// Progress.
func (d *Device) WaitReq(req *Request) (Status, error) {
	if req.Done() {
		return req.status, req.err
	}
	// Heartbeat for the stall watchdog: a wait stuck past the deadline
	// (peer died silently, matching bug, lost wakeup) gets diagnosed
	// instead of hanging forever in silence.
	obs.BeatEnter(d.rank, obs.OpDevWait, req.peer)
	defer obs.BeatExit(d.rank)
	var spin Spin
	for !req.Done() {
		progressed, err := d.progressFor(req)
		if err != nil {
			return req.status, err
		}
		obs.BeatPulse(d.rank)
		if !progressed && !req.Done() {
			d.Idle(&spin)
		}
	}
	return req.status, req.err
}

// spinPolls is how many fruitless polls a wait makes per processor yield.
const spinPolls = 16

// Spin is one polling-wait's idle state; the zero value begins a wait.
type Spin struct {
	polls   int  // fruitless polls so far
	oversub bool // the world's ranks outnumber GOMAXPROCS
}

// Idle is every polling-wait's step after a fruitless poll. It runs the
// embedder's yield (Motor's GC poll) every time. It yields the processor
// every spinPolls-th time, since with a processor per rank that has
// nobody to serve, and every time when the world's ranks outnumber
// GOMAXPROCS, where a peer may need this one. It reports whether it did.
func (d *Device) Idle(s *Spin) bool {
	if d.Yield != nil {
		d.Yield()
	}
	if s.polls == 0 { // GOMAXPROCS takes the scheduler lock: once per wait
		s.oversub = d.Size() > runtime.GOMAXPROCS(0)
	}
	s.polls++
	if !s.oversub && s.polls%spinPolls != 0 {
		return false
	}
	runtime.Gosched()
	return true
}

// progressFor is a wait's progress pass, skipped if req is complete
// once the lock is held: a peer completes a lent send under this lock
// (lentDone) and may move on at once, and a later pass could take a
// frame its next operation meant for someone else. A fruitless pass
// over a lent send then copies the half of its payload the receiver
// has left for it, outside the lock (channel.Loan.Help). Once a
// receiver has claimed the loan only it completes the send, and the
// pass takes no lock, lest a tight loop here keep lentDone waiting on
// it. Only the poster's goroutine writes req.loan.
func (d *Device) progressFor(req *Request) (progressed bool, err error) {
	loan := req.loan
	if loan != nil && loan.Claimed() {
		progressed = req.Done()
	} else {
		d.mu.Lock()
		if progressed = req.Done(); !progressed {
			progressed, err = d.progressLocked()
		}
		d.unlockNotify()
	}
	if loan != nil && !progressed && loan.Help() {
		d.noteHelped()
		progressed = true
	}
	return progressed, err
}

// noteHelped counts a half of a lent payload that a wait copied out.
func (d *Device) noteHelped() {
	d.mu.Lock()
	d.Stats.HalvesHelped++
	d.mu.Unlock()
}

// TestReq makes one progress pass and reports completion.
func (d *Device) TestReq(req *Request) (bool, Status, error) {
	if !req.Done() {
		if _, err := d.progressFor(req); err != nil {
			return false, req.status, err
		}
	}
	if !req.Done() {
		return false, Status{}, nil
	}
	return true, req.status, req.err
}

// Iprobe checks (with one progress pass) whether a matching message
// has arrived without receiving it. Nothing queued from a dead source
// can ever arrive, so that fails typed, as Irecv does.
func (d *Device) Iprobe(source, tag int, ctx int32) (bool, Status, error) {
	d.mu.Lock()
	defer d.unlockNotify()
	if _, err := d.progressLocked(); err != nil {
		return false, Status{}, err
	}
	probe := Request{peer: source, tag: tag, ctx: ctx}
	if st, ok := d.probeUnexp(&probe); ok {
		return true, st, nil
	}
	return false, Status{}, d.lostErr(source)
}

// Probe posts a probe: a request that completes when a message
// matching (source, tag, ctx) is available, with its status, and
// leaves the message to a receive. It completes at once if one is
// queued unexpected; otherwise it waits among the posted receives,
// where failPeer, CancelReq and Outstanding see it like any receive.
func (d *Device) Probe(source, tag int, ctx int32) (*Request, error) {
	d.mu.Lock()
	req, err := d.probeLocked(source, tag, ctx)
	d.unlockNotify()
	return req, err
}

func (d *Device) probeLocked(source, tag int, ctx int32) (*Request, error) {
	if source != AnySource && (source < 0 || source >= d.Size()) {
		return nil, fmt.Errorf("%w: source %d of %d", ErrRank, source, d.Size())
	}
	req := d.newRequest(reqProbe, nil, source, tag, ctx)
	if st, ok := d.probeUnexp(req); ok {
		req.status = st
		d.complete(req)
		return req, nil
	}
	return d.post(req)
}

// probeUnexp reports the status of the first unexpected message req
// matches, dropping cancelled lent ones on the way.
func (d *Device) probeUnexp(req *Request) (Status, bool) {
	for i := 0; i < len(d.unexp); i++ {
		u := d.unexp[i]
		if !matches(req, u.hdr) {
			continue
		}
		if u.loan != nil && u.loan.Revoked() {
			d.unexp = append(d.unexp[:i], d.unexp[i+1:]...)
			i--
			continue
		}
		return probeStatus(u.hdr), true
	}
	return Status{}, false
}

// --- channel.Sink ---------------------------------------------------------------

var _ channel.LoanSink = (*Device)(nil)

// Deliver implements channel.Sink: it chooses the destination buffer
// for an incoming payload. Expected eager messages and rendezvous
// DATA land directly in the user buffer (zero intermediate copy);
// unexpected eager payloads go to a scratch buffer that becomes the
// unexpected-queue entry.
func (d *Device) Deliver(hdr channel.Header) []byte {
	d.Stats.Deliveries++
	d.curReq, d.curUnexp = nil, false
	switch hdr.Type {
	case channel.PktEager:
		if req := d.matchPosted(hdr); req != nil {
			d.curReq = req
			n := int(hdr.Size)
			if n > len(req.buf) {
				// Truncation: stage via scratch so the channel can
				// drain the wire; the copy-out happens in Done.
				d.curUnexp = true
				return d.scratch(n)
			}
			if n == 0 {
				return nil
			}
			return req.buf[:n]
		}
		d.curUnexp = true
		return d.scratch(int(hdr.Size))
	case channel.PktData:
		req := d.active[hdr.ReqB]
		if req == nil {
			// Receiver request vanished; drain to scratch.
			d.curUnexp = true
			return d.scratch(int(hdr.Size))
		}
		d.curReq = req
		n := int(hdr.Size)
		if n > len(req.buf) {
			d.curUnexp = true
			return d.scratch(n)
		}
		if n == 0 {
			return nil
		}
		return req.buf[:n]
	default:
		// RTS / CTS carry no payload.
		return nil
	}
}

// Borrow implements channel.LoanSink: a lent RTS. The first posted
// receive it matches gets its payload copied straight in (takeLoan);
// with none, it waits unexpected, loan and all, for irecvLocked. If
// its send was cancelled first, it is dropped, and no probe sees it.
func (d *Device) Borrow(rts channel.Header, loan *channel.Loan) {
	d.Stats.Deliveries++
	if loan.Revoked() {
		return
	}
	if i := d.findPosted(rts); i >= 0 {
		if d.takeLoan(d.posted[i], rts, loan) {
			d.posted = append(d.posted[:i], d.posted[i+1:]...)
		}
		return
	}
	d.Stats.Unexpected++
	d.unexp = append(d.unexp, unexpected{hdr: rts, loan: loan})
}

// lentDone completes a send whose lent payload the peer has copied
// out. It runs on the peer's goroutine, from its completion queue.
func (d *Device) lentDone(req *Request) {
	d.mu.Lock()
	delete(d.active, req.id)
	d.complete(req)
	d.unlockNotify()
}

func (d *Device) scratch(n int) []byte {
	if cap(d.tmp) < n {
		d.tmp = make([]byte, n)
	}
	return d.tmp[:n]
}

// Done implements channel.Sink: protocol actions after the payload
// (if any) has been written to the buffer Deliver returned.
func (d *Device) Done(hdr channel.Header) {
	switch hdr.Type {
	case channel.PktEager:
		d.Stats.EagerRecvd++
		d.noteEdgeRecv(hdr)
		switch {
		case d.curReq != nil && !d.curUnexp:
			req := d.curReq
			req.status = Status{Source: int(hdr.Source), Tag: int(hdr.Tag), Count: int(hdr.Size)}
			d.complete(req)
			delete(d.active, req.id)
			d.Stats.BytesRecvd += uint64(hdr.Size)
		case d.curReq != nil: // matched but truncated, payload in scratch
			req := d.curReq
			d.completeEagerRecv(req, hdr, d.tmp[:hdr.Size])
			delete(d.active, req.id)
		default: // unexpected
			d.queueUnexpected(hdr, d.tmp[:hdr.Size])
		}

	case channel.PktRTS:
		if req := d.matchPosted(hdr); req != nil {
			d.acceptRendezvous(req, hdr)
		} else {
			d.Stats.Unexpected++
			d.unexp = append(d.unexp, unexpected{hdr: hdr})
		}

	case channel.PktCTS:
		req := d.active[hdr.ReqA]
		if req == nil || req.kind != reqSend {
			return
		}
		data := channel.Header{
			Type: channel.PktData, Source: int32(d.rank),
			Tag: int32(req.tag), Context: req.ctx,
			ReqA: req.id, ReqB: hdr.ReqB,
			Seq: req.edgeSeq, // carry the RTS's correlation id to the payload
		}
		err := d.ch.Send(req.peer, data, req.buf)
		delete(d.active, req.id)
		if err == nil {
			d.Stats.BytesSent += uint64(len(req.buf))
		} else {
			err = d.transportErr(err)
		}
		req.err = err
		d.complete(req)

	case channel.PktData:
		d.Stats.DataRecvd++
		d.noteEdgeRecv(hdr)
		if d.curReq != nil {
			req := d.curReq
			if d.curUnexp {
				// Truncated rendezvous: copy what fits from scratch.
				n := len(req.buf)
				copy(req.buf, d.tmp[:n])
				if req.err == nil {
					req.err = ErrTruncate
				}
				req.status.Count = n
			}
			d.complete(req)
			delete(d.active, req.id)
			d.Stats.BytesRecvd += uint64(req.status.Count)
		}
	}
	d.curReq, d.curUnexp = nil, false
}
