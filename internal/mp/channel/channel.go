// Package channel implements the lowest layer of the message-passing
// core: the MPICH2-style channel interface, "the simplest
// functionality required to move a message from one address space to
// another" (paper §6). Two production channels are provided — shm
// (in-process shared-memory rings) and sock (TCP with a rendezvous
// bootstrap) — plus a loop channel for single-rank worlds and tests.
//
// The channel moves packets: a fixed 40-byte header plus an opaque
// payload. Delivery is pull-based and zero-copy on the receive side:
// the device's Sink chooses the destination buffer for each payload
// after seeing its header, so an expected message lands directly in
// the user (or managed-heap) buffer.
package channel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// PacketType discriminates device-level packets (defined here so the
// channel can be tested independently of the device).
type PacketType uint8

// Device packet types.
const (
	PktEager PacketType = iota + 1 // payload carries the whole message
	PktRTS                         // rendezvous request-to-send (no payload)
	PktCTS                         // rendezvous clear-to-send (no payload)
	PktData                        // rendezvous payload
)

// HeaderSize is the wire size of a packet header.
const HeaderSize = 40

// Header describes one packet. Seq is the observability correlation
// sequence: the sending device stamps a per-destination counter on
// message-bearing packets (eager, RTS, DATA) so the trace merge pass
// can join the sender's edge:send with the receiver's edge:recv;
// zero means unstamped (control packets, tracing off). It rides in
// the four header bytes that were previously reserved padding, so
// the wire size is unchanged.
type Header struct {
	Type    PacketType
	Source  int32  // sending rank (world numbering)
	Tag     int32  // message tag
	Context int32  // communicator context id
	Size    uint32 // payload byte count
	Seq     uint32 // trace correlation sequence (0 = unstamped)
	ReqA    uint64 // protocol correlation id (sender request)
	ReqB    uint64 // protocol correlation id (receiver request)
}

// Marshal encodes the header into b (len >= HeaderSize).
func (h *Header) Marshal(b []byte) {
	b[0] = byte(h.Type)
	b[1], b[2], b[3] = 0, 0, 0
	binary.LittleEndian.PutUint32(b[4:], uint32(h.Source))
	binary.LittleEndian.PutUint32(b[8:], uint32(h.Tag))
	binary.LittleEndian.PutUint32(b[12:], uint32(h.Context))
	binary.LittleEndian.PutUint32(b[16:], h.Size)
	binary.LittleEndian.PutUint32(b[20:], h.Seq)
	binary.LittleEndian.PutUint64(b[24:], h.ReqA)
	binary.LittleEndian.PutUint64(b[32:], h.ReqB)
}

// Unmarshal decodes the header from b.
func (h *Header) Unmarshal(b []byte) {
	h.Type = PacketType(b[0])
	h.Source = int32(binary.LittleEndian.Uint32(b[4:]))
	h.Tag = int32(binary.LittleEndian.Uint32(b[8:]))
	h.Context = int32(binary.LittleEndian.Uint32(b[12:]))
	h.Size = binary.LittleEndian.Uint32(b[16:])
	h.Seq = binary.LittleEndian.Uint32(b[20:])
	h.ReqA = binary.LittleEndian.Uint64(b[24:])
	h.ReqB = binary.LittleEndian.Uint64(b[32:])
}

// String renders the header for diagnostics.
func (h *Header) String() string {
	return fmt.Sprintf("pkt{type=%d src=%d tag=%d ctx=%d size=%d}", h.Type, h.Source, h.Tag, h.Context, h.Size)
}

// Sink is the device-side receiver. For each incoming packet the
// channel calls Deliver to obtain the destination buffer (exactly
// Size bytes; nil for empty payloads), writes the payload into it,
// and then calls Done.
type Sink interface {
	Deliver(hdr Header) []byte
	Done(hdr Header)
}

// LoanSink is a Sink that takes lent frames (Lender) whole: Poll hands
// it each one with its loan instead of copying the payload out, and the
// sink copies it (Loan.CopyOut) into the buffer it chooses, at once or
// later, or drops it if the lender has revoked it. Other sinks get a
// lent frame through Deliver and Done like any other, its release run
// by Poll after Done.
type LoanSink interface {
	Sink
	Borrow(hdr Header, loan *Loan)
}

// Channel moves packets between the ranks of one process group.
// Implementations must preserve per-(source,destination) FIFO order —
// the device's matching semantics depend on non-overtaking delivery.
//
// An endpoint is used by one goroutine at a time: Send, Poll and
// Close are never called concurrently on the same Channel (the sink's
// Done may call Send from inside Poll). The device guarantees this by
// making every call under its own lock, whichever goroutine — the
// rank, its GC hook or a progress engine — drives it; implementations
// rely on it and keep their per-endpoint state unsynchronised. Only a
// StatsSource's TransportStats may be called from any goroutine.
type Channel interface {
	// Rank and Size describe this endpoint's place in the group.
	Rank() int
	Size() int
	// Send transmits one packet to dest. It may buffer; it must not
	// block indefinitely. The payload is consumed before return: the
	// caller may reuse it at once (Lender.Lend is the exception).
	Send(dest int, hdr Header, payload []byte) error
	// Poll delivers at most one pending incoming packet to the sink,
	// reporting whether anything was delivered.
	Poll(sink Sink) (bool, error)
	// Close releases channel resources.
	Close() error
}

// Lender is implemented by channels that can move a payload by
// reference. Lend queues a packet like Send but keeps only a reference
// to the loan's payload: the receiver copies it straight into the
// buffer its sink chose, sharing that copy with the lender (Loan.Help),
// then runs the loan's release on its own goroutine. Until then the
// caller must not modify the payload unless it revoked the loan; a
// packet still queued when the receiver closes is never released.
type Lender interface {
	Lend(dest int, hdr Header, loan *Loan) error
}

// Loan is one lent payload and its copy-out, split in two halves so
// that two cores pull cache lines at once. The receiver claims the loan
// and publishes its destination, then copies the first half; the
// second goes to whichever of the receiver and a Help call claims it
// first. CopyOut returns only once both halves are written, so a helper
// writes into the destination only while the receiver is inside it.
// Until a receiver claims it, the lender may revoke the loan instead.
type Loan struct {
	payload []byte
	release func()
	dst     []byte       // written by the receiver before it claims
	state   atomic.Int32 // loanQueued → loanOpen → [loanHelping →] loanClosed, or loanQueued → loanRevoked
}

const (
	loanQueued  int32 = iota // no receiver has claimed the loan yet
	loanOpen                 // claimed and published; the second half is unclaimed
	loanHelping              // a helper is copying the second half
	loanClosed               // the second half is the receiver's, or copied
	loanRevoked              // the lender withdrew it before any claim
)

// loanSpins bounds how long the receiver spins on a helper's half
// before it yields between loads, so a helper descheduled mid-copy gets
// the processor back even at GOMAXPROCS=1.
const loanSpins = 1 << 10

// NewLoan lends payload; release (non-nil) runs once the copy-out is
// complete.
func NewLoan(payload []byte, release func()) *Loan {
	return &Loan{payload: payload, release: release}
}

// Revoke withdraws the loan if no receiver has claimed it, and reports
// whether it did. A revoked loan is never read or released: the
// receiver drops its frame wherever it finds it (Revoked).
func (l *Loan) Revoke() bool { return l.state.CompareAndSwap(loanQueued, loanRevoked) }

// Revoked reports whether the lender has withdrawn the loan.
func (l *Loan) Revoked() bool { return l.state.Load() == loanRevoked }

// Claimed reports whether a receiver has claimed the loan.
func (l *Loan) Claimed() bool {
	s := l.state.Load()
	return s != loanQueued && s != loanRevoked
}

// Help copies the second half of the loan into the receiver's
// destination if the receiver has published it and nobody has claimed
// that half yet, and reports whether it did. The lender calls it while
// it waits for its send. It takes no lock and never blocks, and once
// the copy-out is over it writes nothing.
func (l *Loan) Help() bool {
	if l.state.Load() != loanOpen || !l.state.CompareAndSwap(loanOpen, loanHelping) {
		return false
	}
	h := len(l.dst) / 2
	copy(l.dst[h:], l.payload[h:])
	l.state.Store(loanClosed)
	return true
}

// CopyOut is the receiver's side: claim the loan and publish dst, copy
// the first half of the payload that fits in dst, then the second
// unless a helper has claimed it, and return once a claiming helper has
// finished. It returns the lender's release, which the caller runs once
// after dropping any lock it holds, or nil, having written nothing, if
// the lender revoked the loan first.
func (l *Loan) CopyOut(dst []byte) (release func()) {
	dst = dst[:min(len(dst), len(l.payload))]
	l.dst = dst
	if !l.state.CompareAndSwap(loanQueued, loanOpen) {
		return nil
	}
	h := len(dst) / 2
	copy(dst[:h], l.payload)
	if l.state.CompareAndSwap(loanOpen, loanClosed) {
		copy(dst[h:], l.payload[h:])
		return l.release
	}
	for i := 0; l.state.Load() != loanClosed; i++ {
		if i >= loanSpins {
			runtime.Gosched()
		}
	}
	return l.release
}

// Doorbell is implemented by channels whose frames can wake a rank
// whose waiters have parked for its progress engine. Unlike the
// Channel methods, both may be called from any goroutine.
//
// A sender rings the destination's bell after publishing a frame if
// the destination's parked count is > 0. A waiter raises its count
// before its last poll, so either that poll sees the frame or the
// sender sees the count; no wakeup is lost. The ring runs under the
// sender's device lock: wake must take no lock and must not block.
type Doorbell interface {
	// SetWake installs (nil clears) the func a peer's frame rings.
	SetWake(wake func())
	// AddParked adds n to the endpoint's parked-waiter count.
	AddParked(n int)
}

// ErrClosed is returned by operations on a closed channel.
var ErrClosed = errors.New("channel: closed")

// ErrRank is returned for an out-of-range destination.
var ErrRank = errors.New("channel: rank out of range")

// ErrProtocol is returned when a peer violates the wire protocol
// (bad frame, bad bootstrap handshake): the connection state is no
// longer trustworthy.
var ErrProtocol = errors.New("channel: protocol violation")

// ErrConfig is returned for invalid channel construction parameters.
var ErrConfig = errors.New("channel: invalid configuration")

// PeerError reports a transport failure confined to one peer
// connection: the rest of the mesh stays usable. The device layer
// translates it into typed MPI error classes on the affected requests
// instead of stalling the progress engine.
type PeerError struct {
	Peer int // world rank of the failed peer connection
	Err  error
}

// Error implements error.
func (e *PeerError) Error() string {
	return fmt.Sprintf("channel: peer %d: %v", e.Peer, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *PeerError) Unwrap() error { return e.Err }

// TransportStats counts channel-level traffic, fault and recovery
// activity. Frame counts are per wire packet (header + payload);
// byte counts cover payloads only — header overhead is fixed per
// frame (see headerSize).
type TransportStats struct {
	FramesSent       uint64 // packets pushed to peers
	FramesRecvd      uint64 // packets delivered to the sink
	BytesSent        uint64 // payload bytes pushed to peers
	BytesRecvd       uint64 // payload bytes delivered to the sink
	DialRetries      uint64 // re-dials after a failed connection attempt
	BootstrapRetries uint64 // full rendezvous-exchange retries
	PoisonedConns    uint64 // connections killed after a partial frame
	PeersRetired     uint64 // connections retired on graceful close
}

// StatsSource is implemented by channels that track transport stats.
type StatsSource interface {
	TransportStats() TransportStats
}
