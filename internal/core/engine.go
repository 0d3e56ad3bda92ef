// Package core is the paper's primary contribution: the integration
// of the message-passing library directly inside the virtual machine
// (Motor, §3/§4/§7). An Engine binds one VM (one rank) to one
// message-passing World and provides:
//
//   - the regular MPI operations with object-model integrity checks
//     (§4.2.1): only objects without reference fields, or arrays of
//     simple types, may be transported buffer-to-buffer;
//   - the pinning policy (§4.3, §7.4), one table in pin.go: elder
//     objects take no pin unless the collector compacts them;
//     blocking operations defer the pin until they actually enter
//     their polling-wait; non-blocking operations register
//     conditional pin requests resolved during the collector's mark
//     phase;
//   - the extended object-oriented operations (§4.2.2, §7.5) built on
//     the custom serializer with runtime-owned reusable buffers;
//   - the System.MP FCall surface for managed programs (§7.2/§7.3).
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"motor/internal/mp"
	"motor/internal/mp/adi"
	"motor/internal/mp/channel"
	"motor/internal/obs"
	"motor/internal/serial"
	"motor/internal/vm"
	"motor/internal/vm/bcverify"
)

// PinPolicy selects how transport buffers are protected from the
// moving collector.
type PinPolicy uint8

// Pinning policies.
const (
	// PolicyMotor is the paper's policy (generation test, deferred
	// pins, conditional pin requests).
	PolicyMotor PinPolicy = iota
	// PolicyAlwaysPin pins eagerly for every operation, the
	// behaviour of the managed-wrapper bindings (ablation A1).
	PolicyAlwaysPin
	// PolicyNever performs no pinning at all. UNSAFE — it exists so
	// tests can demonstrate that pinning is load-bearing: a
	// collection during a transfer corrupts the payload.
	PolicyNever
)

// Errors.
var (
	// ErrObjectModel rejects transport objects that could compromise
	// the integrity of the object model (paper §2.4/§4.2.1).
	ErrObjectModel = errors.New("core: object contains references; use the extended object-oriented operations")
	// ErrNullObject rejects null transport objects.
	ErrNullObject = errors.New("core: null transport object")
	// ErrNotArray rejects offset/count forms on non-arrays.
	ErrNotArray = errors.New("core: offset/count transport requires an array")
	// ErrBadRequest flags an unknown request id.
	ErrBadRequest = errors.New("core: unknown request id")
	// ErrOversize rejects an incoming OO message whose wire-claimed
	// size exceeds MaxOOMessage — the allocation never happens, so a
	// corrupt or adversarial peer cannot force unbounded memory use.
	ErrOversize = errors.New("core: object message exceeds MaxOOMessage")
)

// DefaultMaxOOMessage caps the accumulated size of one incoming OO
// representation (WithMaxOOMessage overrides).
const DefaultMaxOOMessage = 1 << 30

// Stats counts pinning-policy and OO-operation activity; the paper's
// §7.4 behaviour is asserted against these in tests.
//
// All increments go through atomic adds (see bump): the engine itself
// is single-goroutine per rank, but snapshot readers — the obs
// registry, mpstat's -metrics collector — may run concurrently with
// nonblocking operations. Read a consistent copy with Snapshot.
type Stats struct {
	Ops              uint64 // regular MPI operations started
	PinSkippedElder  uint64 // no pin: object resident in elder space
	PinAvoidedFast   uint64 // no pin: blocking op completed before the polling-wait
	PinDeferred      uint64 // pin taken at polling-wait entry (blocking ops)
	PinEager         uint64 // pin taken at operation start (PolicyAlwaysPin)
	CondPins         uint64 // conditional pin requests registered (non-blocking ops)
	PinHeldMoved     uint64 // elder buffer pinned while pending: the collector moves elder objects
	OOSends          uint64
	OORecvs          uint64
	OOChunksSent     uint64 // v2 stream chunks put on the wire
	OOChunksRecvd    uint64 // v2 stream chunks taken off the wire
	SerializedBytes  uint64
	BufferReuses     uint64
	BufferAllocs     uint64
	BuffersCollected uint64
	TransportErrors  uint64 // operations that completed with mp.ErrTransport
	WaitsParked      uint64 // waits that used up the spin budget and parked (async progress)

	// TransferChecksDyn counts dynamic object-model integrity checks
	// (§4.2.1); TransferChecksFast counts transfers that skipped the
	// check because the calling method was statically verified
	// transport-safe (bcverify). On a fully verified workload Dyn
	// stays at zero.
	TransferChecksDyn  uint64
	TransferChecksFast uint64
}

// bump atomically increments one counter field.
func bump(f *uint64, n uint64) { atomic.AddUint64(f, n) }

// Snapshot returns a race-safe copy of the counters.
func (s *Stats) Snapshot() Stats {
	return Stats{
		Ops:              atomic.LoadUint64(&s.Ops),
		PinSkippedElder:  atomic.LoadUint64(&s.PinSkippedElder),
		PinAvoidedFast:   atomic.LoadUint64(&s.PinAvoidedFast),
		PinDeferred:      atomic.LoadUint64(&s.PinDeferred),
		PinEager:         atomic.LoadUint64(&s.PinEager),
		CondPins:         atomic.LoadUint64(&s.CondPins),
		PinHeldMoved:     atomic.LoadUint64(&s.PinHeldMoved),
		OOSends:          atomic.LoadUint64(&s.OOSends),
		OORecvs:          atomic.LoadUint64(&s.OORecvs),
		OOChunksSent:     atomic.LoadUint64(&s.OOChunksSent),
		OOChunksRecvd:    atomic.LoadUint64(&s.OOChunksRecvd),
		SerializedBytes:  atomic.LoadUint64(&s.SerializedBytes),
		BufferReuses:     atomic.LoadUint64(&s.BufferReuses),
		BufferAllocs:     atomic.LoadUint64(&s.BufferAllocs),
		BuffersCollected: atomic.LoadUint64(&s.BuffersCollected),
		TransportErrors:  atomic.LoadUint64(&s.TransportErrors),
		WaitsParked:      atomic.LoadUint64(&s.WaitsParked),

		TransferChecksDyn:  atomic.LoadUint64(&s.TransferChecksDyn),
		TransferChecksFast: atomic.LoadUint64(&s.TransferChecksFast),
	}
}

// VerifyStats aggregates load-time verification activity on this
// engine (Engine.VerifyModule). Uint64 fields so the obs registry
// flattens them like every other counter group.
type VerifyStats struct {
	Methods       uint64 // methods verified
	Insts         uint64 // instructions decoded and checked
	Transportable uint64 // methods proven transport-safe
	ElapsedNs     uint64 // wall time spent verifying
}

// Snapshot returns a race-safe copy of the counters.
func (s *VerifyStats) Snapshot() VerifyStats {
	return VerifyStats{
		Methods:       atomic.LoadUint64(&s.Methods),
		Insts:         atomic.LoadUint64(&s.Insts),
		Transportable: atomic.LoadUint64(&s.Transportable),
		ElapsedNs:     atomic.LoadUint64(&s.ElapsedNs),
	}
}

// Engine integrates one VM with one message-passing world.
type Engine struct {
	VM    *vm.VM
	World *mp.World
	Comm  *mp.Comm

	policy  PinPolicy
	serOpts serial.Options

	// maxOO caps incoming OO representation sizes (ErrOversize);
	// ooChunk is the streaming chunk target.
	maxOO   int
	ooChunk int

	// Type-table caches, keyed by world-communicator peer rank:
	// peerCaches is the sender side, mirrors the receiver side.
	peerCaches map[int]*serial.PeerCache
	mirrors    map[int]*serial.TableMirror

	// Free lists of OO stream state (oo.go).
	writers freeList[serial.StreamWriter]
	readers freeList[serial.StreamReader]

	requests map[int32]mpReq
	nextReq  int32

	// comms are managed communicator handles (see comm.go); handle 0
	// is the world communicator.
	comms    map[int32]*mp.Comm
	nextComm int32

	bufs bufferStack

	// lane is this rank's trace lane (world rank), fixed at Attach.
	lane int

	// asyncProgress selects the background progress engine; progress is
	// the running engine (nil in inline-polling mode or after Close).
	// It only decides whether a wait may park: every wait drives
	// progress itself first, and with an engine it parks once its spin
	// budget is used up (see await in ops.go).
	asyncProgress bool
	progress      *mp.Progress

	// unDiag unregisters this rank's watchdog stall-diagnosis provider
	// (set at Attach, run at Close).
	unDiag func()

	Stats   Stats
	Verify  VerifyStats
	Quicken QuickenStats
	TTCache serial.TTCacheStats
}

type mpReq struct {
	id   int32
	req  mp.Request
	hold pinHold // released at completion
}

// Option configures an Engine.
type Option func(*Engine)

// WithPolicy selects the pinning policy.
func WithPolicy(p PinPolicy) Option { return func(e *Engine) { e.policy = p } }

// WithVisited selects the serializer's visited-object structure. The
// default, VisitedMap, is the epoch-stamped table the paper names as
// future work; pass VisitedLinear for the paper's linear list, whose
// cost Fig. 10 and ablation A2 measure.
func WithVisited(m serial.VisitedMode) Option {
	return func(e *Engine) { e.serOpts.Visited = m }
}

// WithMaxOOMessage caps the accumulated size of one incoming OO
// representation; oversized wire claims fail with ErrOversize before
// any allocation (default DefaultMaxOOMessage).
func WithMaxOOMessage(n int) Option { return func(e *Engine) { e.maxOO = n } }

// WithOOChunk sets the streaming-serialization chunk target (default
// serial.DefaultChunkTarget).
func WithOOChunk(n int) Option { return func(e *Engine) { e.ooChunk = n } }

// WithAsyncProgress enables the background progress engine: a
// per-rank goroutine that drives the device while guest code
// computes, gated through the VM execution token so every pass
// respects the collector's safepoint discipline (docs/PROGRESS.md).
// Off by default (inline polling-waits only).
func WithAsyncProgress(on bool) Option { return func(e *Engine) { e.asyncProgress = on } }

// Attach integrates a VM with a world: it wires the device's
// polling-wait yield to the VM's GC poll point, installs the GC hook
// that refreshes transport status for conditional pin requests and
// ages the OO buffer stack, and registers the System.MP FCalls.
func Attach(v *vm.VM, w *mp.World, opts ...Option) *Engine {
	e := &Engine{
		VM:         v,
		World:      w,
		Comm:       w.Comm,
		maxOO:      DefaultMaxOOMessage,
		ooChunk:    serial.DefaultChunkTarget,
		peerCaches: make(map[int]*serial.PeerCache),
		mirrors:    make(map[int]*serial.TableMirror),
		requests:   make(map[int32]mpReq),
	}
	for _, opt := range opts {
		opt(e)
	}
	e.lane = w.Rank()
	v.SetTraceLane(w.Rank())
	// Polling-waits inside the MP core yield to the collector — the
	// paper's replacement of blocking system calls (§7.1).
	w.Dev.Yield = v.PollPoint
	// "During the mark phase the garbage collector ... checks the
	// status of the underlying non-blocking transport operations"
	// (§7.4): one non-blocking progress pass keeps that status fresh,
	// and the OO buffer stack ages one generation.
	v.AddGCHook(func() {
		_, _ = w.Dev.Progress()
		bump(&e.Stats.BuffersCollected, e.bufs.age())
	})
	e.registerFCalls()
	// Stall-watchdog diagnosis: when this rank is declared stuck, the
	// report cites the device's protocol state alongside the generic
	// GC/progress attribution the watchdog adds itself.
	e.unDiag = obs.RegisterStallDiag(e.lane, func() string {
		ds := w.Dev.StatsSnapshot()
		return fmt.Sprintf("device: %d outstanding reqs, %d polls, %d unexpected, %d transport errors, %d peers lost",
			w.Dev.Outstanding(), ds.Polls, ds.Unexpected, ds.TransportErrors, ds.PeersLost)
	})
	if e.asyncProgress {
		// The gate is the VM execution token: a pass runs only while no
		// managed thread executes and no collection is in flight, so the
		// progress goroutine may complete requests into pinned managed
		// buffers. The GC hook above doubles as the collector-side
		// refresh; both paths funnel into the same locked device.
		e.progress = mp.StartProgress(w.Dev, mp.ProgressOptions{
			Gate: v.ExecRun,
			Lane: w.Rank(),
		})
	}
	return e
}

// Close stops the background progress engine (no-op in inline mode;
// idempotent). Call it after every managed thread has ended — a
// thread still holding the execution token would deadlock the gated
// loop's final pass against Stop.
func (e *Engine) Close() {
	if e.progress != nil {
		e.progress.Stop()
	}
	if e.unDiag != nil {
		e.unDiag()
		e.unDiag = nil
	}
}

// AsyncProgress reports whether the background progress engine is
// configured.
func (e *Engine) AsyncProgress() bool { return e.asyncProgress }

// ProgressStats returns a snapshot of the background progress
// engine's counters (zero value in inline mode).
func (e *Engine) ProgressStats() mp.ProgressStats {
	if e.progress == nil {
		return mp.ProgressStats{}
	}
	return e.progress.Stats()
}

// Policy returns the engine's pinning policy.
func (e *Engine) Policy() PinPolicy { return e.policy }

// RegisterStats exposes every subsystem this engine can see — its own
// counters, the ADI device, the collective layer, the collector, and
// the transport channel (when it implements channel.StatsSource) —
// through one obs.Registry, so a single Snapshot covers the whole
// stack (§ISSUE: unified metrics).
func (e *Engine) RegisterStats(reg *obs.Registry) {
	reg.Register("engine", func() any { return e.Stats.Snapshot() })
	reg.Register("verify", func() any { return e.Verify.Snapshot() })
	reg.Register("quicken", func() any { return e.Quicken.Snapshot() })
	reg.Register("serial.ttcache", func() any { return e.TTCache.Snapshot() })
	// Snapshot accessors everywhere: a registry read may race a
	// background progress pass or a sibling guest thread bumping the
	// same counters.
	reg.Register("device", func() any { return e.World.Dev.StatsSnapshot() })
	reg.Register("coll", func() any { return e.Comm.CollStats() })
	reg.Register("gc", func() any { return e.VM.Heap.Stats.Snapshot() })
	if e.progress != nil {
		reg.Register("progress", func() any { return e.progress.Stats() })
	}
	if src, ok := e.World.Dev.Channel().(channel.StatsSource); ok {
		reg.Register("transport", func() any { return src.TransportStats() })
	}
}

// --- managed-heap transfer buffers -----------------------------------------

// VerifyModule runs the load-time bytecode verifier over a freshly
// assembled module with this engine's FCall signatures, so methods
// whose transport buffers are provably integrity-safe take the
// checked-free fast path in wholeBuf/rangeBuf. Counters land in
// e.Verify (obs group "verify").
func (e *Engine) VerifyModule(methods []*vm.Method) error {
	st, err := bcverify.VerifyModule(e.VM, methods, bcverify.Options{Sigs: Signatures()})
	bump(&e.Verify.Methods, uint64(st.Methods))
	bump(&e.Verify.Insts, uint64(st.Insts))
	bump(&e.Verify.Transportable, uint64(st.Transportable))
	bump(&e.Verify.ElapsedNs, uint64(st.Elapsed.Nanoseconds()))
	return err
}

// DebugAssertTransferable, when set (tests), re-runs the integrity
// check on the verified fast path and panics if the static judgment
// was wrong — the §4.2.1 rule must hold with or without the verifier.
var DebugAssertTransferable bool

// trusted reports whether the §4.2.1 integrity check may be skipped:
// the innermost managed frame belongs to a method the verifier proved
// transport-safe. Go-API calls (nil or unmanaged thread) stay dynamic.
func (e *Engine) trusted(t *vm.Thread) bool {
	return t != nil && t.InTransportVerified()
}

// wholeBuf builds the transfer buffer for an entire object after the
// integrity checks of §4.2.1. On the statically verified path the
// HasRefFields check is skipped (bcverify proved it). The buffer is the
// object's instance-data range of the arena (paper §7.1), resolved once
// at operation start; the pinning policy keeps it from going stale.
func (e *Engine) wholeBuf(t *vm.Thread, obj vm.Ref) (adi.Buffer, error) {
	if obj == vm.NullRef {
		return nil, ErrNullObject
	}
	h := e.VM.Heap
	mt := h.MT(obj)
	if e.trusted(t) {
		bump(&e.Stats.TransferChecksFast, 1)
		if DebugAssertTransferable && mt.HasRefFields() {
			panic(fmt.Sprintf("core: verifier admitted non-transferable %s", mt))
		}
	} else {
		bump(&e.Stats.TransferChecksDyn, 1)
		if mt.HasRefFields() {
			return nil, fmt.Errorf("%w (%s)", ErrObjectModel, mt)
		}
	}
	return h.DataBytes(obj), nil
}

// rangeBuf builds the transfer buffer for a sub-range of a simple
// array ("transporting portions of an array is supported", §4.2.1).
// The bounds check always runs — only the type checks are covered by
// static verification.
func (e *Engine) rangeBuf(t *vm.Thread, obj vm.Ref, offset, count int) (adi.Buffer, error) {
	if obj == vm.NullRef {
		return nil, ErrNullObject
	}
	h := e.VM.Heap
	mt := h.MT(obj)
	if e.trusted(t) {
		bump(&e.Stats.TransferChecksFast, 1)
		if DebugAssertTransferable && !mt.IsSimpleArray() {
			panic(fmt.Sprintf("core: verifier admitted non-simple-array %s", mt))
		}
	} else {
		bump(&e.Stats.TransferChecksDyn, 1)
		if mt.Kind != vm.TKArray {
			return nil, ErrNotArray
		}
		if !mt.IsSimpleArray() {
			return nil, fmt.Errorf("%w (%s)", ErrObjectModel, mt)
		}
	}
	n := h.Length(obj)
	if offset < 0 || count < 0 || offset+count > n {
		return nil, fmt.Errorf("core: range [%d,%d) outside array of %d elements", offset, offset+count, n)
	}
	es := mt.ElemSize()
	return h.DataBytes(obj)[offset*es : (offset+count)*es], nil
}

// --- OO buffer stack (paper §7.5) --------------------------------------------

// bufferStack recycles serialization buffers: "allocated from static
// runtime memory ... created on demand and stored in a stack for
// later use. At garbage collection the stack is checked for buffers
// which are unused since the last garbage collection and these are
// unallocated."
type bufferStack struct {
	bufs []poolBuf
	gen  uint64
	// out counts buffers handed out and not yet returned. The pool
	// does not track buffer identity (a borrower may grow and return a
	// different backing array), but every get must be balanced by
	// exactly one put — tests assert out == 0 after every error path.
	out int
}

type poolBuf struct {
	data []byte
	gen  uint64 // generation of last use
}

func (s *bufferStack) get(minCap int, st *Stats) []byte {
	s.out++
	for i := len(s.bufs) - 1; i >= 0; i-- {
		if cap(s.bufs[i].data) >= minCap {
			b := s.bufs[i].data
			s.bufs = append(s.bufs[:i], s.bufs[i+1:]...)
			bump(&st.BufferReuses, 1)
			return b[:0]
		}
	}
	bump(&st.BufferAllocs, 1)
	if minCap < 1024 {
		minCap = 1024
	}
	return make([]byte, 0, minCap)
}

func (s *bufferStack) put(b []byte) {
	s.out--
	s.bufs = append(s.bufs, poolBuf{data: b, gen: s.gen})
}

// age is called from the GC hook: buffers unused since the previous
// collection are dropped. It returns how many were collected.
func (s *bufferStack) age() uint64 {
	dropped := uint64(0)
	kept := s.bufs[:0]
	for _, b := range s.bufs {
		if s.gen > 0 && b.gen < s.gen {
			dropped++
			continue
		}
		kept = append(kept, b)
	}
	s.bufs = kept
	s.gen++
	return dropped
}

// PooledBuffers reports the current stack depth (tests).
func (e *Engine) PooledBuffers() int { return len(e.bufs.bufs) }

// BufferOutstanding reports how many pooled buffers are currently
// handed out; zero between operations proves no error path leaks.
func (e *Engine) BufferOutstanding() int { return e.bufs.out }

// --- type-table caches (serial.ttcache) -------------------------------------

// peerCache returns the sender-side type-table cache for a world-comm
// peer, resynchronized against the VM's type-registry generation.
func (e *Engine) peerCache(rank int) *serial.PeerCache {
	pc, ok := e.peerCaches[rank]
	if !ok {
		pc = serial.NewPeerCache(e.VM.TypeGen())
		e.peerCaches[rank] = pc
		return pc
	}
	if pc.Sync(e.VM.TypeGen()) {
		bump(&e.TTCache.Resets, 1)
	}
	return pc
}

// mirror returns the receiver-side type-table mirror for a peer.
func (e *Engine) mirror(rank int) *serial.TableMirror {
	m, ok := e.mirrors[rank]
	if !ok {
		m = serial.NewTableMirror()
		e.mirrors[rank] = m
	}
	return m
}
