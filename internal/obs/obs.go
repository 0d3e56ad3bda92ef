// Package obs is the unified observability layer of the Motor repro:
// a low-overhead event tracer, latency histograms, and a registry
// that aggregates every subsystem's stats struct into one snapshot.
//
// The paper's central claims are timing claims — FCall crossings are
// cheap (§7.1), the pinning policy avoids pins on fast operations
// (§7.4), serialization dominates OO transfers (§7.3) — and aggregate
// counters cannot show *where time goes inside one operation* or
// correlate a conditional-pin resolution with the GC mark phase that
// resolved it. The tracer records the full lifecycle of every
// message-passing operation (op posted → pin decision → ADI request
// → channel frames → completion), GC phases, and collective algorithm
// steps, exportable as Chrome trace_event JSON (about:tracing /
// Perfetto) via export.go.
//
// Design constraints, in order:
//
//  1. Tracing disabled must cost one atomic load per event site.
//     Sites do `if tr := obs.Active(); tr != nil { ... }`; Active is
//     a single atomic pointer load and nil means everything — spans,
//     instants, histograms — is skipped.
//  2. Tracing enabled must never block the traced rank: events go
//     into fixed-size per-shard rings with a lock-free atomic cursor;
//     when a ring wraps, the oldest events are overwritten.
//  3. obs is a leaf package. It imports nothing from the VM or the
//     message-passing core; subsystems pass small numeric codes
//     (OpCode, PinDecision, GCPhase, ...) that the export layer turns
//     back into names.
package obs

import (
	"sync/atomic"
	"time"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	// KOp is an engine-level operation span (Arg0 = OpCode,
	// Arg1 = payload bytes, Arg2 = peer/root or ^0).
	KOp Kind = iota + 1
	// KPin is a pin-decision instant (Arg0 = PinDecision, Arg1 = ref).
	KPin
	// KADIReq is an ADI request span from post to completion
	// (Arg0 = ReqDir, Arg1 = peer world rank, Arg2 = buffer bytes).
	KADIReq
	// KFrame is a channel frame instant (Arg0 = FrameDir, Arg1 =
	// packet type, Arg2 = peer, Arg3 = payload bytes).
	KFrame
	// KGC is a collection span (Arg0 = GCKind).
	KGC
	// KGCPhase is a phase span inside a collection (Arg0 = GCPhase).
	KGCPhase
	// KCondPin is a conditional-pin resolution instant during the mark
	// phase (Arg0 = 1 held / 0 dropped, Arg1 = object ref).
	KCondPin
	// KColl is a collective-operation span (Arg0 = CollOp, Arg1 =
	// algorithm code, Arg2 = payload bytes).
	KColl
	// KCollStep is a per-step span inside a collective algorithm
	// (Arg0 = step index, Arg1 = bytes moved this step).
	KCollStep
	// KWait is a blocking polling-wait span (Arg0 = OpCode).
	KWait
	// KSerial is a serialization / deserialization span
	// (Arg0 = 0 serialize / 1 deserialize, Arg1 = bytes).
	KSerial
	// KChunk is one streaming-OO chunk span nested in the op span
	// (Arg0 = 0 serialize / 1 send / 2 recv, Arg1 = chunk index,
	// Arg2 = bytes).
	KChunk
	// KProgress is a background progress-engine activity span covering
	// a burst of progress passes that made progress (Arg0 = passes
	// coalesced into the span). Emitted async (Tracer.Span) because the
	// progress goroutine owns no lane stack.
	KProgress
	// KEdge is a cross-rank message-edge instant recorded at the
	// channel boundary: one edge:send on the producing rank, one
	// edge:recv on the consuming rank, joined by a correlation id so
	// the merge pass can stitch per-rank traces with flow events
	// (Arg0 = EdgeDir, Arg1 = packed correlation id (PackCorr),
	// Arg2 = ctx<<32|tag, Arg3 = payload bytes).
	KEdge
)

// EdgeDir discriminates the two halves of a message edge.
type EdgeDir uint64

// Edge directions.
const (
	EdgeSend EdgeDir = iota
	EdgeRecv
)

// PackCorr packs a message correlation id: source world rank,
// destination world rank, and the source device's per-destination
// sequence number. (src, dst, seq) is unique process-set-wide because
// every device stamps its own monotonically increasing seq per
// destination; the same value travels in the frame header, so both
// halves of the edge compute the identical id.
func PackCorr(src, dst int, seq uint32) uint64 {
	return uint64(uint16(src))<<48 | uint64(uint16(dst))<<32 | uint64(seq)
}

// CorrParts unpacks a PackCorr id.
func CorrParts(corr uint64) (src, dst int, seq uint32) {
	return int(corr >> 48), int(uint16(corr >> 32)), uint32(corr)
}

// OpCode identifies the engine operation a KOp/KWait span covers.
type OpCode uint64

// Engine operation codes.
const (
	OpSend OpCode = iota + 1
	OpRecv
	OpIsend
	OpIrecv
	OpWait
	OpBarrier
	OpBcast
	OpScatter
	OpGather
	OpAllgather
	OpAlltoall
	OpAllreduce
	OpReduce
	OpSendrecv
	OpOSend
	OpORecv
	OpOBcast
	OpOScatter
	OpOGather
	// OpDevWait is the generic device-level polling wait (adi
	// WaitReq), used by the stall watchdog when no higher-level op
	// claimed the wait.
	OpDevWait
)

// PinDecision is the outcome of the pinning policy at one decision
// point (paper §7.4).
type PinDecision uint64

// Pin decisions.
const (
	PinSkippedElder PinDecision = iota + 1 // no pin: elder resident
	PinAvoidedFast                         // no pin: completed before the wait
	PinDeferred                            // pinned at polling-wait entry
	PinEager                               // pinned at op start (always-pin)
	PinCond                                // conditional pin request registered
)

// ReqDir discriminates ADI request direction.
type ReqDir uint64

// ADI request directions.
const (
	ReqSend ReqDir = iota
	ReqRecv
)

// FrameDir discriminates channel frame direction.
type FrameDir uint64

// Frame directions.
const (
	FrameOut FrameDir = iota
	FrameIn
)

// GCKind discriminates collections.
type GCKind uint64

// Collection kinds.
const (
	GCScavenge GCKind = iota
	GCFull
)

// GCPhase identifies a phase span inside one collection.
type GCPhase uint64

// GC phases.
const (
	PhaseHooks    GCPhase = iota + 1 // GC hooks (transport progress)
	PhaseCondPins                    // conditional pin resolution (mark-entry check)
	PhaseScavenge                    // nursery evacuation
	PhaseMark                        // full-collection mark
	PhaseSweep                       // elder sweep
	PhaseRoots                       // root enumeration feeding the parallel mark pool
	PhaseCompact                     // elder sliding compaction
)

// Event is one trace record. TS is nanoseconds since the trace
// started; Dur is zero for instants. Span links related events: a
// span event carries its own id, instants carry their enclosing
// span's id in Parent.
type Event struct {
	TS     int64
	Dur    int64
	Lane   int32 // world rank (or 0 outside a world)
	Kind   Kind
	Span   uint64
	Parent uint64
	Arg0   uint64
	Arg1   uint64
	Arg2   uint64
	Arg3   uint64
}

// maxLanes bounds the per-rank span-stack table. Lanes at or above
// the bound fold onto lane 0 — correlation degrades gracefully rather
// than allocating per-rank.
const maxLanes = 256

// spanDepth bounds one lane's open-span stack; deeper Begins are
// counted but not recorded (their Ends unwind the overflow counter).
const spanDepth = 32

type openSpan struct {
	id     uint64
	parent uint64
	kind   Kind
	ts     int64
	args   [4]uint64
}

// lane is the per-rank tracer state. Only the rank's own goroutine
// touches its lane (all Motor layers of one rank run on one managed
// thread), so no synchronization is needed beyond the event append.
type lane struct {
	stack    [spanDepth]openSpan
	depth    int
	overflow int
	_        [48]byte // keep lanes off each other's cache lines
}

const shardSize = 1 << 14 // default events per shard (power of two)

type shard struct {
	pos atomic.Uint64
	_   [56]byte // pad: cursor and buffer on separate cache lines
	buf []Event
}

// Tracer is one observability session: a sharded event ring, span-id
// allocation, per-lane span stacks, and the latency histograms.
type Tracer struct {
	start  time.Time
	shards []*shard
	mask   uint64
	size   uint64 // events per shard (power of two)
	spanID atomic.Uint64
	lanes  []lane

	// flight marks the always-on second ring (flight.go): smaller
	// shards, duty-cycle armed, displaced by a full session.
	flight bool

	hists [HistCount]Histogram

	// dumpDir is where FlightDump writes a flight recorder's dumps
	// (StartFlight sets it before publishing; never written after).
	dumpDir string
}

// Options configures a tracer.
type Options struct {
	// Shards is the number of event rings (rounded up to a power of
	// two; default 8).
	Shards int
	// ShardSize is the events-per-shard ring capacity (rounded up to
	// a power of two; default 16Ki).
	ShardSize int
	// Flight marks the tracer as a flight recorder (flight.go).
	Flight bool
}

// NewTracer builds a tracer without publishing it; use Start to make
// it the process-active tracer.
func NewTracer(opts Options) *Tracer {
	n := opts.Shards
	if n <= 0 {
		n = 8
	}
	p := 1
	for p < n {
		p <<= 1
	}
	size := opts.ShardSize
	if size <= 0 {
		size = shardSize
	}
	sz := 1
	for sz < size {
		sz <<= 1
	}
	t := &Tracer{
		start:  time.Now(),
		shards: make([]*shard, p),
		mask:   uint64(p - 1),
		size:   uint64(sz),
		flight: opts.Flight,
		lanes:  make([]lane, maxLanes),
	}
	for i := range t.shards {
		t.shards[i] = &shard{buf: make([]Event, sz)}
	}
	return t
}

// Flight reports whether this tracer is the always-on flight
// recorder rather than a full trace session.
func (t *Tracer) Flight() bool { return t.flight }

// active is the process-wide tracer; nil when tracing is disabled.
var active atomic.Pointer[Tracer]

// displaced holds a flight recorder temporarily displaced by a full
// trace session; Stop restores it.
var displaced atomic.Pointer[Tracer]

// Active returns the current tracer, or nil when tracing is off.
// This is the one-atomic-load gate every event site goes through.
func Active() *Tracer { return active.Load() }

// Start builds a tracer and publishes it as the process tracer. A
// full session displaces an active flight recorder (restored by
// Stop); it returns nil (leaving the current session untouched) if a
// full session is already active — the first starter owns it.
func Start(opts Options) *Tracer {
	t := NewTracer(opts)
	for {
		cur := active.Load()
		switch {
		case cur == nil:
			if active.CompareAndSwap(nil, t) {
				return t
			}
		case cur.flight && !t.flight:
			if active.CompareAndSwap(cur, t) {
				displaced.Store(cur)
				return t
			}
		default:
			return nil
		}
	}
}

// Stop unpublishes t, restoring any flight recorder t displaced.
// Emits racing with Stop land in t's rings and are simply never
// exported — safe by construction.
func Stop(t *Tracer) {
	if t == nil {
		return
	}
	if t.flight {
		// A stopping flight recorder may have been displaced by a
		// full session or parked in a duty-cycle gap; forget it
		// everywhere. flightRec is cleared first so a racing
		// CycleFlight rearm sees the retirement and undoes itself.
		flightRec.CompareAndSwap(t, nil)
		displaced.CompareAndSwap(t, nil)
		active.CompareAndSwap(t, nil)
		return
	}
	if d := displaced.Swap(nil); d != nil {
		if active.CompareAndSwap(t, d) {
			return
		}
		// t was not current anymore; put the flight recorder back
		// only if nothing else took over.
		active.CompareAndSwap(nil, d)
		return
	}
	active.CompareAndSwap(t, nil)
}

// Now returns nanoseconds since the trace started (monotonic clock).
func (t *Tracer) Now() int64 { return int64(time.Since(t.start)) }

// NewSpanID allocates a process-unique span id (never 0).
func (t *Tracer) NewSpanID() uint64 { return t.spanID.Add(1) }

// laneOf clamps a world rank onto the lane table.
func (t *Tracer) laneOf(rank int) *lane {
	if rank < 0 || rank >= maxLanes {
		rank = 0
	}
	return &t.lanes[rank]
}

// Emit appends a raw event. Lock-free: one atomic add on the lane's
// shard cursor; the ring overwrites its oldest events when full.
func (t *Tracer) Emit(ev Event) {
	sh := t.shards[uint64(ev.Lane)&t.mask]
	pos := sh.pos.Add(1) - 1
	sh.buf[pos&(t.size-1)] = ev
}

// Current returns the lane's innermost open span id (0 when none) —
// the parent for events emitted by lower layers during the span.
func (t *Tracer) Current(rank int) uint64 {
	l := t.laneOf(rank)
	if l.depth == 0 {
		return 0
	}
	return l.stack[l.depth-1].id
}

// Instant records a zero-duration event under the lane's current
// span.
func (t *Tracer) Instant(rank int, kind Kind, args ...uint64) {
	ev := Event{TS: t.Now(), Lane: int32(rank), Kind: kind, Parent: t.Current(rank)}
	copyArgs(&ev, args)
	t.Emit(ev)
}

// Begin opens a nested span on the rank's lane. Every Begin must be
// matched by an End on the same lane (use defer on error-prone
// paths); the event is emitted at End with the measured duration.
func (t *Tracer) Begin(rank int, kind Kind, args ...uint64) {
	l := t.laneOf(rank)
	if l.depth == spanDepth {
		l.overflow++
		return
	}
	sp := openSpan{id: t.NewSpanID(), kind: kind, ts: t.Now()}
	if l.depth > 0 {
		sp.parent = l.stack[l.depth-1].id
	}
	copy(sp.args[:], args)
	l.stack[l.depth] = sp
	l.depth++
}

// End closes the lane's innermost span and emits it. It returns the
// span's duration in nanoseconds (0 when the stack was empty or the
// span had overflowed).
func (t *Tracer) End(rank int) int64 {
	l := t.laneOf(rank)
	if l.overflow > 0 {
		l.overflow--
		return 0
	}
	if l.depth == 0 {
		return 0
	}
	l.depth--
	sp := l.stack[l.depth]
	dur := t.Now() - sp.ts
	t.Emit(Event{
		TS: sp.ts, Dur: dur, Lane: int32(rank), Kind: sp.kind,
		Span: sp.id, Parent: sp.parent,
		Arg0: sp.args[0], Arg1: sp.args[1], Arg2: sp.args[2], Arg3: sp.args[3],
	})
	return dur
}

// Span emits a complete span with explicit timing and identity — the
// form used for ADI requests, whose lifetime does not nest inside the
// lane's span stack (a request posted under one op can complete under
// another, or under no op at all).
func (t *Tracer) Span(rank int, kind Kind, id, parent uint64, startTS int64, args ...uint64) {
	ev := Event{
		TS: startTS, Dur: t.Now() - startTS, Lane: int32(rank), Kind: kind,
		Span: id, Parent: parent,
	}
	copyArgs(&ev, args)
	t.Emit(ev)
}

func copyArgs(ev *Event, args []uint64) {
	switch len(args) {
	default:
		ev.Arg3 = args[3]
		fallthrough
	case 3:
		ev.Arg2 = args[2]
		fallthrough
	case 2:
		ev.Arg1 = args[1]
		fallthrough
	case 1:
		ev.Arg0 = args[0]
	case 0:
	}
}

// Record adds a nanosecond sample to one of the tracer's latency
// histograms.
func (t *Tracer) Record(h HistID, ns int64) { t.hists[h].Record(ns) }

// Hist returns one of the tracer's histograms.
func (t *Tracer) Hist(h HistID) *Histogram { return &t.hists[h] }

// Events snapshots every shard's ring in cursor order (oldest first
// within a shard). Safe to call while ranks are still emitting; the
// snapshot is merely approximately current.
func (t *Tracer) Events() []Event {
	var out []Event
	for _, sh := range t.shards {
		pos := sh.pos.Load()
		if pos <= t.size {
			out = append(out, sh.buf[:pos]...)
			continue
		}
		// Wrapped: oldest surviving event is at pos % size.
		head := pos & (t.size - 1)
		out = append(out, sh.buf[head:]...)
		out = append(out, sh.buf[:head]...)
	}
	return out
}

// Dropped reports how many events were overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	var n uint64
	for _, sh := range t.shards {
		if pos := sh.pos.Load(); pos > t.size {
			n += pos - t.size
		}
	}
	return n
}

// ShardStats is one event ring's health counters, surfaced in the
// metrics registry as the obs.* group.
type ShardStats struct {
	Events  uint64 // events ever emitted to this shard
	Dropped uint64 // events overwritten by ring wrap
	Wraps   uint64 // complete ring cycles
}

// TracerStats is the tracer's own health snapshot: per-shard ring
// pressure.
type TracerStats struct {
	Shards  []ShardStats
	Dropped uint64 // total overwritten events
	Flight  uint64 // 1 when this is the flight recorder
}

// StatsSnapshot captures the tracer's ring counters.
func (t *Tracer) StatsSnapshot() TracerStats {
	st := TracerStats{Shards: make([]ShardStats, len(t.shards))}
	if t.flight {
		st.Flight = 1
	}
	for i, sh := range t.shards {
		pos := sh.pos.Load()
		s := ShardStats{Events: pos, Wraps: pos / t.size}
		if pos > t.size {
			s.Dropped = pos - t.size
		}
		st.Shards[i] = s
		st.Dropped += s.Dropped
	}
	return st
}
