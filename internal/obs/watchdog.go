package obs

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The stall watchdog answers the question the tracer cannot: "is this
// rank stuck right now, and on what?" Every polling wait — engine
// ops, device-level WaitReq, collectives — feeds a per-lane heartbeat
// slot (three atomic stores per wait, always on, no tracer needed);
// a watchdog goroutine scans the slots and fires when a wait has been
// open past a configurable deadline, emitting a diagnosis (op, peer,
// outstanding requests, last GC, progress-pass counters) and a
// flight-recorder dump.

// procStart anchors the watchdog's monotonic clock.
var procStart = time.Now()

func nowNS() int64 { return int64(time.Since(procStart)) }

// beatSlot is one lane's heartbeat state. Writers are the lane's own
// threads (shared ranks may have several, hence atomics); the reader
// is the watchdog goroutine. A slot is 128 bytes, its 36 bytes of
// fields and then padding, so lanes never write one cache line however
// beats happens to be aligned: a rank's per-poll pulse must not
// contend with its peer's wait entry and exit.
type beatSlot struct {
	start  atomic.Int64  // nowNS at outermost entry; 0 = not waiting
	pulses atomic.Uint64 // heartbeat pulses inside the current wait
	fired  atomic.Int64  // start value the watchdog already reported
	depth  atomic.Int32  // nested waits currently open
	op     atomic.Uint32 // outermost wait's op code
	peer   atomic.Int32  // outermost wait's peer (-1 none)
	_      [128 - 36]byte
}

var beats [maxLanes]beatSlot

func beatOf(lane int) *beatSlot {
	if lane < 0 || lane >= maxLanes {
		lane = 0
	}
	return &beats[lane]
}

// BeatEnter marks a polling wait open on the lane. Nested waits keep
// the outermost attribution (the op the user is actually stuck in);
// every BeatEnter must be paired with a BeatExit.
func BeatEnter(lane int, op OpCode, peer int) {
	b := beatOf(lane)
	if b.depth.Add(1) == 1 {
		b.op.Store(uint32(op))
		b.peer.Store(int32(peer))
		b.pulses.Store(0)
		b.start.Store(nowNS())
	}
}

// BeatPulse records one heartbeat inside the current wait (one poll
// loop iteration). The count discriminates a live polling loop that
// is making no progress from a thread that stopped polling entirely.
func BeatPulse(lane int) { beatOf(lane).pulses.Add(1) }

// BeatExit closes the innermost wait on the lane.
func BeatExit(lane int) {
	b := beatOf(lane)
	if b.depth.Add(-1) == 0 {
		b.start.Store(0)
	}
}

// GC attribution: the VM notes every collection so a stall diagnosis
// can say whether the collector ran recently (a stuck rank whose last
// GC is seconds old is blocked in transport, not in the heap).
var (
	lastGCEnd   atomic.Int64 // nowNS at last collection end; 0 = never
	lastGCKind  atomic.Uint64
	lastGCPause atomic.Int64
	gcCount     atomic.Uint64
)

// NoteGC records a finished collection for stall attribution. Called
// by the VM on every collection, tracer or not (four atomic stores).
func NoteGC(kind GCKind, pauseNS int64) {
	lastGCKind.Store(uint64(kind))
	lastGCPause.Store(pauseNS)
	lastGCEnd.Store(nowNS())
	gcCount.Add(1)
}

// Progress-engine attribution: the background progress engine notes
// each pass so a diagnosis can tell "progress engine dead" from
// "progress engine spinning without completing anything".
var (
	lastProgressNS atomic.Int64
	progressPasses atomic.Uint64
)

// NoteProgress records one background progress pass.
func NoteProgress() {
	progressPasses.Add(1)
	lastProgressNS.Store(nowNS())
}

// Stall describes one detected stall.
type Stall struct {
	Lane   int
	Op     OpCode
	Peer   int           // -1 when the wait has no single peer
	Waited time.Duration // how long the wait has been open
	Pulses uint64        // poll iterations inside the wait
	Diag   []string      // subsystem diagnosis lines (outstanding requests, ...)
}

// stallDiags holds per-lane diagnosis providers registered by upper
// layers (the engine registers one per rank reporting outstanding
// device requests and progress counters).
var (
	stallMu    sync.Mutex
	stallDiags = map[int][]*stallDiag{}
)

type stallDiag struct{ f func() string }

// RegisterStallDiag adds a diagnosis provider for a lane; the
// returned function unregisters it. Providers run on the watchdog
// goroutine when that lane stalls and must be safe to call from
// outside the lane's thread.
func RegisterStallDiag(lane int, f func() string) func() {
	d := &stallDiag{f: f}
	stallMu.Lock()
	stallDiags[lane] = append(stallDiags[lane], d)
	stallMu.Unlock()
	return func() {
		stallMu.Lock()
		defer stallMu.Unlock()
		ds := stallDiags[lane]
		for i, x := range ds {
			if x == d {
				stallDiags[lane] = append(ds[:i:i], ds[i+1:]...)
				break
			}
		}
		if len(stallDiags[lane]) == 0 {
			delete(stallDiags, lane)
		}
	}
}

func diagnose(lane int) []string {
	stallMu.Lock()
	ds := append([]*stallDiag(nil), stallDiags[lane]...)
	stallMu.Unlock()
	var out []string
	for _, d := range ds {
		if s := strings.TrimSpace(d.f()); s != "" {
			out = append(out, strings.Split(s, "\n")...)
		}
	}
	if end := lastGCEnd.Load(); end != 0 {
		kind := "scavenge"
		if GCKind(lastGCKind.Load()) == GCFull {
			kind = "full"
		}
		out = append(out, fmt.Sprintf("last GC: %s %v ago (pause %v, %d collections)",
			kind, (time.Duration(nowNS()-end)).Round(time.Millisecond),
			time.Duration(lastGCPause.Load()).Round(time.Microsecond), gcCount.Load()))
	} else {
		out = append(out, "last GC: never")
	}
	if last := lastProgressNS.Load(); last != 0 {
		out = append(out, fmt.Sprintf("progress engine: %d passes, last %v ago",
			progressPasses.Load(), (time.Duration(nowNS()-last)).Round(time.Millisecond)))
	}
	return out
}

// watchdogFires counts stalls reported process-wide (all watchdogs).
var watchdogFires atomic.Uint64

// WatchdogFires reports how many stalls the watchdog has flagged.
func WatchdogFires() uint64 { return watchdogFires.Load() }

// WatchdogConfig configures a stall watchdog.
type WatchdogConfig struct {
	// Deadline is how long a single wait may stay open before the
	// watchdog fires (default 60s).
	Deadline time.Duration
	// Poll is the scan period (default Deadline/4, clamped to
	// [10ms, 5s]).
	Poll time.Duration
	// OnStall handles a detected stall. Nil means: write the
	// diagnosis to stderr and dump the flight recorder.
	OnStall func(Stall)
}

// Watchdog is a running stall scanner.
type Watchdog struct {
	deadline time.Duration
	onStall  func(Stall)
	stop     chan struct{}
	done     chan struct{}
}

// StartWatchdog launches the scanner goroutine. Each stalled wait is
// reported exactly once (a wait that resolves and re-enters arms the
// watchdog again).
func StartWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Deadline <= 0 {
		cfg.Deadline = 60 * time.Second
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = cfg.Deadline / 4
	}
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	if poll > 5*time.Second {
		poll = 5 * time.Second
	}
	w := &Watchdog{
		deadline: cfg.Deadline,
		onStall:  cfg.OnStall,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if w.onStall == nil {
		w.onStall = defaultOnStall
	}
	go w.loop(poll)
	return w
}

// Stop terminates the scanner and waits for it to exit.
func (w *Watchdog) Stop() {
	close(w.stop)
	<-w.done
}

func (w *Watchdog) loop(poll time.Duration) {
	defer close(w.done)
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			w.scan()
		}
	}
}

func (w *Watchdog) scan() {
	now := nowNS()
	for lane := range beats {
		b := &beats[lane]
		start := b.start.Load()
		if start == 0 || time.Duration(now-start) < w.deadline {
			continue
		}
		// Report each wait once: fired remembers the start stamp.
		prev := b.fired.Load()
		if prev == start || !b.fired.CompareAndSwap(prev, start) {
			continue
		}
		watchdogFires.Add(1)
		w.onStall(Stall{
			Lane:   lane,
			Op:     OpCode(b.op.Load()),
			Peer:   int(b.peer.Load()),
			Waited: time.Duration(now - start),
			Pulses: b.pulses.Load(),
			Diag:   diagnose(lane),
		})
	}
}

// WriteStall renders one stall diagnosis.
func WriteStall(w io.Writer, s Stall) {
	fmt.Fprintf(w, "motor watchdog: rank %d stuck in %s for %v (peer=%d, %d poll pulses)\n",
		s.Lane, OpName(s.Op), s.Waited.Round(time.Millisecond), s.Peer, s.Pulses)
	for _, d := range s.Diag {
		fmt.Fprintf(w, "  %s\n", d)
	}
}

func defaultOnStall(s Stall) {
	WriteStall(os.Stderr, s)
	FlightTrip("watchdog")
}

// Waiting returns the lanes currently inside a polling wait together
// with how long each has been open — the live view /healthz serves.
func Waiting() map[int]time.Duration {
	out := map[int]time.Duration{}
	now := nowNS()
	for lane := range beats {
		if start := beats[lane].start.Load(); start != 0 {
			out[lane] = time.Duration(now - start)
		}
	}
	return out
}

// sortedLanes is a small helper for deterministic rendering of
// Waiting maps.
func sortedLanes(m map[int]time.Duration) []int {
	lanes := make([]int, 0, len(m))
	for l := range m {
		lanes = append(lanes, l)
	}
	sort.Ints(lanes)
	return lanes
}
