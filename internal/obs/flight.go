package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the always-on half of the tracer: a small
// second ring (4 shards × 4Ki events) that runs even without
// -trace/MOTOR_TRACE. Its job is not profiling but post-mortem: when
// a guest program traps, a peer dies with mp.ErrTransport, or the
// stall watchdog fires, the recent past is dumped to a Chrome trace
// file automatically. A full trace session displaces the flight
// recorder for its duration (obs.Start/Stop handle the swap).
//
// The always-on budget is met by duty-cycle arming (CycleFlight): the
// recorder publishes itself as the process tracer only for short
// windows, so the out-of-window hot path pays exactly the
// tracing-disabled cost (one atomic nil load per event site) and the
// in-window cost is amortized by the duty factor. Within a window
// events record at full fidelity — complete message lifecycles, which
// is what a post-mortem needs — rather than 1-in-N event sampling,
// whose per-event call overhead alone would blow the budget.

// flightOptions is the fixed shape of the always-on ring: small
// enough that an idle world costs nothing to keep, deep enough to
// hold the last few thousand events per shard at dump time.
var flightOptions = Options{Shards: 4, ShardSize: 1 << 12, Flight: true}

// flightRec is the process flight recorder, armed or not. FlightDump
// reads it instead of Active so a recorder sitting in a duty-cycle
// gap (or displaced) can still be found and — when not displaced —
// dumped.
var flightRec atomic.Pointer[Tracer]

// FlightRecorder returns the process flight recorder whether or not
// it is currently armed, or nil when none is running.
func FlightRecorder() *Tracer { return flightRec.Load() }

// StartFlight publishes a flight recorder as the process tracer if no
// session is active; FlightDump writes its dumps into dumpDir (the OS
// temp dir when empty). Returns nil when another session (full or
// flight) already owns the process. The recorder starts always-armed;
// call CycleFlight to switch it to duty-cycle arming.
func StartFlight(dumpDir string) *Tracer {
	t := NewTracer(flightOptions)
	t.dumpDir = dumpDir
	if !flightRec.CompareAndSwap(nil, t) {
		return nil
	}
	if !active.CompareAndSwap(nil, t) {
		flightRec.CompareAndSwap(t, nil)
		return nil
	}
	return t
}

// Flight duty-cycle defaults: armed 500µs out of every 20ms. The
// average overhead is the armed tracing cost times the duty factor
// (2.5%), which keeps the always-on path well inside the <5%
// ping-pong budget while each window records complete operations.
const (
	DefaultFlightWindow = 500 * time.Microsecond
	DefaultFlightPeriod = 20 * time.Millisecond
)

// CycleFlight switches flight recorder t from always-armed to
// duty-cycle arming: Active returns t for window out of every period
// and nil in between. Zero window/period select the defaults. The
// returned stop function (idempotent) ends cycling, leaving t
// wherever the cycle last put it; follow with Stop(t) to retire the
// recorder.
func CycleFlight(t *Tracer, window, period time.Duration) func() {
	if t == nil || !t.flight {
		return func() {}
	}
	if window <= 0 {
		window = DefaultFlightWindow
	}
	if period <= window {
		period = DefaultFlightPeriod
		if period <= window {
			period = 2 * window
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(window):
			}
			active.CompareAndSwap(t, nil) // disarm; no-op when displaced
			select {
			case <-stop:
				return
			case <-time.After(period - window):
			}
			// Rearm unless a full session owns the process. Stop(t)
			// clears flightRec before unpublishing, so a rearm racing
			// with Stop detects it here and undoes itself.
			active.CompareAndSwap(nil, t)
			if flightRec.Load() != t {
				active.CompareAndSwap(t, nil)
				return
			}
		}
	}()
	var once sync.Once
	// The stop function waits for the goroutine to exit so no stray
	// rearm can follow it — a zombie arm would make the next
	// StartFlight refuse and silently lose the recorder.
	return func() {
		once.Do(func() { close(stop) })
		<-done
	}
}

// flightDumps counts dump files written, both to name them uniquely
// and to cap runaway dumping (a trap storm must not fill the disk).
var flightDumps atomic.Uint64

// lastDumpNS rate-limits dumps to one per second.
var lastDumpNS atomic.Int64

// maxFlightDumps bounds dump files per process.
const maxFlightDumps = 8

// FlightDump writes the flight recorder's rings to a Chrome trace
// file and returns its path, in the directory StartFlight was given
// (the OS temp dir when empty). Returns "" (no error) when no
// flight recorder is active (including while a full trace session has
// displaced it — the user already owns that data), when the
// per-process dump cap is reached, or within the 1s rate limit —
// dump sites fire on failure paths and must never make a failure
// worse.
func FlightDump(reason string) (string, error) {
	t := flightRec.Load()
	if t == nil {
		return "", nil
	}
	if cur := Active(); cur != nil && !cur.flight {
		// A full trace session displaced the recorder; the user
		// already owns that data.
		return "", nil
	}
	now := time.Now().UnixNano()
	last := lastDumpNS.Load()
	if now-last < int64(time.Second) || !lastDumpNS.CompareAndSwap(last, now) {
		return "", nil
	}
	n := flightDumps.Add(1)
	if n > maxFlightDumps {
		return "", nil
	}
	dir := t.dumpDir
	if dir == "" {
		dir = os.TempDir()
	}
	name := fmt.Sprintf("motor-flight-%d-%d-%s.json", os.Getpid(), n, sanitizeReason(reason))
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	werr := t.WriteChromeTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}
	return path, nil
}

// FlightTrip is the fire-and-forget dump trigger used by failure
// paths (guest trap, transport error, watchdog). It dumps, announces
// the file on stderr, and swallows errors.
func FlightTrip(reason string) {
	path, err := FlightDump(reason)
	if err != nil {
		fmt.Fprintf(os.Stderr, "motor: flight-recorder dump failed (%s): %v\n", reason, err)
		return
	}
	if path != "" {
		fmt.Fprintf(os.Stderr, "motor: flight recorder dumped to %s (%s)\n", path, reason)
	}
}

func sanitizeReason(reason string) string {
	if reason == "" {
		return "dump"
	}
	var b strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	s := b.String()
	if len(s) > 40 {
		s = s[:40]
	}
	return s
}
