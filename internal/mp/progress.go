package mp

import (
	"sync/atomic"
	"time"

	"motor/internal/mp/adi"
	"motor/internal/obs"
)

// Background progress engine ("MPI progress for all"): a per-device
// goroutine that drains posted requests, steps collectives' pending
// transfers and feeds the OO chunk pipeline while the application
// computes, so nonblocking operations complete without the caller
// re-entering a polling-wait.
//
// Two disciplines are supported:
//
//   - Free-running (default): the loop runs passes whenever there is
//     work, parking on the device's wake doorbell (armed via
//     Device.SetWake). It is rung only for work nobody else drives: a
//     request its poster left pending (Request.Detach), a waiter that
//     parks, and peers' frames while a waiter is parked
//     (Device.AddParked) on a channel with a channel.Doorbell (shm).
//     A blocking wait drives its own request and rings nothing. A
//     timer re-polls for the rest (sock).
//   - Manual (ProgressOptions.Manual): no goroutine; the owner calls
//     Step. The mptest harness uses this to schedule the progress
//     engine against guest threads deterministically from a seed.
//
// When the device belongs to a Motor VM, every pass must respect the
// collector's safepoint discipline: a pass may complete requests whose
// buffers are conditionally pinned managed objects, and it must never
// observe the heap mid-collection. ProgressOptions.Gate carries that
// contract — the Motor core points it at vm.ExecRun, so each pass
// holds the VM's execution token (no managed thread runs, no
// collection starts, pinned buffer ranges are stable). Between passes
// the engine holds nothing, which is what lets guest threads and the
// collector run at full speed while communication is idle.

// ProgressOptions configures StartProgress.
type ProgressOptions struct {
	// Gate, when non-nil, wraps every progress pass. The Motor core
	// passes vm.ExecRun so a pass runs under the VM execution token;
	// raw mp embedders leave it nil. The gate must not be held by the
	// caller when Stop is invoked, or Stop deadlocks against a pass
	// waiting to acquire it.
	Gate func(func())

	// Manual disables the free-running goroutine. The owner drives the
	// engine with Step (deterministic test harnesses).
	Manual bool

	// Interval bounds how long the free-running loop parks when idle
	// and no doorbell rings. It is the fallback for channels without a
	// channel.Doorbell (sock), whose peer frames wake nothing. Default
	// 100µs requested; see DefaultProgressInterval for what is
	// delivered.
	Interval time.Duration

	// Lane is the obs lane (world rank) for KProgress spans.
	Lane int
}

// DefaultProgressInterval is the idle re-poll period a free-running
// progress loop asks its timer for. It is a lower bound, not what an
// idle loop gets: on Linux the Go runtime parks an idle P with about
// millisecond granularity (≈1.1 ms). Only a waiter parked on a
// channel without a doorbell (sock) waits for it; on shm a waiter
// spins first and a peer's frame rings it once it parks.
const DefaultProgressInterval = 100 * time.Microsecond

// ProgressStats counts progress-engine activity. All fields are
// bumped atomically; read them with Snapshot.
type ProgressStats struct {
	Passes     uint64 // progress passes executed
	Progressed uint64 // passes that moved at least one packet
	Wakes      uint64 // doorbell rings (a request left undriven, a parked waiter)
	Timeouts   uint64 // idle timer expiries (re-poll for peer traffic)
	Errors     uint64 // passes that returned a non-peer channel error
}

// Snapshot returns a consistent copy of the counters, safe while the
// engine runs.
func (s *ProgressStats) Snapshot() ProgressStats {
	return ProgressStats{
		Passes:     atomic.LoadUint64(&s.Passes),
		Progressed: atomic.LoadUint64(&s.Progressed),
		Wakes:      atomic.LoadUint64(&s.Wakes),
		Timeouts:   atomic.LoadUint64(&s.Timeouts),
		Errors:     atomic.LoadUint64(&s.Errors),
	}
}

// Progress is a background progress engine bound to one device.
type Progress struct {
	dev  *adi.Device
	opts ProgressOptions

	stats ProgressStats

	wakeCh chan struct{}
	stopCh chan struct{}
	doneCh chan struct{}

	stopped atomic.Bool

	// Span coalescing: consecutive productive passes collapse into one
	// KProgress span instead of one span per packet. Only the loop (or
	// Step caller) touches these.
	spanStart  int64
	spanPasses uint64
}

// StartProgress binds a progress engine to dev and, unless
// opts.Manual is set, starts its goroutine. It installs the device's
// wake doorbell; the previous doorbell (if any) is replaced. Stop must
// be called before the device is closed.
func StartProgress(dev *adi.Device, opts ProgressOptions) *Progress {
	if opts.Interval <= 0 {
		opts.Interval = DefaultProgressInterval
	}
	p := &Progress{
		dev:    dev,
		opts:   opts,
		wakeCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	dev.SetWake(p.Wake)
	if opts.Manual {
		close(p.doneCh)
	} else {
		go p.loop()
	}
	return p
}

// Stats returns a snapshot of the engine's counters.
func (p *Progress) Stats() ProgressStats { return p.stats.Snapshot() }

// Manual reports whether the engine is step-driven.
func (p *Progress) Manual() bool { return p.opts.Manual }

// Wake rings the doorbell: the free-running loop cuts its idle park
// short and runs a pass. Safe from any goroutine; a ring while the
// loop is already running coalesces. It takes no lock and never
// blocks (one atomic add, one non-blocking send), as a peer rings it
// under the peer's device lock (channel.Doorbell).
func (p *Progress) Wake() {
	atomic.AddUint64(&p.stats.Wakes, 1)
	select {
	case p.wakeCh <- struct{}{}:
	default:
	}
}

// Step executes one progress pass (through the gate, when
// configured) and reports whether it moved a packet. This is the
// manual-mode driver; it is also legal on a free-running engine,
// where it simply adds a pass (the device serializes).
func (p *Progress) Step() (bool, error) {
	return p.pass()
}

// Stop halts the engine, detaches the doorbell and waits for the
// loop goroutine to exit. Idempotent. The caller must not hold the
// gate (see ProgressOptions.Gate).
func (p *Progress) Stop() {
	if !p.stopped.CompareAndSwap(false, true) {
		return
	}
	close(p.stopCh)
	<-p.doneCh
	p.dev.SetWake(nil)
	p.flushSpan()
}

// pass runs one gated progress pass and maintains span coalescing.
func (p *Progress) pass() (bool, error) {
	var progressed bool
	var err error
	run := func() {
		progressed, err = p.dev.Progress()
	}
	tr := obs.Active()
	if tr != nil && p.spanPasses == 0 {
		// Provisional span start: discarded if the pass is idle.
		p.spanStart = tr.Now()
	}
	if p.opts.Gate != nil {
		p.opts.Gate(run)
	} else {
		run()
	}
	atomic.AddUint64(&p.stats.Passes, 1)
	obs.NoteProgress() // watchdog liveness: stall diagnoses cite pass recency
	if err != nil {
		atomic.AddUint64(&p.stats.Errors, 1)
	}
	if progressed {
		atomic.AddUint64(&p.stats.Progressed, 1)
		p.spanPasses++
	} else {
		p.flushSpan()
	}
	return progressed, err
}

// flushSpan emits the coalesced KProgress span covering the burst of
// productive passes since the last idle pass. Tracer.Span is
// lock-free (no lane-stack mutation), so emitting from the progress
// goroutine is safe alongside the rank's own Begin/End spans.
func (p *Progress) flushSpan() {
	if p.spanPasses == 0 {
		return
	}
	n := p.spanPasses
	p.spanPasses = 0
	if tr := obs.Active(); tr != nil {
		tr.Span(p.opts.Lane, obs.KProgress, tr.NewSpanID(), 0, p.spanStart, n)
	}
}

// loop is the free-running engine: drain while productive, then park
// on the doorbell with a timer fallback.
func (p *Progress) loop() {
	defer close(p.doneCh)
	timer := time.NewTimer(p.opts.Interval)
	defer timer.Stop()
	for {
		progressed, _ := p.pass()
		// Re-check stop even when busy, or a saturated wire could keep
		// the loop alive past Stop.
		select {
		case <-p.stopCh:
			return
		default:
		}
		if progressed {
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(p.opts.Interval)
		select {
		case <-p.stopCh:
			return
		case <-p.wakeCh:
		case <-timer.C:
			atomic.AddUint64(&p.stats.Timeouts, 1)
		}
	}
}
