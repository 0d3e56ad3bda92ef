package main

import (
	"fmt"
	"sync"
	"time"

	"motor"
)

// Command words rank 0 broadcasts through the managed ctl method. A
// positive word is the number of calls in the block that follows.
const (
	cmdStop  = 0
	cmdCheck = -1
	cmdProbe = -2 // traced run: drive the workload's layers one by one
)

// runOpts selects what one run of a workload does.
type runOpts struct {
	seconds float64 // length of the timed section
	spans   *recorder
	// productTrace, when set, turns Motor's own tracer on for the run
	// (Config.Trace) and names the file it writes.
	productTrace string
}

// runResult is what one run of a workload measured.
type runResult struct {
	// ReadyUnixNs is the wall-clock instant set-up and warm-up were done.
	ReadyUnixNs int64
	Attempted   int64
	Failed      int64
	Errors      []string
	OpUs        []float64
	// With a span recorder it runs on alternate blocks: OpUsSpans and
	// OpUsPlain split the samples by whether it was on.
	OpUsSpans []float64
	OpUsPlain []float64
	Blocks    []block
	// Counters is what rank 0's public stats snapshot counted inside the
	// timed blocks of a traced run (the harness's own control messages
	// fall between blocks); Totals is the snapshot at the end, for
	// counters that are set once at load.
	Counters map[string]float64
	Totals   map[string]float64
	Hists    map[string]float64
	LoadMs   float64
	// PeakRSSMiB is the process's resident high-water mark when the
	// workload's memoryOps timed ops were done.
	PeakRSSMiB float64
	// Probe is what the workload's prober returned on rank 0.
	Probe map[string]float64
}

// counters flattens Rank.StatsSnapshot into "group.Field" -> value.
func counters(r *motor.Rank) map[string]float64 {
	out := make(map[string]float64)
	for _, g := range r.StatsSnapshot().Groups {
		for _, f := range g.Fields {
			out[g.Name+"."+f.Name] = float64(f.Value)
		}
	}
	return out
}

// addDiff adds after-before to sum, counter by counter.
func addDiff(sum, after, before map[string]float64) {
	for k, v := range after {
		sum[k] += v - before[k]
	}
}

// runWorkload builds the workload's world in this process, sets it up,
// warms it up and runs timed blocks for opts.seconds. Rank 0's
// goroutine is the only load generator and takes the timestamps.
func runWorkload(w *workload, sz sizes, opts runOpts) (*runResult, error) {
	ws := w.scaled(sz)
	w = &ws
	src, err := w.source()
	if err != nil {
		return nil, err
	}
	cfg := w.motorConfig()
	cfg.Trace = opts.productTrace
	res := &runResult{Counters: make(map[string]float64)}
	var mu sync.Mutex // guards res.Errors across the two rank goroutines
	fail := func(format string, args ...any) {
		mu.Lock()
		res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	err = motor.Run(cfg, func(r *motor.Rank) error {
		t0 := time.Now()
		if _, err := r.Load(src); err != nil {
			return fmt.Errorf("%s: load: %w", w.name, err)
		}
		if r.ID() == 0 {
			res.LoadMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		prog := w.new(w, sz)
		if err := prog.setup(r); err != nil {
			return fmt.Errorf("%s: rank %d setup: %w", w.name, r.ID(), err)
		}
		ctl, err := bind(r, "ctl")
		if err != nil {
			return err
		}
		var call int64
		runBlock := func(n int, rec *recorder, timed func(dt time.Duration, failed int64)) error {
			for i := 0; i < n; i++ {
				id := rec.begin("call", call)
				t0 := time.Now()
				failed, err := prog.batch(r, call)
				dt := time.Since(t0)
				rec.end(id)
				if err != nil {
					return fmt.Errorf("%s: rank %d call %d: %w", w.name, r.ID(), call, err)
				}
				call++
				if timed != nil {
					timed(dt, failed)
				}
			}
			return nil
		}
		finish := func() {
			if n := r.Engine().Comm.Outstanding(); n != 0 {
				fail("rank %d: %d requests outstanding at exit", r.ID(), n)
			}
			if gs := r.GCStats(); gs.Pins != gs.Unpins {
				fail("rank %d: %d pins but %d unpins at exit", r.ID(), gs.Pins, gs.Unpins)
			}
		}

		if r.ID() != 0 {
			for {
				v, err := ctl(iv(0))
				if err != nil {
					return err
				}
				switch cmd := int64(v.Bits); {
				case cmd == cmdStop:
					finish()
					return nil
				case cmd == cmdCheck:
					if err := prog.check(r); err != nil {
						fail("rank %d check: %v", r.ID(), err)
					}
				case cmd == cmdProbe:
					if _, err := prog.(prober).probe(r, nil); err != nil {
						return err
					}
				default:
					if err := runBlock(int(cmd), nil, nil); err != nil {
						return err
					}
				}
			}
		}

		send := func(cmd int64) error { _, err := ctl(iv(cmd)); return err }
		if err := send(int64(w.warmCalls)); err != nil {
			return err
		}
		if err := runBlock(w.warmCalls, nil, nil); err != nil {
			return err
		}
		res.ReadyUnixNs = time.Now().UnixNano()
		k := int64(w.opsPerCall)
		start := time.Now()
		for nblock := 0; ; nblock++ {
			if err := send(int64(w.callsPerBlock)); err != nil {
				return err
			}
			// With a recorder, odd blocks run with it off: the gap
			// between the two sample sets is what recording costs.
			rec := opts.spans
			if nblock%2 == 1 {
				rec = nil
			}
			var before map[string]float64
			if opts.spans != nil {
				before = counters(r)
			}
			var blockTime time.Duration
			err := runBlock(w.callsPerBlock, rec, func(dt time.Duration, failed int64) {
				blockTime += dt
				us := float64(dt.Nanoseconds()) / 1e3 / float64(k)
				res.OpUs = append(res.OpUs, us)
				if rec != nil {
					res.OpUsSpans = append(res.OpUsSpans, us)
				} else if opts.spans != nil {
					res.OpUsPlain = append(res.OpUsPlain, us)
				}
				res.Attempted += k
				res.Failed += failed
			})
			if err != nil {
				return err
			}
			if opts.spans != nil {
				res.Totals = counters(r)
				addDiff(res.Counters, res.Totals, before)
			}
			res.Blocks = append(res.Blocks, block{Ops: k * int64(w.callsPerBlock), Seconds: blockTime.Seconds()})
			if err := send(cmdCheck); err != nil {
				return err
			}
			if err := prog.check(r); err != nil {
				fail("rank 0 check after block %d: %v", nblock, err)
			}
			if res.PeakRSSMiB == 0 && res.Attempted >= w.memoryOps {
				if res.PeakRSSMiB, err = peakRSSMiB(); err != nil {
					return err
				}
			}
			// The smoke protocol runs two blocks whatever the clock says;
			// a run on a slow host goes on until memory has been read.
			if sz.smoke && nblock >= 1 || !sz.smoke && time.Since(start).Seconds() >= opts.seconds && res.PeakRSSMiB != 0 {
				break
			}
		}
		if p, ok := prog.(prober); ok && opts.spans != nil {
			if err := send(cmdProbe); err != nil {
				return err
			}
			if res.Probe, err = p.probe(r, opts.spans); err != nil {
				return err
			}
		}
		if opts.productTrace != "" {
			res.Hists = make(map[string]float64)
			for name, h := range r.StatsSnapshot().Hists {
				res.Hists[name+".p99"] = float64(h.P99)
			}
		}
		if err := send(cmdStop); err != nil {
			return err
		}
		finish()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
