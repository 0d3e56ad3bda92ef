package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"motor"
	"motor/internal/mp/adi"
	"motor/internal/mp/channel"
)

// This file is the layer view: everything that reaches below the
// public motor API. It times calls into the exported functions of the
// repo's layers and reads the public stats snapshots; it changes
// nothing in the product.

// layerUnits names every per-layer metric and its unit. A traced run
// reports all of them for every workload; one that does not apply to a
// workload (serial.* without an object tree, progress counters without
// the async engine) reads 0 there.
var layerUnits = map[string]string{
	// internal/mp/channel
	"channel.rt_ns":      "ns",
	"channel.sock_rt_ns": "ns",
	"channel.frames":     "1/op",
	"channel.retries":    "count",
	// internal/mp/adi
	"adi.self_ns":        "ns",
	"adi.eager_sent":     "1/op",
	"adi.rndv_sent":      "1/op",
	"adi.unexpected":     "1/op",
	"adi.poll_hit_ratio": "ratio",
	// internal/mp
	"mp.self_ns":            "ns",
	"mp.progress_passes":    "1/op",
	"mp.progress_hit_ratio": "ratio",
	"mp.progress_wakes":     "1/op",
	// internal/core
	"core.self_ns":            "ns",
	"core.pins_skipped_elder": "1/op",
	"core.pins_avoided_fast":  "1/op",
	"core.pins_deferred":      "1/op",
	"core.cond_pins":          "1/op",
	"core.checks_dyn":         "1/op",
	"core.checks_fast":        "1/op",
	"core.oo_chunks":          "1/op",
	"core.buffer_reuse_ratio": "ratio",
	// internal/serial
	"serial.ser_ns_per_obj":   "ns",
	"serial.deser_ns_per_obj": "ns",
	"serial.bytes_per_obj":    "B",
	// internal/vm
	"vm.fcall_self_ns":       "ns",
	"vm.compute_ns_per_step": "ns",
	"vm.load_ms":             "ms",
	"vm.quickened":           "count",
	"vm.devirted":            "count",
	"vm.scavenges":           "1/op",
	"vm.full_gcs":            "1/op",
	"vm.cond_pins_held":      "1/op",
	"vm.gc_pause_p99_us":     "us",
	"vm.gc_pause_total_ms":   "ms",
	"vm.promoted_bytes":      "B/op",
	// facade and observability
	"motor.over_native_ns":     "ns",
	"obs.trace_overhead_frac":  "ratio",
	"bench.span_overhead_frac": "ratio",
	// the ladder as a whole, and the shares that show each workload
	// stresses the layer it was chosen for
	"ladder.top_ns":       "ns",
	"ladder.spread_frac":  "ratio",
	"ladder.sum_gap_frac": "ratio",
	"ladder.op_gap_frac":  "ratio",
	"ladder.resolved":     "bool",
	"traced.op_p50_us":    "us",
	// demoted from the end-to-end set: too noisy to gate (see compare.go)
	"diag.op_tail_us":   "us",
	"diag.op_tail_pct":  "%",
	"heat2d.comm_frac":  "ratio",
	"otree.serial_frac": "ratio",
}

// layerHigherBetter lists the per-layer metrics for which a higher
// value is the good direction (useful outcomes per attempt, work the
// fast path took); for all others lower is better or, for plain
// counts, merely expected to stay put.
var layerHigherBetter = map[string]bool{
	"adi.poll_hit_ratio": true, "mp.progress_hit_ratio": true, "core.buffer_reuse_ratio": true,
	"core.pins_skipped_elder": true, "core.pins_avoided_fast": true, "core.checks_fast": true,
	"vm.quickened": true, "vm.devirted": true, "ladder.resolved": true,
}

func layerMetricNames() []string {
	names := make([]string, 0, len(layerUnits))
	for name := range layerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// prober is implemented by workloads that can drive their layers one
// call at a time. Both ranks call probe at the same point after the
// timed section of a traced run; rank 0 records spans and returns
// per-layer metrics.
type prober interface {
	probe(r *motor.Rank, rec *recorder) (map[string]float64, error)
}

// outDir is where a traced run leaves its span files.
var outDir = filepath.Join("benchmark", "out")

// tracedRun is the traced counterpart of a measured run. It splits the
// time budget over the workload itself with the span recorder on
// (counters, workload probes), the layer ladder, and the workload
// again under Motor's own tracer.
func tracedRun(w *workload, sz sizes, seconds float64, out *childOut) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rec := newRecorder()
	res, err := runWorkload(w, sz, runOpts{seconds: 0.4 * seconds, spans: rec})
	if err != nil {
		return err
	}
	out.take(res, w)
	layers := make(map[string]float64, len(layerUnits))
	for name := range layerUnits {
		layers[name] = 0
	}
	if err := counterMetrics(res, layers); err != nil {
		return err
	}
	for k, v := range res.Probe {
		layers[k] = v
	}
	plain := median(res.OpUsPlain)
	layers["traced.op_p50_us"] = out.Op.P50
	layers["diag.op_tail_us"], layers["diag.op_tail_pct"] = out.Op.Tail, out.Op.TailPct
	if plain > 0 {
		layers["bench.span_overhead_frac"] = median(res.OpUsSpans)/plain - 1
	}

	lad, err := runLadder(w.msgBytes, 0.3*seconds, sz.smoke, rec)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	lad.report(layers)
	if w.module == "pp.masm" && !w.motorConfig().AsyncProgress {
		// The top rung is this workload's own op, measured a second
		// time on another world: the two must agree.
		layers["ladder.op_gap_frac"] = math.Abs(layers["ladder.top_ns"]/1e3-plain) / plain
		if layers["ladder.op_gap_frac"] > layers["ladder.spread_frac"] {
			layers["ladder.resolved"] = 0
		}
	}

	// Part 3 is left out with the async engine: motor.Run exports the
	// trace as soon as every rank's body has returned, while the
	// deferred engine shutdown still lets the progress goroutine emit
	// events (a data race in the product at this commit, found by this
	// benchmark's smoke test under -race).
	if !w.motorConfig().AsyncProgress {
		traced, err := runWorkload(w, sz, runOpts{seconds: 0.2 * seconds, productTrace: filepath.Join(outDir, w.name+".motor-trace.json")})
		if err != nil {
			return fmt.Errorf("under Motor's tracer: %w", err)
		}
		out.Errors = append(out.Errors, traced.Errors...)
		out.Failed += traced.Failed
		if plain > 0 {
			layers["obs.trace_overhead_frac"] = median(traced.OpUs)/plain - 1
		}
		pause, ok := traced.Hists["gc_pause_ns.p99"]
		if !ok {
			return fmt.Errorf("stats snapshot under Motor's tracer has no gc_pause_ns histogram")
		}
		layers["vm.gc_pause_p99_us"] = pause / 1e3
	}

	out.Layers = layers
	return rec.write(filepath.Join(outDir, w.name+".trace.json"))
}

// counterMetrics turns rank 0's stats snapshots into per-op counts and
// ratios. A counter the snapshot no longer has is an error, not a
// zero: a renamed field must not read as "nothing happened".
func counterMetrics(res *runResult, layers map[string]float64) error {
	c, total := res.Counters, res.Totals
	ops := float64(res.Attempted)
	var missing []string
	get := func(m map[string]float64, key string) float64 {
		v, ok := m[key]
		if !ok {
			missing = append(missing, key)
		}
		return v
	}
	perOp := func(key string) float64 { return get(c, key) / ops }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	layers["channel.frames"] = perOp("transport.FramesSent") + perOp("transport.FramesRecvd")
	layers["channel.retries"] = get(c, "transport.DialRetries") + get(c, "transport.BootstrapRetries") + get(c, "transport.PoisonedConns")
	layers["adi.eager_sent"] = perOp("device.EagerSent")
	layers["adi.rndv_sent"] = perOp("device.RndvSent")
	layers["adi.unexpected"] = perOp("device.Unexpected")
	layers["adi.poll_hit_ratio"] = ratio(get(c, "device.Deliveries"), get(c, "device.Polls"))
	layers["core.pins_skipped_elder"] = perOp("engine.PinSkippedElder")
	layers["core.pins_avoided_fast"] = perOp("engine.PinAvoidedFast")
	layers["core.pins_deferred"] = perOp("engine.PinDeferred")
	layers["core.cond_pins"] = perOp("engine.CondPins")
	layers["core.checks_dyn"] = perOp("engine.TransferChecksDyn")
	layers["core.checks_fast"] = perOp("engine.TransferChecksFast")
	layers["core.oo_chunks"] = perOp("engine.OOChunksSent") + perOp("engine.OOChunksRecvd")
	layers["core.buffer_reuse_ratio"] = ratio(get(c, "engine.BufferReuses"), get(c, "engine.BufferReuses")+get(c, "engine.BufferAllocs"))
	layers["vm.scavenges"] = perOp("gc.Scavenges")
	layers["vm.full_gcs"] = perOp("gc.FullGCs")
	layers["vm.cond_pins_held"] = perOp("gc.CondPinsHeld")
	layers["vm.promoted_bytes"] = perOp("gc.BytesPromoted")
	layers["vm.gc_pause_total_ms"] = get(c, "gc.PauseNs") / 1e6
	layers["vm.quickened"] = get(total, "quicken.Methods")
	layers["vm.devirted"] = get(total, "quicken.Devirted")
	layers["vm.load_ms"] = res.LoadMs
	if len(missing) > 0 {
		return fmt.Errorf("stats snapshot has no counter %v", missing)
	}
	// The progress group exists only with the async engine.
	layers["mp.progress_passes"] = c["progress.Passes"] / ops
	layers["mp.progress_hit_ratio"] = ratio(c["progress.Progressed"], c["progress.Passes"])
	layers["mp.progress_wakes"] = c["progress.Wakes"] / ops
	return nil
}

// --- the ladder --------------------------------------------------------------

// The ladder runs the same ping-pong at every layer's public API on one
// live 2-rank world, from the raw channel up to the managed program.
// Rungs are interleaved block by block, so drift hits all of them
// alike; a layer's self cost is its rung's median minus the rung
// below.
var rungNames = []string{"channel", "adi", "mp", "core", "masm"}

type ladder struct {
	samples [][]float64 // [rung][round] ns per round trip
	sock    float64     // channel rung on a sock world
}

const ladderTag = 11

// rawSink receives channel-rung frames into one fixed buffer.
type rawSink struct{ buf []byte }

func (s *rawSink) Deliver(hdr channel.Header) []byte { return s.buf[:hdr.Size] }
func (s *rawSink) Done(channel.Header)               {}

// channelRung is m round trips of raw frames. It bypasses the device,
// which is safe only because the device polls the channel solely from
// inside its own calls and no call is in progress on either rank.
func channelRung(ch channel.Channel, sink *rawSink, payload []byte, m int) error {
	me := ch.Rank()
	recv := func() error {
		for {
			ok, err := ch.Poll(sink)
			if err != nil || ok {
				return err
			}
			runtime.Gosched()
		}
	}
	hdr := channel.Header{Type: channel.PktEager, Source: int32(me), Tag: ladderTag}
	for i := 0; i < m; i++ {
		if me == 0 {
			if err := ch.Send(1, hdr, payload); err != nil {
				return err
			}
		}
		if err := recv(); err != nil {
			return err
		}
		if me == 1 {
			if err := ch.Send(0, hdr, payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// pingPongRung is m round trips through send and recv, whichever
// layer they belong to.
func pingPongRung(me, m int, send, recv func() error) error {
	for i := 0; i < m; i++ {
		first, second := send, recv
		if me == 1 {
			first, second = recv, send
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
	}
	return nil
}

// ladderRank is one rank's side of the ladder: rounds × rungs blocks
// of m round trips. Rank 0 returns the block means per rung.
func ladderRank(r *motor.Rank, bytes, m int, budget time.Duration, minRounds int, rec *recorder) ([][]float64, error) {
	me, peer := r.ID(), 1-r.ID()
	comm := r.Engine().Comm
	dev := comm.Device()
	ch := dev.Channel()
	payload := make([]byte, bytes)
	sink := &rawSink{buf: make([]byte, bytes)}
	elems := int64(bytes / 4)
	client, err := bind(r, "client")
	if err != nil {
		return nil, err
	}
	server, err := bind(r, "server")
	if err != nil {
		return nil, err
	}
	ctl, err := bind(r, "ctl")
	if err != nil {
		return nil, err
	}
	wait := func(req *adi.Request, err error) error {
		if err == nil {
			_, err = dev.WaitReq(req)
		}
		return err
	}
	rungs := []func() error{
		func() error { return channelRung(ch, sink, payload, m) },
		func() error {
			return pingPongRung(me, m,
				func() error { return wait(dev.Isend(adi.SliceBuf(payload), peer, ladderTag, 0, false)) },
				func() error { return wait(dev.Irecv(adi.SliceBuf(payload), peer, ladderTag, 0)) })
		},
		func() error {
			return pingPongRung(me, m,
				func() error { return comm.Send(payload, peer, ladderTag) },
				func() error { _, err := comm.Recv(payload, peer, ladderTag); return err })
		},
		func() error {
			// A fresh array per block, as the managed client allocates
			// one per call: the buffer is young and the pin policy has
			// the same decision to make.
			buf, err := r.NewArray(motor.Int32, int(elems))
			if err != nil {
				return err
			}
			defer r.Protect(&buf)()
			return pingPongRung(me, m,
				func() error { return r.Send(buf, peer, ladderTag) },
				func() error { _, err := r.Recv(buf, peer, ladderTag); return err })
		},
		func() error {
			if me == 1 {
				_, err := server(iv(elems), iv(0), iv(int64(m)))
				return err
			}
			bad, err := client(iv(elems), iv(0), iv(0), iv(int64(m)))
			if err == nil && bad.Bits != 0 {
				err = fmt.Errorf("masm rung: %d round trips failed their check", bad.Bits)
			}
			return err
		},
	}
	samples := make([][]float64, len(rungs))
	start := time.Now()
	for round := 0; ; round++ {
		// Rank 0 decides whether another round runs; the managed ctl
		// broadcast tells rank 1.
		more := int64(0)
		if me == 0 && (round < minRounds || time.Since(start) < budget) {
			more = 1
		}
		v, err := ctl(iv(more))
		if err != nil {
			return nil, err
		}
		if v.Bits == 0 {
			return samples, nil
		}
		// Each round starts one rung further up: a rung's place in the
		// round colours its time (what ran just before it), and rotating
		// gives every rung every place equally often.
		for j := range rungs {
			i := (round + j) % len(rungs)
			id := rec.begin("ladder:"+rungNames[i], int64(round))
			t0 := time.Now()
			err := rungs[i]()
			dt := time.Since(t0)
			rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s rung: %w", rungNames[i], err)
			}
			if round > 0 { // round 0 warms every rung up
				samples[i] = append(samples[i], float64(dt.Nanoseconds())/float64(m))
			}
		}
	}
}

// sockChannelRung runs the channel rung alone on a sock world.
func sockChannelRung(bytes, m, rounds int) (float64, error) {
	var samples []float64
	err := motor.Run(motor.Config{Ranks: 2, Channel: "sock"}, func(r *motor.Rank) error {
		ch := r.Engine().Comm.Device().Channel()
		payload := make([]byte, bytes)
		sink := &rawSink{buf: make([]byte, bytes)}
		for round := 0; round <= rounds; round++ {
			t0 := time.Now()
			if err := channelRung(ch, sink, payload, m); err != nil {
				return err
			}
			if r.ID() == 0 && round > 0 {
				samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(m))
			}
		}
		return nil
	})
	return median(samples), err
}

// runLadder runs the ladder at one message size for about seconds.
func runLadder(bytes int, seconds float64, smoke bool, rec *recorder) (*ladder, error) {
	if bytes < 8 {
		bytes = 8
	}
	// Blocks of about 5 ms: long enough to time, short enough that a
	// round of all rungs sees the same machine state.
	m := 1 + 4_000_000/(4000+bytes)
	minRounds, sockRounds := 8, 40
	if smoke {
		m, minRounds, sockRounds = 4, 3, 2
	}
	pp := workload{module: "pp.masm"}
	src, err := pp.source()
	if err != nil {
		return nil, err
	}
	var samples [][]float64
	err = motor.Run(motor.Config{Ranks: 2}, func(r *motor.Rank) error {
		if r.AsyncProgress() {
			// A background engine would take the raw frames of the
			// channel rung off the channel.
			return fmt.Errorf("the ladder needs inline progress, but MOTOR_PROGRESS turned the async engine on")
		}
		if _, err := r.Load(src); err != nil {
			return err
		}
		spans := rec
		if r.ID() != 0 {
			spans = nil // the recorder belongs to rank 0's goroutine
		}
		s, err := ladderRank(r, bytes, m, time.Duration(0.8*seconds*float64(time.Second)), minRounds, spans)
		if r.ID() == 0 {
			samples = s
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	lad := &ladder{samples: samples}
	lad.sock, err = sockChannelRung(bytes, m, sockRounds)
	return lad, err
}

// report writes the ladder's self costs. A layer's self cost is the
// median over rounds of its rung minus the rung below in the same
// round: what a round has in common (the machine's mood) cancels. The
// ladder is resolved when the self costs add up to the top rung's own
// median within the widest rung's spread and no rung is cheaper than
// the one below it by more than that spread; otherwise the rungs do
// not order and no self cost means anything.
func (l *ladder) report(layers map[string]float64) {
	names := []string{"channel.rt_ns", "adi.self_ns", "mp.self_ns", "core.self_ns", "vm.fcall_self_ns"}
	top := len(l.samples) - 1
	self := make([]float64, len(l.samples))
	var sum, spread float64
	for i, rung := range l.samples {
		diffs := append([]float64(nil), rung...)
		if i > 0 {
			for round := range diffs {
				diffs[round] -= l.samples[i-1][round]
			}
		}
		self[i] = median(diffs)
		layers[names[i]] = self[i]
		sum += self[i]
		q := summarize(rung, 50)
		spread = math.Max(spread, (q.P75-q.P25)/q.P50)
	}
	topP50 := median(l.samples[top])
	layers["channel.sock_rt_ns"] = l.sock
	layers["motor.over_native_ns"] = self[top] + self[top-1]
	layers["ladder.top_ns"] = topP50
	layers["ladder.spread_frac"] = spread
	layers["ladder.sum_gap_frac"] = math.Abs(sum-topP50) / topP50
	layers["ladder.resolved"] = 1
	for _, cost := range self {
		if cost < -spread*topP50 || layers["ladder.sum_gap_frac"] > spread {
			layers["ladder.resolved"] = 0
		}
	}
}
