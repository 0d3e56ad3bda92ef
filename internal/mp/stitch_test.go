package mp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"motor/internal/obs"
	"motor/internal/pal"
	"motor/internal/pal/fault"
)

// The stitch suite is the end-to-end check of cross-rank trace
// stitching: a 4-rank traced sock run with an artificially slow rank
// must merge into one Perfetto document where every edge:send has a
// matching edge:recv flow, collective instances align across all
// ranks, and the straggler report names the delayed rank.

// splitTraceByPID carves one in-process multi-rank trace into
// per-rank documents, simulating the one-file-per-OS-process layout
// the merge pass sees in a real multi-process run.
func splitTraceByPID(t *testing.T, trace []byte, n int) [][]byte {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatal(err)
	}
	perRank := make([][]map[string]any, n)
	for _, ev := range doc.TraceEvents {
		pid, ok := ev["pid"].(float64)
		if !ok || int(pid) < 0 || int(pid) >= n {
			t.Fatalf("trace event with unexpected pid: %v", ev)
		}
		perRank[int(pid)] = append(perRank[int(pid)], ev)
	}
	out := make([][]byte, n)
	for r := 0; r < n; r++ {
		if len(perRank[r]) == 0 {
			t.Fatalf("rank %d emitted no trace events", r)
		}
		b, err := json.Marshal(map[string]any{"traceEvents": perRank[r]})
		if err != nil {
			t.Fatal(err)
		}
		out[r] = b
	}
	return out
}

func TestStitchFourRanksWithStraggler(t *testing.T) {
	if obs.Active() != nil {
		t.Fatal("tracer already active at test start")
	}
	// A big ring so no edge half is overwritten by wrap — an
	// unmatched edge would be a test artifact, not a stitching bug.
	tr := obs.Start(obs.Options{Shards: 8, ShardSize: 1 << 16})
	if tr == nil {
		t.Fatal("obs.Start refused")
	}
	stopped := false
	defer func() {
		if !stopped {
			obs.Stop(tr)
		}
	}()

	// Rank 2 pays a delay on its socket reads. Read delays do not
	// propagate: rank 2's sends still leave on time, so only rank 2
	// arrives late at the collectives — the planted straggler. Count
	// bounds the total injected latency so a hot polling loop cannot
	// amplify it without bound.
	const n = 4
	slow := fault.New(pal.Default, fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpRead, Kind: fault.KindDelay, Delay: 2 * time.Millisecond, Count: 1000},
	}})
	plats := make([]pal.Platform, n)
	plats[2] = slow

	// Each iteration re-syncs every rank to a shared wall-clock
	// deadline before the exchange. Without this, lateness propagates:
	// a rank whose collective exit waited on the straggler's delayed
	// forwards arrives late at the next instance too, and the report
	// can no longer tell the cause from the victims.
	const (
		iters  = 16
		period = 25 * time.Millisecond
	)
	epoch := time.Now()
	body := func(w *World) error {
		r := w.Rank()
		payload := make([]byte, 64)
		recv := make([]byte, 64)
		ar := make([]byte, 8)
		for i := 0; i < iters; i++ {
			time.Sleep(time.Until(epoch.Add(time.Duration(i+1) * period)))
			// Ring shift: everyone sends eagerly first, so a delayed
			// rank slows only its own receive.
			if err := w.Comm.Send(payload, (r+1)%n, 7); err != nil {
				return err
			}
			if _, err := w.Comm.Recv(recv, (r+n-1)%n, 7); err != nil {
				return err
			}
			if err := w.Comm.Allreduce(payload[:8], ar, TypeUint8, OpSum); err != nil {
				return err
			}
		}
		return w.Comm.Barrier()
	}
	errs := runChaos(t, plats, 0, []func(w *World) error{body, body, body, body})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	obs.Stop(tr)
	stopped = true
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge the test tracer", tr.Dropped())
	}

	m, err := obs.MergeTraces(splitTraceByPID(t, buf.Bytes(), n)...)
	if err != nil {
		t.Fatal(err)
	}
	if m.Unmatched != 0 {
		t.Fatalf("unmatched edge halves = %d, want 0", m.Unmatched)
	}
	// At least the explicit ring messages (n per iteration) must have
	// become flow pairs; collective-internal edges only add to that.
	if m.Flows < n*iters {
		t.Fatalf("flow pairs = %d, want >= %d", m.Flows, n*iters)
	}

	rep := m.Report
	if len(rep.Collectives) == 0 {
		t.Fatal("no collective instances in straggler report")
	}
	for _, inst := range rep.Collectives {
		if inst.Ranks != n {
			t.Fatalf("collective %s cctx=%d seq=%d aligned %d ranks, want %d",
				inst.Name, inst.Ctx, inst.Seq, inst.Ranks, n)
		}
	}
	if rep.Straggler != 2 {
		t.Fatalf("straggler = %d, want the delayed rank 2\nranks: %+v",
			rep.Straggler, rep.Ranks)
	}

	// Schema check on the merged document: flow pairs are balanced
	// and only phases the trace viewers understand appear.
	var out bytes.Buffer
	if err := m.Export(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	flowIDs := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X", "i", "b", "e", "M":
		case "s":
			id, _ := ev["id"].(string)
			flowIDs[id]++
		case "f":
			id, _ := ev["id"].(string)
			flowIDs[id]--
		default:
			t.Fatalf("merged trace contains unknown phase %q: %v", ph, ev)
		}
	}
	if len(flowIDs) != m.Flows {
		t.Fatalf("distinct flow ids = %d, want %d", len(flowIDs), m.Flows)
	}
	for id, balance := range flowIDs {
		if balance != 0 {
			t.Fatalf("flow %s has unbalanced start/finish (%+d)", id, balance)
		}
	}
}

// TestStitchShmRendezvous: on shm a rendezvous message is one lent RTS
// whose payload lands at the receive's copy-out, where the receiver
// notes its edge:recv with the RTS's Seq. A traced 2-rank ping-pong of
// 128 KiB messages must merge with no unmatched edge half and exactly
// one flow per message, whether the RTS met a posted receive or parked.
func TestStitchShmRendezvous(t *testing.T) {
	if obs.Active() != nil {
		t.Fatal("tracer already active at test start")
	}
	tr := obs.Start(obs.Options{Shards: 4, ShardSize: 1 << 16})
	if tr == nil {
		t.Fatal("obs.Start refused")
	}
	stopped := false
	defer func() {
		if !stopped {
			obs.Stop(tr)
		}
	}()
	const iters, size = 16, 128 << 10
	var rndv [2]uint64
	err := RunLocal(ChannelShm, 2, 0, func(w *World) error {
		me, peer := w.Rank(), 1-w.Rank()
		out, in := bytes.Repeat([]byte{byte(me + 1)}, size), make([]byte, size)
		for i := 0; i < iters; i++ {
			if me == 0 {
				if err := w.Comm.Send(out, peer, 3); err != nil {
					return err
				}
			}
			if _, err := w.Comm.Recv(in, peer, 3); err != nil {
				return err
			}
			if in[0] != byte(peer+1) || in[size-1] != byte(peer+1) {
				return fmt.Errorf("rank %d: payload %d corrupt", me, i)
			}
			if me == 1 {
				if err := w.Comm.Send(out, peer, 3); err != nil {
					return err
				}
			}
		}
		rndv[me] = w.Dev.StatsSnapshot().RndvSent
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	obs.Stop(tr)
	stopped = true
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge the test tracer", tr.Dropped())
	}
	if rndv[0] != iters || rndv[1] != iters {
		t.Fatalf("rendezvous sends %v, want %d each", rndv, iters)
	}
	m, err := obs.MergeTraces(splitTraceByPID(t, buf.Bytes(), 2)...)
	if err != nil {
		t.Fatal(err)
	}
	if m.Unmatched != 0 || m.Flows != 2*iters {
		t.Fatalf("unmatched edge halves %d, flows %d; want 0 and %d", m.Unmatched, m.Flows, 2*iters)
	}
}

// TestWatchdogDetectsStalledRank plants a real stall — rank 0 blocks
// in Recv while its peer sits on the message — and checks the
// watchdog flags rank 0's wait before the peer finally sends.
func TestWatchdogDetectsStalledRank(t *testing.T) {
	stalls := make(chan obs.Stall, 16)
	wd := obs.StartWatchdog(obs.WatchdogConfig{
		Deadline: 50 * time.Millisecond,
		Poll:     10 * time.Millisecond,
		OnStall:  func(s obs.Stall) { stalls <- s },
	})
	defer wd.Stop()

	release := make(chan struct{})
	body := func(w *World) error {
		buf := make([]byte, 8)
		if w.Rank() == 0 {
			_, err := w.Comm.Recv(buf, 1, 99)
			return err
		}
		<-release
		return w.Comm.Send(buf, 0, 99)
	}
	done := make(chan error, 1)
	go func() { done <- RunLocal(ChannelShm, 2, 0, body) }()

	var got obs.Stall
	deadline := time.After(5 * time.Second)
wait:
	for {
		select {
		case s := <-stalls:
			// Filter on lane AND op: a previously-failed test can
			// leave zombie goroutines mid-wait on lane 0, and the
			// watchdog rightly reports those too.
			if s.Lane == 0 && (s.Op == obs.OpRecv || s.Op == obs.OpDevWait) {
				got = s
				break wait
			}
		case <-deadline:
			t.Fatal("watchdog never flagged the stalled rank")
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if got.Waited < 50*time.Millisecond {
		t.Fatalf("stall waited %v < deadline", got.Waited)
	}
	if got.Pulses == 0 {
		t.Fatal("stalled wait shows zero poll pulses; heartbeat not wired")
	}
}
