package motor_test

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"motor"
	"motor/internal/obs"
)

// chromeEvent mirrors the trace_event fields the round-trip test
// validates.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    *float64       `json:"ts"`
	Dur   *float64       `json:"dur"`
	PID   *int           `json:"pid"`
	TID   *int           `json:"tid"`
	ID    string         `json:"id"`
	Scope string         `json:"s"`
	Args  map[string]any `json:"args"`
}

// TestTraceRoundTrip drives a workload engineered to produce every
// correlated span class the tracer promises — op span, pin decision,
// ADI request, channel frame, and a full collection whose cond-pin
// phase resolves a conditional pin while the mark phase runs — then
// parses the exported Chrome JSON and validates its schema, span
// nesting, and the cross-layer correlations.
func TestTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	run(t, motor.Config{Ranks: 2, Trace: path}, func(r *motor.Rank) error {
		if r.ID() == 0 {
			// A conditional pin resolved by a full GC: post a receive
			// that cannot complete (rank 1 is parked at the barrier),
			// collect, then let rank 1 send.
			buf, err := r.NewInt32Array(make([]int32, 8))
			if err != nil {
				return err
			}
			release := r.Protect(&buf)
			defer release()
			req, err := r.Irecv(buf, 1, 7)
			if err != nil {
				return err
			}
			r.GC(true)
			if err := r.Barrier(); err != nil {
				return err
			}
			if _, err := r.Wait(req); err != nil {
				return err
			}
			// One blocking exchange for op/wait/pin/frame spans.
			if err := r.Send(buf, 1, 8); err != nil {
				return err
			}
			return nil
		}
		if err := r.Barrier(); err != nil {
			return err
		}
		msg, err := r.NewInt32Array([]int32{1, 2, 3, 4, 5, 6, 7, 8})
		if err != nil {
			return err
		}
		if err := r.Send(msg, 0, 7); err != nil {
			return err
		}
		_, err = r.Recv(msg, 0, 8)
		return err
	})

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	if doc.Metadata["motor-trace-version"] == nil {
		t.Error("metadata missing motor-trace-version")
	}

	// Schema: every event names itself and addresses a (pid, tid);
	// complete events carry durations; async begins/ends pair by id.
	byName := map[string]int{}
	asyncB, asyncE := map[string]int{}, map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Phase == "" {
			t.Fatalf("event %d missing name/ph: %+v", i, ev)
		}
		if ev.PID == nil || ev.TID == nil {
			t.Fatalf("event %d (%s) missing pid/tid", i, ev.Name)
		}
		if ev.Phase != "M" && ev.TS == nil {
			t.Fatalf("event %d (%s) missing ts", i, ev.Name)
		}
		byName[ev.Name]++
		switch ev.Phase {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("complete event %s lacks a non-negative dur", ev.Name)
			}
		case "i":
			if ev.Scope != "t" {
				t.Fatalf("instant %s has scope %q, want \"t\"", ev.Name, ev.Scope)
			}
		case "b":
			if ev.ID == "" {
				t.Fatalf("async begin %s lacks an id", ev.Name)
			}
			asyncB[ev.ID]++
		case "e":
			if ev.ID == "" {
				t.Fatalf("async end %s lacks an id", ev.Name)
			}
			asyncE[ev.ID]++
		case "M":
		default:
			t.Fatalf("unexpected phase %q on %s", ev.Phase, ev.Name)
		}
	}
	for id, n := range asyncB {
		if asyncE[id] != n {
			t.Errorf("async id %s: %d begins, %d ends", id, n, asyncE[id])
		}
	}

	// The four correlated lifecycle stages plus the GC evidence.
	// pin:avoided-fast is the deterministic pin decision here: an
	// eager send always completes before its polling-wait (deferred
	// pins also occur but depend on message-arrival timing).
	for _, want := range []string{
		"pin:avoided-fast", "req:send", "req:recv", "frame:out:EAGER",
		"gc:full", "gc:mark", "gc:cond-pins", "condpin:held",
	} {
		if byName[want] == 0 {
			t.Errorf("trace has no %q events (have %v)", want, names(byName))
		}
	}

	// Cross-layer correlation: the condpin:held instant's parent must
	// be the gc:cond-pins phase span of the collection.
	spanOf := map[string]map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" && ev.Args != nil {
			if id, ok := ev.Args["span"].(float64); ok {
				if spanOf[ev.Name] == nil {
					spanOf[ev.Name] = map[float64]bool{}
				}
				spanOf[ev.Name][id] = true
			}
		}
	}
	held := false
	for _, ev := range doc.TraceEvents {
		if ev.Name != "condpin:held" || ev.Args == nil {
			continue
		}
		if parent, ok := ev.Args["parent"].(float64); ok && spanOf["gc:cond-pins"][parent] {
			held = true
		}
	}
	if !held {
		t.Error("no condpin:held instant is parented to a gc:cond-pins phase span")
	}

	// Nesting: complete events on each managed thread must follow
	// stack discipline (a span either encloses the next or precedes
	// it; partial overlap means the lane stack broke).
	type span struct{ start, end float64 }
	perLane := map[[2]int][]span{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			perLane[[2]int{*ev.PID, *ev.TID}] = append(perLane[[2]int{*ev.PID, *ev.TID}],
				span{*ev.TS, *ev.TS + *ev.Dur})
		}
	}
	const eps = 1e-3 // µs; guards float rounding at shared boundaries
	for lane, spans := range perLane {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		var stack []span
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.start+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end > stack[len(stack)-1].end+eps {
				t.Fatalf("lane %v: span [%f,%f] partially overlaps enclosing [%f,%f]",
					lane, s.start, s.end, stack[len(stack)-1].start, stack[len(stack)-1].end)
			}
			stack = append(stack, s)
		}
	}
}

// TestStressTracedAsyncTeardown is the regression for Run exporting
// the trace while the ranks' progress goroutines were still emitting
// events: a rank used to report before its deferred teardown stopped
// its engine. Under -race (stress tier) the old order is a data race
// between the export and the engine's spans; in any build the file
// must be complete JSON.
func TestStressTracedAsyncTeardown(t *testing.T) {
	for i := 0; i < 5; i++ {
		path := filepath.Join(t.TempDir(), "trace.json")
		run(t, motor.Config{Ranks: 2, AsyncProgress: true, Trace: path}, func(r *motor.Rank) error {
			buf, err := r.NewInt32Array(make([]int32, 4))
			if err != nil {
				return err
			}
			peer := 1 - r.ID()
			if r.ID() == 0 {
				if err := r.Send(buf, peer, 3); err != nil {
					return err
				}
			}
			_, err = r.Recv(buf, peer, 3)
			if err == nil && r.ID() == 1 {
				err = r.Send(buf, peer, 3)
			}
			return err
		})
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Fatalf("run %d: exported trace is not valid JSON (%d bytes)", i, len(data))
		}
	}
}

// TestJoinTraceExport checks the multi-process tracing path: a Join
// with Config.Trace set exports a per-process trace file at close (the
// per-rank input layout cmd/mtrace stitches), and the merge pass
// accepts it — every edge half pairs into a flow.
func TestJoinTraceExport(t *testing.T) {
	const (
		n     = 2
		iters = 8
	)
	path := filepath.Join(t.TempDir(), "rank0.json")
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		os.Remove(path)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close() // free the port for Serve

		serveCh := make(chan error, 1)
		go func() { serveCh <- motor.Serve(addr, n) }()
		time.Sleep(50 * time.Millisecond)

		pingpong := func(r *motor.Rank) error {
			buf, err := r.NewInt32Array(make([]int32, 4))
			if err != nil {
				return err
			}
			peer := 1 - r.ID()
			for i := 0; i < iters; i++ {
				if r.ID() == 0 {
					if err := r.Send(buf, peer, 3); err != nil {
						return err
					}
					if _, err := r.Recv(buf, peer, 3); err != nil {
						return err
					}
				} else {
					if _, err := r.Recv(buf, peer, 3); err != nil {
						return err
					}
					if err := r.Send(buf, peer, 3); err != nil {
						return err
					}
				}
			}
			return r.Barrier()
		}

		bodyErr := make(chan error, n)
		closeErr := make(chan error, n)
		gate := make([]chan struct{}, n)
		for rank := range gate {
			gate[rank] = make(chan struct{})
		}
		for rank := 0; rank < n; rank++ {
			go func(rank int) {
				// Only rank 0 traces: in-process sibling Joins share one
				// session, so one owner exports everything (a real sock
				// world runs one Join per OS process, one file each).
				cfg := motor.Config{}
				if rank == 0 {
					cfg.Trace = path
				}
				r, closer, err := motor.Join(cfg, addr, rank, n)
				if err != nil {
					bodyErr <- err
					<-gate[rank]
					closeErr <- nil
					return
				}
				bodyErr <- pingpong(r)
				<-gate[rank]
				closeErr <- closer()
			}(rank)
		}
		lastErr = nil
		deadline := time.After(15 * time.Second)
		for i := 0; i < n; i++ {
			select {
			case err := <-bodyErr:
				if err != nil && lastErr == nil {
					lastErr = err
				}
			case <-deadline:
				t.Fatal("join world deadlocked")
			}
		}
		// The owner exports at close, and teardown still emits events
		// into the shared session — so every sibling must close fully
		// before rank 0 does.
		for rank := n - 1; rank >= 0; rank-- {
			close(gate[rank])
			select {
			case err := <-closeErr:
				if err != nil && lastErr == nil {
					lastErr = err
				}
			case <-deadline:
				t.Fatal("close deadlocked")
			}
		}
		if lastErr == nil {
			if err := <-serveCh; err != nil {
				lastErr = err
			}
		}
		if lastErr == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("all attempts failed: %v", lastErr)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("Join did not export a trace: %v", err)
	}
	m, err := obs.MergeTraces(raw)
	if err != nil {
		t.Fatalf("merge rejected the Join trace: %v", err)
	}
	// Teardown frames may record only one half (a peer's close lands
	// after the owner exports), so a couple of unmatched halves are
	// expected; the ping-pong payload itself must pair completely.
	if m.Unmatched > n {
		t.Fatalf("unmatched edge halves = %d, want <= %d", m.Unmatched, n)
	}
	if m.Flows < 2*iters {
		t.Fatalf("flow pairs = %d, want >= %d", m.Flows, 2*iters)
	}
}

func names(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
