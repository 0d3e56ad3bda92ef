package mp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"motor/internal/mp/channel"
	"motor/internal/pal"
	"motor/internal/pal/fault"
)

// The chaos suite drives seeded fault plans through sock worlds and
// asserts the hardening contract: a transport failure either recovers
// within the retry policy's bounds or surfaces as a typed ErrTransport
// on the affected operations — never a hang of the progress engine —
// and the same seed reproduces the same failure sequence.

// chaosRetry is a tight retry policy so failed bootstraps resolve in
// milliseconds instead of the production policy's seconds.
var chaosRetry = channel.RetryPolicy{
	DialAttempts:      4,
	BootstrapAttempts: 3,
	BackoffBase:       time.Millisecond,
	BackoffMax:        10 * time.Millisecond,
	AcceptTimeout:     5 * time.Second,
}

// runChaos builds a sock world with the given per-rank platforms and
// runs one body per rank, enforcing a deadline so an injected fault
// that stalls the engine fails the test instead of hanging it. It
// returns the per-rank body errors.
func runChaos(t *testing.T, plats []pal.Platform, eagerMax int, bodies []func(w *World) error) []error {
	t.Helper()
	n := len(bodies)
	worlds, err := NewSockWorldsOn(plats, n, eagerMax, chaosRetry)
	if err != nil {
		t.Fatalf("world construction: %v", err)
	}
	type res struct {
		rank int
		err  error
	}
	resc := make(chan res, n)
	for i := 0; i < n; i++ {
		go func(rank int, w *World) {
			defer w.Close()
			resc <- res{rank, bodies[rank](w)}
		}(i, worlds[i])
	}
	errs := make([]error, n)
	deadline := time.After(20 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case r := <-resc:
			errs[r.rank] = r.err
		case <-deadline:
			t.Fatal("chaos world hung: progress engine failed to surface the fault")
		}
	}
	return errs
}

// pingOnce is a body step: one small eager exchange.
func pingOnce(w *World, msg byte) error {
	if w.Rank() == 0 {
		if err := w.Comm.Send([]byte{msg}, 1, 1); err != nil {
			return err
		}
		buf := make([]byte, 1)
		_, err := w.Comm.Recv(buf, 1, 1)
		return err
	}
	buf := make([]byte, 1)
	if _, err := w.Comm.Recv(buf, 0, 1); err != nil {
		return err
	}
	return w.Comm.Send(buf, 0, 1)
}

// TestChaosDroppedBootstrap refuses rank 1's first dials to the
// rendezvous service; the bounded retry must recover and form a fully
// working world.
func TestChaosDroppedBootstrap(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fp := fault.New(pal.Default, fault.Plan{Seed: seed, Rules: []fault.Rule{
				{Op: fault.OpDial, Kind: fault.KindRefuse, Nth: 1, Count: 2},
			}})
			exchange := func(w *World) error { return pingOnce(w, 0xab) }
			errs := runChaos(t, []pal.Platform{nil, fp}, 0, []func(w *World) error{exchange, exchange})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			if got := fp.Stats().Injected[fault.KindRefuse]; got != 2 {
				t.Fatalf("injected refusals = %d, want 2", got)
			}
		})
	}
}

// chanStats extracts the sock channel's transport counters.
func chanStats(t *testing.T, w *World) channel.TransportStats {
	t.Helper()
	src, ok := w.Dev.Channel().(channel.StatsSource)
	if !ok {
		t.Fatal("sock channel does not expose TransportStats")
	}
	return src.TransportStats()
}

// TestChaosDialRetriesCounted verifies the retry counter surfaces
// through the channel stats when the bootstrap had to re-dial.
func TestChaosDialRetriesCounted(t *testing.T) {
	fp := fault.New(pal.Default, fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpDial, Kind: fault.KindRefuse, Nth: 1, Count: 2},
	}})
	var retries uint64
	body := func(w *World) error {
		if err := pingOnce(w, 1); err != nil {
			return err
		}
		if w.Rank() == 1 {
			retries = chanStats(t, w).DialRetries
		}
		return nil
	}
	errs := runChaos(t, []pal.Platform{nil, fp}, 0, []func(w *World) error{body, body})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if retries < 2 {
		t.Fatalf("DialRetries = %d, want >= 2", retries)
	}
}

// TestChaosPartitionedTableRead partitions rank 1's first read — the
// rendezvous table — so its exchange times out after the root service
// has already served the table and moved on. The retried registration
// must be answered from the root's linger phase; the world forms.
func TestChaosPartitionedTableRead(t *testing.T) {
	// Rank 1's reads: #1 bootstrap table read.
	fp := fault.New(pal.Default, fault.Plan{Seed: 2, Rules: []fault.Rule{
		{Op: fault.OpRead, Kind: fault.KindPartition, Nth: 1},
	}})
	var retries uint64
	body := func(w *World) error {
		if err := pingOnce(w, 0x5c); err != nil {
			return err
		}
		if w.Rank() == 1 {
			retries = chanStats(t, w).BootstrapRetries
		}
		return nil
	}
	errs := runChaos(t, []pal.Platform{nil, fp}, 0, []func(w *World) error{body, body})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if retries < 1 {
		t.Fatalf("BootstrapRetries = %d, want >= 1", retries)
	}
}

// TestChaosResetDuringEagerSend resets rank 0's connection on its
// first post-bootstrap write (the eager packet header). Both sides
// must observe a typed ErrTransport instead of hanging.
func TestChaosResetDuringEagerSend(t *testing.T) {
	// Rank 0's writes: #1 bootstrap registration, #2 eager header.
	fp := fault.New(pal.Default, fault.Plan{Seed: 3, Rules: []fault.Rule{
		{Op: fault.OpWrite, Kind: fault.KindReset, Nth: 2},
	}})
	send := func(w *World) error { return w.Comm.Send([]byte("payload"), 1, 5) }
	recv := func(w *World) error {
		buf := make([]byte, 16)
		_, err := w.Comm.Recv(buf, 0, 5)
		return err
	}
	errs := runChaos(t, []pal.Platform{fp, nil}, 0, []func(w *World) error{send, recv})
	for r, err := range errs {
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("rank %d: err = %v, want ErrTransport", r, err)
		}
	}
}

// ctsScenario is the acceptance scenario: a seeded plan resets the
// receiver's connection while it sends the rendezvous CTS. It returns
// the per-rank errors, the receiver's fault platform and the device
// stats of both ranks.
func ctsScenario(t *testing.T, seed int64) ([]error, *fault.Platform, []uint64) {
	t.Helper()
	// Rank 1's writes: #1 bootstrap registration, #2 mesh identify,
	// #3 rendezvous CTS. The delay rule exercises the seeded
	// probabilistic path without perturbing ordering.
	fp := fault.New(pal.Default, fault.Plan{Seed: seed, Rules: []fault.Rule{
		{Op: fault.OpWrite, Kind: fault.KindReset, Nth: 3},
		{Op: fault.OpDial, Kind: fault.KindDelay, Prob: 0.5, Count: 2, Delay: time.Millisecond},
	}})
	const eagerMax = 1024
	big := make([]byte, 8<<10) // above eagerMax: rendezvous path
	peersLost := make([]uint64, 2)
	send := func(w *World) error {
		err := w.Comm.Send(big, 1, 9)
		peersLost[0] = w.Dev.Stats.PeersLost
		return err
	}
	recv := func(w *World) error {
		buf := make([]byte, len(big))
		_, err := w.Comm.Recv(buf, 0, 9)
		peersLost[1] = w.Dev.Stats.PeersLost
		return err
	}
	errs := runChaos(t, []pal.Platform{nil, fp}, eagerMax, []func(w *World) error{send, recv})
	return errs, fp, peersLost
}

// TestChaosResetDuringRendezvousCTS asserts the acceptance criterion:
// the fault surfaces as ErrTransport on both ranks, the dead peer is
// counted, and nothing hangs.
func TestChaosResetDuringRendezvousCTS(t *testing.T) {
	errs, fp, peersLost := ctsScenario(t, 11)
	for r, err := range errs {
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("rank %d: err = %v, want ErrTransport", r, err)
		}
	}
	if got := fp.Stats().Injected[fault.KindReset]; got != 1 {
		t.Fatalf("injected resets = %d, want 1", got)
	}
	for r, n := range peersLost {
		if n == 0 {
			t.Fatalf("rank %d: PeersLost = 0, want > 0", r)
		}
	}
}

// normalizeEvents strips what legitimately differs between two runs
// of a live sock world so their event logs are comparable: the peer
// addresses (ephemeral ports) and Seq, the injector's global op
// counter, which also counts the poll loop's deadline reads and so
// depends on kernel segmentation and scheduling. The contract is the
// per-rule sequence: rule, kind, op and Occurrence.
func normalizeEvents(evs []fault.Event) []fault.Event {
	out := append([]fault.Event(nil), evs...)
	for i := range out {
		out[i].Peer = ""
		out[i].Seq = 0
	}
	return out
}

// TestChaosSeedDeterminism runs the acceptance scenario twice with the
// same seed and requires the identical failure sequence — the
// reproducibility contract of the fault package.
func TestChaosSeedDeterminism(t *testing.T) {
	const seed = 23
	errs1, fp1, _ := ctsScenario(t, seed)
	errs2, fp2, _ := ctsScenario(t, seed)
	for r := range errs1 {
		if !errors.Is(errs1[r], ErrTransport) || !errors.Is(errs2[r], ErrTransport) {
			t.Fatalf("rank %d: runs disagree: %v vs %v", r, errs1[r], errs2[r])
		}
	}
	ev1, ev2 := normalizeEvents(fp1.Events()), normalizeEvents(fp2.Events())
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("same seed, different fault sequences:\nrun1: %v\nrun2: %v", ev1, ev2)
	}
	if fp1.Stats() != fp2.Stats() {
		t.Fatalf("same seed, different stats: %+v vs %+v", fp1.Stats(), fp2.Stats())
	}
}

// TestChaosSeedSweep hammers eager ping-pong under probabilistic write
// faults across seeds: every run must either complete or fail with
// ErrTransport within the deadline — no third outcome, no hang.
func TestChaosSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	kinds := []fault.Kind{fault.KindReset, fault.KindDrop, fault.KindShort}
	for _, kind := range kinds {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", kind, seed), func(t *testing.T) {
				fp := fault.New(pal.Default, fault.Plan{Seed: seed, Rules: []fault.Rule{
					// Arm after the bootstrap write; fire with p=0.3 on
					// each subsequent write, at most twice.
					{Op: fault.OpWrite, Kind: kind, Nth: 2, Count: 2, Prob: 0.3, Bytes: 5},
				}})
				body := func(w *World) error {
					for i := 0; i < 20; i++ {
						if err := pingOnce(w, byte(i)); err != nil {
							return err
						}
					}
					return nil
				}
				errs := runChaos(t, []pal.Platform{fp, nil}, 0, []func(w *World) error{body, body})
				for r, err := range errs {
					if err != nil && !errors.Is(err, ErrTransport) {
						t.Fatalf("rank %d: non-transport error %v", r, err)
					}
				}
			})
		}
	}
}

// TestChaosResetDuringAllreduce injects a connection reset into rank
// 2's first collective data write during a 4-rank ring allreduce. The
// hardening contract extends to collectives: every rank must surface
// ErrTransport within the deadline (never hang mid-ring), and the
// drain discipline must leave zero outstanding requests on every
// device.
func TestChaosResetDuringAllreduce(t *testing.T) {
	const n = 4
	// Rank 2's sock writes: #1 registers with the bootstrap service,
	// #2..#3 identify to the lower ranks it dials (0 and 1), so #4 is
	// its first protocol write — the first allreduce frame.
	fp := fault.New(pal.Default, fault.Plan{Seed: 11, Rules: []fault.Rule{
		{Op: fault.OpWrite, Kind: fault.KindReset, Nth: 4},
	}})
	plats := make([]pal.Platform, n)
	plats[2] = fp
	outstanding := make([]int, n)
	body := func(w *World) error {
		send := make([]byte, 64<<10)
		for i := range send {
			send[i] = byte(w.Rank())
		}
		recv := make([]byte, len(send))
		err := w.Comm.Allreduce(send, recv, TypeUint8, OpSum)
		outstanding[w.Rank()] = w.Dev.Outstanding()
		return err
	}
	bodies := make([]func(w *World) error, n)
	for i := range bodies {
		bodies[i] = body
	}
	errs := runChaos(t, plats, 0, bodies)
	for r, err := range errs {
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("rank %d: err = %v, want ErrTransport", r, err)
		}
	}
	for r, out := range outstanding {
		if out != 0 {
			t.Fatalf("rank %d: %d requests leaked past the failed allreduce", r, out)
		}
	}
	if fp.Stats().Injected[fault.KindReset] != 1 {
		t.Fatalf("injected resets = %d, want 1", fp.Stats().Injected[fault.KindReset])
	}
}

// TestChaosCollectiveSweep runs a mixed collective workload under
// probabilistic write faults on two ranks: every rank must either
// finish or fail with ErrTransport — no hang, no leak — across
// algorithms (recursive doubling, ring, binomial and pipelined trees).
func TestChaosCollectiveSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("collective chaos sweep skipped in -short mode")
	}
	const n = 4
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fp := fault.New(pal.Default, fault.Plan{Seed: seed, Rules: []fault.Rule{
				{Op: fault.OpWrite, Kind: fault.KindReset, Nth: 4, Count: 1, Prob: 0.4},
			}})
			plats := make([]pal.Platform, n)
			plats[1] = fp
			outstanding := make([]int, n)
			body := func(w *World) error {
				defer func() { outstanding[w.Rank()] = w.Dev.Outstanding() }()
				small := make([]byte, 512)
				large := make([]byte, 48<<10)
				out := make([]byte, len(large))
				for i := 0; i < 6; i++ {
					if err := w.Comm.Allreduce(small, small[:len(small):len(small)], TypeUint8, OpMax); err != nil {
						return err
					}
					if err := w.Comm.Allreduce(large, out, TypeUint8, OpSum); err != nil {
						return err
					}
					if err := w.Comm.Bcast(large, i%n); err != nil {
						return err
					}
					if err := w.Comm.Allgather(small, make([]byte, len(small)*n)); err != nil {
						return err
					}
				}
				return nil
			}
			bodies := make([]func(w *World) error, n)
			for i := range bodies {
				bodies[i] = body
			}
			errs := runChaos(t, plats, 0, bodies)
			anyErr := false
			for r, err := range errs {
				if err != nil {
					anyErr = true
					if !errors.Is(err, ErrTransport) {
						t.Fatalf("rank %d: non-transport error %v", r, err)
					}
				}
			}
			for r, out := range outstanding {
				if out != 0 {
					t.Fatalf("rank %d: %d requests leaked (anyErr=%v)", r, out, anyErr)
				}
			}
		})
	}
}
