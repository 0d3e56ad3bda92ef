package mp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"motor/internal/pal"
	"motor/internal/pal/fault"
)

// The stress tier hammers one rank's Comm/Device from many goroutines
// at once — exactly the sharing the async progress engine introduces —
// and is meant to run under -race (scripts/verify.sh stress). The
// tests assert the concurrency contract end to end: every request
// completes exactly once with the right payload, every failure is
// typed, and no request leaks regardless of which goroutine (caller
// or background engine) finished it.

// stressParams scales with -short so the tier stays usable inline.
func stressParams(t *testing.T) (goroutines, msgs int) {
	if testing.Short() {
		return 4, 8
	}
	return 8, 24
}

// TestStressSharedCommRace shares each rank's Comm between G
// point-to-point goroutines (disjoint tag blocks, symmetric
// exchange) plus one collective goroutine, with a free-running
// progress engine per rank completing requests in the background.
// The three completion disciplines — blocking Wait, Test polling,
// and OnComplete continuations — are all exercised concurrently.
func TestStressSharedCommRace(t *testing.T) {
	G, msgs := stressParams(t)
	worlds, err := NewLocalWorlds(ChannelShm, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range worlds {
			w.Close()
		}
	}()
	engines := make([]*Progress, 2)
	for i, w := range worlds {
		engines[i] = StartProgress(w.Dev, ProgressOptions{Lane: w.Rank()})
	}
	defer func() {
		for _, p := range engines {
			p.Stop()
		}
	}()

	payload := func(rank, g, i int) []byte {
		return []byte(fmt.Sprintf("r%d-g%02d-m%03d", rank, g, i))
	}
	finish := func(c *Comm, req Request, discipline int) (Status, error) {
		switch discipline {
		case 0: // blocking polling-wait
			return c.Wait(req)
		case 1: // Test spin
			for {
				done, st, err := req.comm.Test(req)
				if err != nil || done {
					return st, err
				}
			}
		default: // continuation: park on a channel, never re-enter
			ch := make(chan struct{})
			req.OnComplete(func() { close(ch) })
			select {
			case <-ch:
			case <-time.After(20 * time.Second):
				return Status{}, fmt.Errorf("continuation never fired")
			}
			return req.Status(), req.Err()
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 2*(G+1))
	for rank := 0; rank < 2; rank++ {
		peer := 1 - rank
		c := worlds[rank].Comm
		for g := 0; g < G; g++ {
			wg.Add(1)
			go func(rank, g int) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					tag := g*msgs + i
					sreq, err := c.Isend(payload(rank, g, i), peer, tag)
					if err != nil {
						errc <- fmt.Errorf("rank %d g %d isend: %w", rank, g, err)
						return
					}
					buf := make([]byte, 32)
					rreq, err := c.Irecv(buf, peer, tag)
					if err != nil {
						errc <- fmt.Errorf("rank %d g %d irecv: %w", rank, g, err)
						return
					}
					if _, err := finish(c, sreq, (g+i)%3); err != nil {
						errc <- fmt.Errorf("rank %d g %d send finish: %w", rank, g, err)
						return
					}
					st, err := finish(c, rreq, (g+i+1)%3)
					if err != nil {
						errc <- fmt.Errorf("rank %d g %d recv finish: %w", rank, g, err)
						return
					}
					want := payload(peer, g, i)
					if !bytes.Equal(buf[:st.Count], want) {
						errc <- fmt.Errorf("rank %d g %d msg %d: got %q want %q", rank, g, i, buf[:st.Count], want)
						return
					}
				}
			}(rank, g)
		}
		// One collective goroutine per rank, concurrent with all the
		// point-to-point traffic (collectives run in their own
		// context, so tags never collide with user traffic).
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for round := 0; round < msgs/2; round++ {
				if err := c.Barrier(); err != nil {
					errc <- fmt.Errorf("rank %d barrier %d: %w", rank, round, err)
					return
				}
				send := make([]byte, 4)
				recv := make([]byte, 4)
				binary.LittleEndian.PutUint32(send, uint32(rank+1))
				if err := c.Allreduce(send, recv, TypeInt32, OpSum); err != nil {
					errc <- fmt.Errorf("rank %d allreduce %d: %w", rank, round, err)
					return
				}
				if got := binary.LittleEndian.Uint32(recv); got != 3 {
					errc <- fmt.Errorf("rank %d allreduce %d: sum = %d, want 3", rank, round, got)
					return
				}
			}
		}(rank)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("stress run hung")
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for i, w := range worlds {
		if n := w.Dev.Outstanding(); n != 0 {
			t.Errorf("rank %d: %d requests leaked", i, n)
		}
	}
}

// TestStressFaultTyped injects a connection reset into the middle of
// a many-goroutine exchange over the sock transport, with free-running
// progress engines on both ranks. Every operation must either
// complete normally or fail with a typed ErrTransport — never hang,
// never panic, never leak a request — and the background engine must
// survive the peer's death.
func TestStressFaultTyped(t *testing.T) {
	G, msgs := stressParams(t)
	// Rank 0's writes: the first few are bootstrap/mesh; Nth targets a
	// data-plane write once the exchange is well underway.
	fp := fault.New(pal.Default, fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Op: fault.OpWrite, Kind: fault.KindReset, Nth: 5 + G*msgs/2},
	}})
	worlds, err := NewSockWorldsOn([]pal.Platform{fp, nil}, 2, 0, chaosRetry)
	if err != nil {
		t.Fatalf("world construction: %v", err)
	}
	defer func() {
		for _, w := range worlds {
			w.Close()
		}
	}()
	engines := make([]*Progress, 2)
	for i, w := range worlds {
		engines[i] = StartProgress(w.Dev, ProgressOptions{Lane: w.Rank()})
	}
	defer func() {
		for _, p := range engines {
			p.Stop()
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures, successes int
	badErr := make(chan error, 2*G)
	record := func(err error) bool {
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			successes++
			return true
		}
		failures++
		if !errors.Is(err, ErrTransport) {
			badErr <- fmt.Errorf("untyped failure: %w", err)
			return false
		}
		return true
	}
	for rank := 0; rank < 2; rank++ {
		peer := 1 - rank
		c := worlds[rank].Comm
		for g := 0; g < G; g++ {
			wg.Add(1)
			go func(rank, g int) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					tag := g*msgs + i
					msg := []byte(fmt.Sprintf("f%d-%02d-%03d", rank, g, i))
					sreq, err := c.Isend(msg, peer, tag)
					if err != nil {
						if !record(err) {
							return
						}
						continue
					}
					buf := make([]byte, 32)
					rreq, err := c.Irecv(buf, peer, tag)
					if err != nil && !record(err) {
						return
					}
					_, werr := c.Wait(sreq)
					if !record(werr) {
						return
					}
					if rreq.Valid() {
						_, werr = c.Wait(rreq)
						if !record(werr) {
							return
						}
					}
				}
			}(rank, g)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case err := <-badErr:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("fault stress hung: a request neither completed nor failed")
	}
	close(badErr)
	for err := range badErr {
		t.Error(err)
	}
	if got := fp.Stats().Injected[fault.KindReset]; got != 1 {
		t.Fatalf("injected resets = %d, want 1", got)
	}
	if failures == 0 {
		t.Fatal("reset was injected but no operation failed")
	}
	if successes == 0 {
		t.Fatal("no operation completed before the fault")
	}
	for i, w := range worlds {
		if n := w.Dev.Outstanding(); n != 0 {
			t.Errorf("rank %d: %d requests leaked after fault", i, n)
		}
	}
}
