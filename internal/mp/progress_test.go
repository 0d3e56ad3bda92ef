package mp_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"motor/internal/mp"
	"motor/internal/mp/mptest"
)

// TestProgressCompletesWithoutWait is the tentpole's core claim:
// with a free-running progress engine on each rank, posted requests
// complete via continuations while the posting goroutine never
// re-enters Wait or Test.
func TestProgressCompletesWithoutWait(t *testing.T) {
	worlds, err := mp.NewLocalWorlds(mp.ChannelShm, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range worlds {
			w.Close()
		}
	}()

	engines := make([]*mp.Progress, 2)
	for i, w := range worlds {
		engines[i] = mp.StartProgress(w.Dev, mp.ProgressOptions{Lane: w.Rank()})
	}
	defer func() {
		for _, p := range engines {
			p.Stop()
		}
	}()

	const N = 64
	errc := make(chan error, 2)
	go func() {
		c := worlds[0].Comm
		done := make(chan struct{}, N)
		for i := 0; i < N; i++ {
			msg := []byte(fmt.Sprintf("msg-%03d", i))
			req, err := c.Isend(msg, 1, i)
			if err != nil {
				errc <- err
				return
			}
			req.OnComplete(func() { done <- struct{}{} })
		}
		for i := 0; i < N; i++ {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				errc <- fmt.Errorf("send %d never completed", i)
				return
			}
		}
		errc <- nil
	}()
	go func() {
		c := worlds[1].Comm
		type rcv struct {
			req mp.Request
			buf []byte
		}
		recvs := make([]rcv, N)
		done := make(chan int, N)
		for i := 0; i < N; i++ {
			buf := make([]byte, 16)
			req, err := c.Irecv(buf, 0, i)
			if err != nil {
				errc <- err
				return
			}
			recvs[i] = rcv{req, buf}
			i := i
			req.OnComplete(func() { done <- i })
		}
		for n := 0; n < N; n++ {
			select {
			case i := <-done:
				want := fmt.Sprintf("msg-%03d", i)
				st := recvs[i].req.Status()
				if got := string(recvs[i].buf[:st.Count]); got != want {
					errc <- fmt.Errorf("recv tag %d: got %q want %q", i, got, want)
					return
				}
				if st.Source != 0 || st.Tag != i {
					errc <- fmt.Errorf("recv tag %d: bad status %+v", i, st)
					return
				}
			case <-time.After(10 * time.Second):
				errc <- fmt.Errorf("only %d/%d receives completed", n, N)
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range worlds {
		if n := w.Dev.Outstanding(); n != 0 {
			t.Errorf("rank %d: %d requests leaked", i, n)
		}
		// Read the counters once the engine has stopped: its loop makes
		// one pass before it looks at the stop signal, but rank 0's
		// engine has no work, and its goroutine may not have run yet.
		engines[i].Stop()
		st := engines[i].Stats()
		if st.Passes == 0 {
			t.Errorf("rank %d: progress engine never ran: %+v", i, st)
		}
		// Rank 0's eager sends complete at post; only the receiver is
		// guaranteed to need engine-driven completion.
		if i == 1 && st.Progressed == 0 {
			t.Errorf("rank %d: progress engine made no progress: %+v", i, st)
		}
	}
}

// TestParkedWaiterRungByPeerFrame: a receiver parked on its
// completion continuation is woken by the sender's frame. The engine's
// idle timer is an hour, so only the shm doorbell can wake it in time.
func TestParkedWaiterRungByPeerFrame(t *testing.T) {
	worlds, err := mp.NewLocalWorlds(mp.ChannelShm, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range worlds {
			w.Close()
		}
	}()
	p := mp.StartProgress(worlds[1].Dev, mp.ProgressOptions{Interval: time.Hour, Lane: 1})
	defer p.Stop()

	buf := make([]byte, 8)
	req, err := worlds[1].Comm.Irecv(buf, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	dev := worlds[1].Dev
	dev.AddParked(1)
	defer dev.AddParked(-1)
	done := make(chan struct{})
	req.OnComplete(func() { close(done) })

	sent := make(chan error, 1)
	go func() {
		time.Sleep(5 * time.Millisecond)
		sent <- worlds[0].Comm.Send([]byte("doorbell"), 1, 3)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("parked receive not woken by the peer's frame: %+v", p.Stats())
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if string(buf) != "doorbell" || req.Err() != nil {
		t.Fatalf("received %q, err %v", buf, req.Err())
	}
}

// TestProgressStopIdempotent exercises the engine lifecycle.
func TestProgressStopIdempotent(t *testing.T) {
	worlds, err := mp.NewLocalWorlds(mp.ChannelShm, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range worlds {
			w.Close()
		}
	}()
	p := mp.StartProgress(worlds[0].Dev, mp.ProgressOptions{})
	p.Stop()
	p.Stop()
	// Manual engines stop without ever having run a goroutine.
	m := mp.StartProgress(worlds[1].Dev, mp.ProgressOptions{Manual: true})
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	m.Stop()
}

// TestOnCompleteAlreadyDone: a continuation registered after
// completion runs immediately on the caller.
func TestOnCompleteAlreadyDone(t *testing.T) {
	worlds, err := mp.NewLocalWorlds(mp.ChannelShm, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer worlds[0].Close()
	c := worlds[0].Comm
	buf := make([]byte, 8)
	rreq, err := c.Irecv(buf, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Isend([]byte("selfmsg!"), 0, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(rreq); err != nil {
		t.Fatal(err)
	}
	ran := false
	rreq.OnComplete(func() { ran = true })
	if !ran {
		t.Fatal("OnComplete on a completed request did not run inline")
	}
}

// runSeededExchange runs a 2-rank, multi-stream nonblocking exchange
// either under the mptest driver (seed >= 0, manual progress engines,
// seeded interleaving) or inline (seed < 0, classic polling). It
// returns per-request completion records "dir:tag:source:count",
// sorted, plus the schedule trace (nil inline) — the differential
// property test compares the records across modes and seeds.
func runSeededExchange(t *testing.T, seed int64, streams, msgs int) ([]string, []string) {
	t.Helper()
	worlds, err := mp.NewLocalWorlds(mp.ChannelShm, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range worlds {
			w.Close()
		}
	}()

	var records []string
	var trace []string
	collect := func(dir string, tag int, st mp.Status) {
		records = append(records, fmt.Sprintf("%s:%d:%d:%d", dir, tag, st.Source, st.Count))
	}

	payload := func(stream, i int) []byte {
		return []byte(fmt.Sprintf("s%02d-m%03d", stream, i))
	}

	if seed >= 0 {
		d := mptest.New(seed)
		engines := make([]*mp.Progress, 2)
		for i, w := range worlds {
			engines[i] = mp.StartProgress(w.Dev, mp.ProgressOptions{Manual: true, Lane: w.Rank()})
			d.AddEngine(engines[i])
		}
		defer func() {
			for _, p := range engines {
				p.Stop()
			}
		}()
		var mu sync.Mutex
		// Sender: one actor per stream on rank 0.
		for s := 0; s < streams; s++ {
			s := s
			d.Go(func(step func()) {
				c := worlds[0].Comm
				for i := 0; i < msgs; i++ {
					step()
					req, err := c.Isend(payload(s, i), 1, s*msgs+i)
					if err != nil {
						t.Error(err)
						return
					}
					for {
						step()
						done, st, err := c.Test(req)
						if err != nil {
							t.Error(err)
							return
						}
						if done {
							func() { mu.Lock(); defer mu.Unlock(); collect("send", s*msgs+i, st) }()
							break
						}
					}
				}
			})
		}
		// Receiver: one actor per stream on rank 1.
		for s := 0; s < streams; s++ {
			s := s
			d.Go(func(step func()) {
				c := worlds[1].Comm
				for i := 0; i < msgs; i++ {
					buf := make([]byte, 16)
					step()
					req, err := c.Irecv(buf, 0, s*msgs+i)
					if err != nil {
						t.Error(err)
						return
					}
					for {
						step()
						done, st, err := c.Test(req)
						if err != nil {
							t.Error(err)
							return
						}
						if done {
							want := string(payload(s, i))
							if got := string(buf[:st.Count]); got != want {
								t.Errorf("stream %d msg %d: got %q want %q", s, i, got, want)
							}
							func() { mu.Lock(); defer mu.Unlock(); collect("recv", s*msgs+i, st) }()
							break
						}
					}
				}
			})
		}
		d.Run()
		d.Drain()
		trace = d.Trace()
	} else {
		errc := make(chan error, 2)
		var mu sync.Mutex
		go func() {
			c := worlds[0].Comm
			for s := 0; s < streams; s++ {
				for i := 0; i < msgs; i++ {
					req, err := c.Isend(payload(s, i), 1, s*msgs+i)
					if err != nil {
						errc <- err
						return
					}
					st, err := c.Wait(req)
					if err != nil {
						errc <- err
						return
					}
					func() { mu.Lock(); defer mu.Unlock(); collect("send", s*msgs+i, st) }()
				}
			}
			errc <- nil
		}()
		go func() {
			c := worlds[1].Comm
			for s := 0; s < streams; s++ {
				for i := 0; i < msgs; i++ {
					buf := make([]byte, 16)
					req, err := c.Irecv(buf, 0, s*msgs+i)
					if err != nil {
						errc <- err
						return
					}
					st, err := c.Wait(req)
					if err != nil {
						errc <- err
						return
					}
					func() { mu.Lock(); defer mu.Unlock(); collect("recv", s*msgs+i, st) }()
				}
			}
			errc <- nil
		}()
		for i := 0; i < 2; i++ {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
	}

	for i, w := range worlds {
		if n := w.Dev.Outstanding(); n != 0 {
			t.Fatalf("rank %d: %d requests leaked", i, n)
		}
	}
	sort.Strings(records)
	return records, trace
}

// TestProgressDifferentialProperty: for any seeded interleaving of
// guest units and progress passes, every request completes exactly
// once and the completion statuses are identical to the inline-
// polling baseline.
func TestProgressDifferentialProperty(t *testing.T) {
	const streams, msgs = 3, 5
	baseline, _ := runSeededExchange(t, -1, streams, msgs)
	if want := 2 * streams * msgs; len(baseline) != want {
		t.Fatalf("baseline: %d records, want %d (a request completed zero or multiple times)", len(baseline), want)
	}
	seeds := []int64{1, 2, 3, 42, 12345}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		got, trace := runSeededExchange(t, seed, streams, msgs)
		if len(got) != len(baseline) {
			t.Fatalf("seed %d: %d records, want %d; schedule: %v", seed, len(got), len(baseline), tail(trace, 40))
		}
		for i := range got {
			if got[i] != baseline[i] {
				t.Fatalf("seed %d: record %d = %q, baseline %q; schedule: %v", seed, i, got[i], baseline[i], tail(trace, 40))
			}
		}
	}
}

// TestProgressDeterministicReplay: the same seed executes the same
// schedule, step for step — a failing interleaving replays exactly.
func TestProgressDeterministicReplay(t *testing.T) {
	const seed = 99
	_, t1 := runSeededExchange(t, seed, 2, 4)
	_, t2 := runSeededExchange(t, seed, 2, 4)
	if len(t1) != len(t2) {
		t.Fatalf("schedules diverge: %d vs %d rounds", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("schedules diverge at round %d: %q vs %q", i, t1[i], t2[i])
		}
	}
	if len(t1) == 0 {
		t.Fatal("empty schedule")
	}
}

func tail(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}
