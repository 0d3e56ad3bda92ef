package vm

// TestStressCondPinMidMarkResolution is the deterministic regression
// for the §5.3/§7.4 hazard the parallel collector must not
// reintroduce: a conditional pin whose outcome is decided by an
// in-flight transport operation that COMPLETES while the mark pool is
// running. The single-resolver discipline in gcpar.go claims each
// request exactly once per cycle; a racy collector would either
// evaluate Active() twice (double-counting the §7.4 examination) or
// cache a stale answer from before the completion landed.
//
// The test makes the race window deterministic instead of
// probabilistic: the instrumented Active() blocks on a handshake with
// a "completion" goroutine, which flips the request's state while the
// resolver is inside the call — the completion provably arrives
// mid-resolution, mid-cycle, from outside the collector. The worker
// thread that registered the pin is parked the whole time, so the
// request arrives from a parked thread exactly as in the
// polling-wait protocol.
//
// Asserted per cycle: Active() ran exactly once, the recorded
// decision matches the post-completion state, and h.condPins carries
// the pin forward iff it was held. Asserted at the end: GCStats
// held/dropped totals, and the KCondPin trace instants carry the
// correct decisions for the target ref (the PR 3 correlation the
// parallel collector must preserve).
//
// Run under -race via the stress tier (scripts/verify.sh stress).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"motor/internal/obs"
)

func TestStressCondPinMidMarkResolution(t *testing.T) {
	tr := obs.Start(obs.Options{})
	if tr != nil {
		defer obs.Stop(tr)
	}

	v := closing(t, New(Config{Heap: HeapConfig{
		YoungSize: 16 << 10, InitialElder: 256 << 10, ArenaMax: 64 << 20, GCWorkers: 4,
	}}))
	if v.Heap.Workers() < 2 {
		t.Fatal("modern collector not selected")
	}
	node := nodeClass(v)
	fID := node.FieldByName("id")

	const rounds = 8
	held := func(r int) bool { return r%2 == 0 }

	calls := make([]int32, rounds) // Active() invocations per round's pin
	var state int32                // the in-flight operation's completion state
	armCh := make(chan int)        // resolver reached round r's Active()
	fireCh := make(chan struct{})  // completion has landed, resolver may decide
	stopCh := make(chan struct{})
	reqCh := make(chan struct{})
	doneCh := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup

	// The "transport completion": flips the request's state only once
	// the resolver is provably inside Active(), i.e. mid-cycle. Not in
	// the WaitGroup — it is released by stopCh after the threads join.
	go func() {
		for {
			select {
			case r := <-armCh:
				if held(r) {
					atomic.StoreInt32(&state, 1)
				} else {
					atomic.StoreInt32(&state, 0)
				}
				fireCh <- struct{}{}
			case <-stopCh:
				return
			}
		}
	}()

	// Worker: owns the target, registers one cond pin per round, and
	// parks across the sibling's full collection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(reqCh)
		th := v.StartThread("worker")
		defer th.End()

		target, err := v.Heap.AllocClass(node)
		if err != nil {
			errs <- err
			return
		}
		v.Heap.SetScalar(target, fID, 42)
		pop := th.VM().Protect(&target)
		defer pop()
		th.CollectFull() // promote: mark-phase resolution needs an elder target
		if v.Heap.IsYoung(target) {
			errs <- fmt.Errorf("target not promoted to elder space")
			return
		}
		addr := target

		for r := 0; r < rounds; r++ {
			r := r
			v.Heap.AddCondPin(target, func() bool {
				if atomic.AddInt32(&calls[r], 1) > 1 {
					// A held pin is re-examined on the NEXT cycle;
					// release it quietly there. A same-cycle second
					// call lands here too — caught by the counter.
					return false
				}
				armCh <- r
				<-fireCh
				return atomic.LoadInt32(&state) == 1
			})
			before := v.Heap.Stats.Snapshot()
			th.Park(func() {
				reqCh <- struct{}{}
				<-doneCh
			})
			after := v.Heap.Stats.Snapshot()

			if n := atomic.LoadInt32(&calls[r]); n != 1 {
				errs <- fmt.Errorf("round %d: Active() ran %d times in its arrival cycle, want exactly 1", r, n)
				return
			}
			wantCount, wantHeld := 0, uint64(0)
			if held(r) {
				wantCount, wantHeld = 1, 1
			}
			if got := v.Heap.CondPinCount(); got != wantCount {
				errs <- fmt.Errorf("round %d: %d cond pins survive the cycle, want %d", r, got, wantCount)
				return
			}
			if d := after.CondPinsHeld - before.CondPinsHeld; d != wantHeld {
				errs <- fmt.Errorf("round %d: held delta %d, want %d", r, d, wantHeld)
				return
			}
			if target != addr || !v.Heap.Valid(target) || v.Heap.GetScalar(target, fID) != 42 {
				errs <- fmt.Errorf("round %d: target moved or corrupted", r)
				return
			}
		}
		// One trailing cycle releases the final held pin quietly.
		th.Park(func() {
			reqCh <- struct{}{}
			<-doneCh
		})
		if got := v.Heap.CondPinCount(); got != 0 {
			errs <- fmt.Errorf("trailing cycle left %d cond pins", got)
			return
		}
		errs <- nil
	}()

	// Sibling: full-collects on request while the worker is parked.
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := v.StartThread("sibling")
		defer th.End()
		for {
			ok := false
			th.Park(func() { _, ok = <-reqCh })
			if !ok {
				errs <- nil
				return
			}
			th.CollectFull()
			th.Park(func() { doneCh <- struct{}{} })
		}
	}()

	wg.Wait()
	close(stopCh)
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	heldRounds := 0
	for r := 0; r < rounds; r++ {
		if held(r) {
			heldRounds++
		}
	}
	gs := v.Heap.Stats.Snapshot()
	if gs.CondPinsHeld != uint64(heldRounds) {
		t.Errorf("CondPinsHeld = %d, want %d", gs.CondPinsHeld, heldRounds)
	}
	// Every dropped round plus every held pin's quiet release.
	wantDropped := uint64(rounds - heldRounds + heldRounds)
	if gs.CondPinsDropped != wantDropped {
		t.Errorf("CondPinsDropped = %d, want %d", gs.CondPinsDropped, wantDropped)
	}

	if tr != nil {
		var heldInst, droppedInst int
		for _, ev := range tr.Events() {
			if ev.Kind != obs.KCondPin {
				continue
			}
			if ev.Arg0 == 1 {
				heldInst++
			} else {
				droppedInst++
			}
		}
		if heldInst != heldRounds || droppedInst != int(wantDropped) {
			t.Errorf("trace recorded %d held / %d dropped cond-pin instants, want %d / %d",
				heldInst, droppedInst, heldRounds, wantDropped)
		}
	}
}
