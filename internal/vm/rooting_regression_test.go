package vm

import (
	"fmt"
	"sync"
	"testing"
)

// TestStressRootBeforeDerefRegression is the runtime form of the
// PR 6 rooting bug class that the motorlint rootbeforederef analyzer
// mechanizes (its reduced form lives in
// internal/analysis/testdata/src/rootbeforederef/bad): an engine
// entry point that crosses a safepoint with an unrooted vm.Ref sees
// a stale address once a sibling thread's collection moves the
// object.
//
// The worker follows the §5.3 discipline — root via PushFrame, then
// park across the safepoint (the blocking-wait shape of recv entry
// points) and use the forwarded ref. Before rooting it saves the raw
// ref value the buggy pre-PR 6 shape would have kept using. The
// sibling collects while the worker is parked, so every round has a
// real move window. The test asserts both directions:
//
//   - the rooted ref's payload is never corrupted (the fix works);
//   - the saved unrooted copy diverges from the forwarded ref at
//     least once (dereferencing the copy, as the pre-PR 6 entry
//     points did, would have read evacuated memory).
//
// Run under -race via the stress tier (scripts/verify.sh stress).
func TestStressRootBeforeDerefRegression(t *testing.T) {
	v := closing(t, New(Config{Heap: HeapConfig{YoungSize: 16 << 10, InitialElder: 128 << 10, ArenaMax: 128 << 20}}))
	const rounds = 100
	reqCh := make(chan struct{})
	doneCh := make(chan struct{})
	staleObserved := 0
	var wg sync.WaitGroup
	errs := make(chan error, 2)

	// Worker: the fixed entry-point shape.
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := v.StartThread("entry")
		defer th.End()
		defer close(reqCh)
		for i := 0; i < rounds; i++ {
			payload := []int32{int32(i), int32(i * 7)}
			obj, err := v.Heap.NewInt32Array(payload)
			if err != nil {
				errs <- err
				return
			}
			stale := obj // what the buggy shape would have used
			f := th.PushFrame(obj)
			// Parked at a safepoint: the sibling collects now.
			th.Park(func() {
				reqCh <- struct{}{}
				<-doneCh
			})
			obj = f.Ref(0)
			if obj != stale {
				staleObserved++
			}
			got := v.Heap.Int32Slice(obj)
			if got[0] != int32(i) || got[1] != int32(i*7) {
				f.Pop()
				errs <- fmt.Errorf("round %d: rooted ref payload corrupted: %v", i, got)
				return
			}
			f.Pop()
		}
		errs <- nil
	}()

	// Sibling: churns garbage and collects on request while the
	// worker is parked.
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := v.StartThread("sibling")
		defer th.End()
		for i := 0; ; i++ {
			ok := false
			th.Park(func() { _, ok = <-reqCh })
			if !ok {
				errs <- nil
				return
			}
			if _, err := v.Heap.NewUint8Array(make([]byte, 512)); err != nil {
				errs <- err
				return
			}
			if i%4 == 3 {
				th.CollectFull()
			} else {
				th.CollectYoung()
			}
			th.Park(func() { doneCh <- struct{}{} })
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if staleObserved == 0 {
		t.Fatal("unrooted ref copy never went stale: the test exercised no move window")
	}
}
