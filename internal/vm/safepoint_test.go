package vm

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spinMethod is a managed loop: a straight run of body additions,
// then its "spin.stop" internal, polling at the back-edge, until the
// internal returns true. The internal runs under the execution token,
// so tick may touch state shared between threads of the VM without
// further locking.
func spinMethod(v *VM, body int, tick func(t *Thread) bool) *Method {
	v.RegisterInternal(InternalFunc{
		Name: "spin.stop", NArgs: 0, HasRet: true,
		Fn: func(t *Thread, _ []Value) (Value, error) {
			if tick(t) {
				return IntValue(1), nil
			}
			return IntValue(0), nil
		},
	})
	b := NewCodeBuilder().Label("loop")
	for i := 0; i < body; i++ {
		b.LdLoc(0).LdLoc(0).Op(OpXor).StLoc(0)
	}
	return v.AddMethod(nil, b.
		InternName(v, "spin.stop").
		BrFalse("loop").
		Ret().
		Build("spin", 0, 1, false))
}

// TestStressPollServesWaitingProgressPass: while a managed thread
// runs a back-edge loop, a progress pass (ExecRun) from another
// goroutine gets the execution token at the loop's next poll, not
// after the mutex's millisecond starvation hand-off.
func TestStressPollServesWaitingProgressPass(t *testing.T) {
	v := testVM(t)
	var ticks atomic.Int64
	var stop atomic.Bool
	m := spinMethod(v, 256, func(*Thread) bool {
		ticks.Add(1)
		return stop.Load()
	})
	done := make(chan error, 1)
	go v.WithThread("spinner", func(th *Thread) {
		_, err := th.Call(m)
		done <- err
	})
	const passes = 41
	lat := make([]time.Duration, 0, passes)
	for i := 0; i < passes; i++ {
		// Each pass arrives from sleep while the loop holds the token,
		// as a rung progress engine does.
		for n := ticks.Load(); ticks.Load() < n+2; {
			time.Sleep(50 * time.Microsecond)
		}
		start := time.Now()
		v.ExecRun(func() {})
		lat = append(lat, time.Since(start))
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	t.Logf("median %v, max %v", lat[passes/2], lat[passes-1])
	// The mutex's starvation hand-off takes 1 ms; a pass served at the
	// poll takes a few microseconds (tens under -race).
	if med := lat[passes/2]; med > 250*time.Microsecond {
		t.Fatalf("median pass waited %v for the token (sorted: %v)", med, lat)
	}
}

// TestStressPollKeepsTokenWhenNobodyWaits: a goroutine that only
// tries the lock is not a waiter, so a polling thread never releases
// the token to it.
func TestStressPollKeepsTokenWhenNobodyWaits(t *testing.T) {
	v := testVM(t)
	var stop atomic.Bool
	var stolen atomic.Int64
	var wg sync.WaitGroup
	v.WithThread("poller", func(th *Thread) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if v.execMu.TryLock() {
					stolen.Add(1)
					v.execMu.Unlock()
				}
			}
		}()
		for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
			for i := 0; i < 1000; i++ {
				th.PollGC()
			}
		}
		stop.Store(true)
		wg.Wait()
	})
	if n := stolen.Load(); n != 0 {
		t.Fatalf("token taken %d times while only polls ran", n)
	}
}

// TestStressSiblingThreadsShareToken: two managed threads spinning at
// once both keep running — each waiter is counted before it blocks,
// so the holder's polls hand the token back and forth.
func TestStressSiblingThreadsShareToken(t *testing.T) {
	v := testVM(t)
	var stop atomic.Bool
	var iters [2]int64
	last, switches := -1, 0 // guarded by the execution token
	m := spinMethod(v, 1, func(th *Thread) bool {
		id := int(th.Name()[0] - '0')
		iters[id]++
		if last != id {
			last = id
			switches++
		}
		return stop.Load()
	})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.WithThread(string(rune('0'+i)), func(th *Thread) {
				_, errs[i] = th.Call(m)
			})
		}()
	}
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("thread %d: %v", i, err)
		}
	}
	if iters[0] == 0 || iters[1] == 0 || switches < 4 {
		t.Fatalf("token not shared: iterations %v, %d switches", iters, switches)
	}
}
