package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"motor/internal/mp"
	"motor/internal/obs"
	"motor/internal/vm"
)

// The progress chaos tier runs the full stack — managed threads,
// cooperative execution token, GC, message passing — with several VM
// threads sharing one rank while the background progress engine (or
// the inline polling baseline) completes their requests. It is the
// -race regression suite for the token/park discipline and for the
// snapshot-consistency fixes in the stats registry.

// runRanksAsync is runRanks with engine-lifecycle teardown in the
// order async progress requires: the main thread ends first
// (releasing the execution token so a gated pass can finish), then
// the progress engine stops, then the world closes.
func runRanksAsync(t *testing.T, n int, async bool, body func(r *rank) error) {
	t.Helper()
	runRanksAsyncHeap(t, n, async, vm.HeapConfig{YoungSize: 64 << 10, InitialElder: 512 << 10, ArenaMax: 64 << 20}, body)
}

// runRanksAsyncHeap is runRanksAsync with every rank's heap built from hc.
func runRanksAsyncHeap(t *testing.T, n int, async bool, hc vm.HeapConfig, body func(r *rank) error) {
	t.Helper()
	worlds, err := mp.NewLocalWorlds(mp.ChannelShm, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, n)
	vms := make([]*vm.VM, n)
	for i := 0; i < n; i++ {
		go func(w *mp.World) {
			v := vm.New(vm.Config{Name: fmt.Sprintf("rank%d", w.Rank()), Heap: hc})
			vms[w.Rank()] = v
			e := Attach(v, w, WithAsyncProgress(async))
			th := v.StartThread("main")
			err := body(&rank{v: v, e: e, th: th})
			th.End()
			e.Close()
			w.Close()
			errc <- err
		}(worlds[i])
	}
	deadline := time.After(60 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("ranks deadlocked")
		}
	}
	closeVMs(vms)
}

// chaosThreads runs K extra managed threads per rank, each allocating
// garbage (young GC pressure) and exchanging tagged arrays with its
// peer-rank twin, while a monitoring goroutine continuously snapshots
// the stats registry. The main thread parks on the workers' join —
// exercising Thread.Park — so the token circulates between workers,
// GC, and (in async mode) the gated progress engine.
func chaosThreads(t *testing.T, async bool) {
	K := 4
	iters := 30
	if testing.Short() {
		K, iters = 2, 10
	}
	runRanksAsync(t, 2, async, func(r *rank) error {
		peer := 1 - r.e.Comm.Rank()

		reg := new(obs.Registry)
		r.e.RegisterStats(reg)
		stopMon := make(chan struct{})
		var mon sync.WaitGroup
		mon.Add(1)
		go func() {
			defer mon.Done()
			for {
				select {
				case <-stopMon:
					return
				default:
				}
				snap := reg.Snapshot()
				if len(snap.Groups) == 0 {
					panic("empty registry snapshot")
				}
			}
		}()

		var wg sync.WaitGroup
		werrs := make(chan error, K)
		for k := 0; k < K; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				th := r.v.StartThread(fmt.Sprintf("worker%d", k))
				defer th.End()
				h := r.v.Heap
				for i := 0; i < iters; i++ {
					if err := func() error {
						// Garbage to keep the young collector busy
						// while siblings are parked in waits.
						if _, err := h.NewInt32Array(make([]int32, 64)); err != nil {
							return err
						}
						msg, err := h.NewInt32Array([]int32{int32(k), int32(i)})
						if err != nil {
							return err
						}
						// Root the ref: sibling threads trigger
						// collections while this one is parked.
						release := th.VM().Protect(&msg)
						defer release()
						tag := k*iters + i
						if r.e.Comm.Rank() == 0 {
							if err := r.e.Send(th, msg, peer, tag); err != nil {
								return fmt.Errorf("worker %d send %d: %w", k, i, err)
							}
							if _, err := r.e.Recv(th, msg, peer, tag); err != nil {
								return fmt.Errorf("worker %d recv %d: %w", k, i, err)
							}
						} else {
							if _, err := r.e.Recv(th, msg, peer, tag); err != nil {
								return fmt.Errorf("worker %d recv %d: %w", k, i, err)
							}
							got := h.Int32Slice(msg)
							if got[0] != int32(k) || got[1] != int32(i) {
								return fmt.Errorf("worker %d msg %d: got %v", k, i, got[:2])
							}
							if err := r.e.Send(th, msg, peer, tag); err != nil {
								return fmt.Errorf("worker %d send %d: %w", k, i, err)
							}
						}
						return nil
					}(); err != nil {
						werrs <- err
						return
					}
					if i%10 == 9 {
						th.CollectYoung()
					}
				}
			}(k)
		}
		// Park the main thread on the join: the execution token must
		// keep circulating among the workers (and the progress engine)
		// while it sleeps.
		r.th.Park(wg.Wait)
		close(stopMon)
		mon.Wait()
		close(werrs)
		for err := range werrs {
			return err
		}
		if n := r.e.World.Dev.Outstanding(); n != 0 {
			return fmt.Errorf("%d requests leaked", n)
		}
		if async {
			if st := r.e.ProgressStats(); st.Passes == 0 {
				return fmt.Errorf("async mode but progress engine never ran: %+v", st)
			}
		}
		gc := r.v.Heap.Stats.Snapshot()
		if gc.Scavenges+gc.FullGCs == 0 {
			return fmt.Errorf("no collections despite GC pressure")
		}
		return nil
	})
}

// TestProgressChaosMultiThread is the differential form of the chaos
// run: the identical multi-threaded workload must pass with inline
// polling and with the background progress engine.
func TestProgressChaosMultiThread(t *testing.T) {
	for _, async := range []bool{false, true} {
		async := async
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			chaosThreads(t, async)
		})
	}
}

// TestProgressRegistrySnapshotRace is the focused regression test for
// the snapshot-consistency fix: registry snapshots (which aggregate
// engine, device, GC, collective and progress counters) must be safe
// while a full send/recv + GC workload mutates every one of those
// counter sets. Before the fix, GCStats and CollStats were read
// field-by-field without atomics and -race flagged this exact
// pattern.
func TestProgressRegistrySnapshotRace(t *testing.T) {
	runRanksAsync(t, 2, true, func(r *rank) error {
		reg := new(obs.Registry)
		r.e.RegisterStats(reg)

		stop := make(chan struct{})
		var mon sync.WaitGroup
		for m := 0; m < 2; m++ {
			mon.Add(1)
			go func() {
				defer mon.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					reg.Snapshot()
				}
			}()
		}

		h := r.v.Heap
		peer := 1 - r.e.Comm.Rank()
		iters := 100
		if testing.Short() {
			iters = 25
		}
		err := func() error {
			for i := 0; i < iters; i++ {
				msg, err := h.NewInt32Array([]int32{int32(i)})
				if err != nil {
					return err
				}
				if r.e.Comm.Rank() == 0 {
					if err := r.e.Send(r.th, msg, peer, 0); err != nil {
						return err
					}
					if _, err := r.e.Recv(r.th, msg, peer, 0); err != nil {
						return err
					}
				} else {
					if _, err := r.e.Recv(r.th, msg, peer, 0); err != nil {
						return err
					}
					if err := r.e.Send(r.th, msg, peer, 0); err != nil {
						return err
					}
				}
				if err := r.e.Barrier(r.th); err != nil {
					return err
				}
				if i%20 == 19 {
					r.th.CollectFull()
				}
			}
			return nil
		}()
		close(stop)
		mon.Wait()
		return err
	})
}

// TestStressParkedWaiters runs waits that really park. Several VM
// threads share one async rank, and each exchange is delayed past the
// spin budget on the other side: rank 0's receives park until rank 1's
// reply rings its doorbell, and its 128 KiB rendezvous sends park
// until rank 1's late receive answers with a CTS that rings it, then
// until rank 1's copy-out completes the lent send. Blocking Send/Recv
// and Wait on Isend/Irecv both take part, while a sibling thread on
// each rank compacts the heap.
func TestStressParkedWaiters(t *testing.T) {
	K, iters := 3, 12
	if testing.Short() {
		iters = 4
	}
	hc := vm.HeapConfig{YoungSize: 256 << 10, InitialElder: 2 << 20, ArenaMax: 64 << 20, GCWorkers: 2}
	runRanksAsyncHeap(t, 2, true, hc, func(r *rank) error {
		h := r.v.Heap
		stop := make(chan struct{})
		compactor := make(chan struct{})
		// The first compaction runs once every worker has finished its
		// first exchange, and they wait for it: a compaction needs an
		// empty nursery, which a buffer pinned by some wait would
		// otherwise deny to every timer tick of a short run. It also
		// needs something to slide: junk and keep are allocated straight
		// into the fresh elder space (each above half the nursery), keep
		// above junk, and only keep stays live.
		elder := func() (vm.Ref, error) { return h.NewUint8Array(make([]byte, 160<<10)) }
		if _, err := elder(); err != nil { // junk
			return err
		}
		keep, err := elder()
		if err != nil {
			return err
		}
		defer r.v.Protect(&keep)()
		var ready sync.WaitGroup
		ready.Add(K)
		compacted := make(chan struct{})
		go func() {
			defer close(compactor)
			ready.Wait()
			for first := true; ; first = false {
				sib := r.v.StartThread("compactor")
				sib.CollectCompact()
				sib.End()
				if first {
					close(compacted)
				}
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}()
		var wg sync.WaitGroup
		werrs := make(chan error, K)
		for k := 0; k < K; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				th := r.v.StartThread(fmt.Sprintf("worker%d", k))
				defer th.End()
				for i := 0; i < iters; i++ {
					err := parkedExchange(r, th, k, i)
					if i == 0 {
						ready.Done()
						th.Park(func() { <-compacted })
					}
					if err != nil {
						werrs <- fmt.Errorf("worker %d exchange %d: %w", k, i, err)
						return
					}
				}
			}(k)
		}
		// The compactor needs the token to stop, so the join parks too.
		r.th.Park(func() {
			wg.Wait()
			close(stop)
			<-compactor
		})
		close(werrs)
		for err := range werrs {
			return err
		}
		if n := r.e.World.Dev.Outstanding(); n != 0 || r.e.PendingRequests() != 0 {
			return fmt.Errorf("%d device requests, %d engine requests outstanding", n, r.e.PendingRequests())
		}
		if st := h.Stats.Snapshot(); st.Pins != st.Unpins || st.Compactions == 0 {
			return fmt.Errorf("pins %d, unpins %d, compactions %d", st.Pins, st.Unpins, st.Compactions)
		}
		if r.e.Comm.Rank() == 0 && r.e.Stats.Snapshot().WaitsParked == 0 {
			return fmt.Errorf("no wait outlasted the spin budget")
		}
		return h.CheckInvariants()
	})
}

// parkedExchange is one round trip of TestStressParkedWaiters: rank 0
// sends and rank 1 echoes, each side first sleeping (parked, so
// siblings run) well past the other's spin budget. Exchange i uses a
// 128 KiB rendezvous payload when i is odd and Isend/Irecv + Wait when
// i%4 >= 2.
func parkedExchange(r *rank, th *vm.Thread, k, i int) error {
	const delay = 20 * spinBudget
	h := r.v.Heap
	n := 2
	if i%2 == 1 {
		n = 32 << 10
	}
	immediate := i%4 >= 2
	tag := k*1000 + i
	peer := 1 - r.e.Comm.Rank()
	want := func(j int) int32 { return int32(k<<24 ^ i<<16 ^ j) }
	msg, err := h.NewInt32Array(make([]int32, n))
	if err != nil {
		return err
	}
	defer th.VM().Protect(&msg)()
	send := func() error {
		if !immediate {
			return r.e.Send(th, msg, peer, tag)
		}
		id, err := r.e.Isend(th, msg, peer, tag)
		if err == nil {
			_, err = r.e.Wait(th, id)
		}
		return err
	}
	recv := func() error {
		var err error
		if !immediate {
			_, err = r.e.Recv(th, msg, peer, tag)
		} else {
			var id int32
			if id, err = r.e.Irecv(th, msg, peer, tag); err == nil {
				_, err = r.e.Wait(th, id)
			}
		}
		if err != nil {
			return err
		}
		for j, v := range h.Int32Slice(msg) {
			if v != want(j) {
				return fmt.Errorf("element %d = %#x, want %#x", j, v, want(j))
			}
		}
		return nil
	}
	sleep := func() { th.Park(func() { time.Sleep(delay) }) }
	if r.e.Comm.Rank() == 0 {
		for j := 0; j < n; j++ {
			h.SetElem(msg, j, uint64(uint32(want(j))))
		}
		if err := send(); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			h.SetElem(msg, j, 0)
		}
		return recv()
	}
	sleep()
	if err := recv(); err != nil {
		return err
	}
	sleep()
	return send()
}
