package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"motor/internal/mp"
	"motor/internal/mp/channel"
	"motor/internal/pal"
	"motor/internal/pal/fault"
	"motor/internal/vm"
)

// Adversarial pinning tests: a transport fault strikes between Isend
// and Wait, exactly where the paper's conditional pin requests (§7.4)
// are live. The engine must surface a typed ErrTransport, the dead
// request's conditional pin must be discarded at the next mark phase,
// and the heap must come out with no leaked pins and intact
// invariants.

// runSockRanks mirrors runRanks over a fault-injectable sock world:
// one platform per rank, and per-rank body errors returned instead of
// failed so tests can assert on the error class.
func runSockRanks(t *testing.T, plats []pal.Platform, eagerMax int, body func(r *rank) error) []error {
	t.Helper()
	return runSockRanksOpts(t, plats, eagerMax, nil, body)
}

// runSockRanksOpts is runSockRanks with engine options (the OO chaos
// tests shrink chunk targets to force multi-chunk streams).
func runSockRanksOpts(t *testing.T, plats []pal.Platform, eagerMax int, opts []Option, body func(r *rank) error) []error {
	t.Helper()
	n := len(plats)
	rp := channel.RetryPolicy{
		DialAttempts:      4,
		BootstrapAttempts: 3,
		BackoffBase:       time.Millisecond,
		BackoffMax:        10 * time.Millisecond,
		AcceptTimeout:     5 * time.Second,
	}
	worlds, err := mp.NewSockWorldsOn(plats, n, eagerMax, rp)
	if err != nil {
		t.Fatalf("world construction: %v", err)
	}
	type res struct {
		rank int
		err  error
	}
	resc := make(chan res, n)
	vms := make([]*vm.VM, n)
	for i := 0; i < n; i++ {
		go func(idx int, w *mp.World) {
			v := vm.New(vm.Config{
				Name: fmt.Sprintf("rank%d", w.Rank()),
				Heap: vm.HeapConfig{YoungSize: 64 << 10, InitialElder: 512 << 10, ArenaMax: 64 << 20},
			})
			vms[idx] = v
			e := Attach(v, w, opts...)
			th := v.StartThread("main")
			defer th.End()
			defer w.Close()
			resc <- res{idx, body(&rank{v: v, e: e, th: th})}
		}(i, worlds[i])
	}
	errs := make([]error, n)
	deadline := time.After(30 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case r := <-resc:
			errs[r.rank] = r.err
		case <-deadline:
			t.Fatal("ranks hung: transport fault did not surface")
		}
	}
	closeVMs(vms)
	return errs
}

// heapClean asserts the post-fault heap contract: the conditional pin
// registered for the dead request was dropped, nothing stays pinned,
// and the heap invariants hold.
func heapClean(r *rank) error {
	r.th.CollectYoung() // mark phase resolves conditional pin requests
	h := r.v.Heap
	if n := h.CondPinCount(); n != 0 {
		return fmt.Errorf("CondPinCount = %d after collection, want 0", n)
	}
	gs := h.Stats
	if gs.Pins != gs.Unpins {
		return fmt.Errorf("leaked explicit pins: Pins=%d Unpins=%d", gs.Pins, gs.Unpins)
	}
	if err := h.CheckInvariants(); err != nil {
		return fmt.Errorf("heap invariants: %w", err)
	}
	return nil
}

// TestCondPinDiscardedOnTransportFault kills a rendezvous transfer at
// two points (the receiver's CTS write and the sender's DATA write)
// while the sender sits between Isend and Wait with a conditional pin
// registered for its young buffer.
func TestCondPinDiscardedOnTransportFault(t *testing.T) {
	const eagerMax = 512
	cases := []struct {
		name  string
		plats func() []pal.Platform
	}{
		// Receiver's writes: #1 registration, #2 mesh identify, #3 CTS.
		{"reset-cts", func() []pal.Platform {
			return []pal.Platform{nil, fault.New(pal.Default, fault.Plan{Seed: 5, Rules: []fault.Rule{
				{Op: fault.OpWrite, Kind: fault.KindReset, Nth: 3},
			}})}
		}},
		// Sender's writes: #1 registration, #2 RTS header, #3 DATA header.
		{"reset-data", func() []pal.Platform {
			return []pal.Platform{fault.New(pal.Default, fault.Plan{Seed: 5, Rules: []fault.Rule{
				{Op: fault.OpWrite, Kind: fault.KindReset, Nth: 3},
			}}), nil}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := runSockRanks(t, tc.plats(), eagerMax, func(r *rank) error {
				h := r.v.Heap
				buf, err := h.NewUint8Array(make([]byte, 4<<10)) // young, above eagerMax
				if err != nil {
					return err
				}
				release := r.th.VM().Protect(&buf)
				defer release()
				var id int32
				if r.e.Comm.Rank() == 0 {
					id, err = r.e.Isend(r.th, buf, 1, 7)
				} else {
					id, err = r.e.Irecv(r.th, buf, 0, 7)
				}
				if err != nil {
					return fmt.Errorf("start: %w", err)
				}
				if r.e.Stats.CondPins != 1 {
					return fmt.Errorf("CondPins = %d after immediate op, want 1", r.e.Stats.CondPins)
				}
				if _, err := r.e.Wait(r.th, id); !errors.Is(err, mp.ErrTransport) {
					return fmt.Errorf("Wait err = %v, want ErrTransport", err)
				}
				if r.e.Stats.TransportErrors != 1 {
					return fmt.Errorf("engine TransportErrors = %d, want 1", r.e.Stats.TransportErrors)
				}
				if err := heapClean(r); err != nil {
					return err
				}
				if h.Stats.CondPinsDropped < 1 {
					return fmt.Errorf("CondPinsDropped = %d, want >= 1", h.Stats.CondPinsDropped)
				}
				return nil
			})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
		})
	}
}

// TestBlockingOpTransportFault covers the blocking path: a Send/Recv
// pair whose connection resets mid-protocol must return ErrTransport
// from the polling-wait (no conditional pins involved; the deferred
// pin must still be released).
func TestBlockingOpTransportFault(t *testing.T) {
	plats := []pal.Platform{nil, fault.New(pal.Default, fault.Plan{Seed: 2, Rules: []fault.Rule{
		{Op: fault.OpWrite, Kind: fault.KindReset, Nth: 3}, // CTS write
	}})}
	errs := runSockRanks(t, plats, 512, func(r *rank) error {
		h := r.v.Heap
		buf, err := h.NewUint8Array(make([]byte, 4<<10))
		if err != nil {
			return err
		}
		release := r.th.VM().Protect(&buf)
		defer release()
		if r.e.Comm.Rank() == 0 {
			err = r.e.Send(r.th, buf, 1, 3)
		} else {
			_, err = r.e.Recv(r.th, buf, 0, 3)
		}
		if !errors.Is(err, mp.ErrTransport) {
			return fmt.Errorf("err = %v, want ErrTransport", err)
		}
		if r.e.Stats.TransportErrors != 1 {
			return fmt.Errorf("engine TransportErrors = %d, want 1", r.e.Stats.TransportErrors)
		}
		return heapClean(r)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestSendrecvTransportFault runs a 3-rank Sendrecv ring (rank r sends
// to r+1 and receives from r-1, so dest ≠ source) and resets rank 2's
// connection to its dest, once at the send's post (eager) and once
// inside its wait (rendezvous). Whichever half fails, Sendrecv must
// finish or withdraw the other, so no receive stays registered to land
// in a buffer whose hold is gone, and report one typed error through
// the engine's counters.
func TestSendrecvTransportFault(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		name     string
		eagerMax int
		nth      int // rank 2's writes: #1 registration, #2..#3 mesh identify, then the protocol
	}{
		{"eager", 0, 4},        // the eager frame to rank 0
		{"rendezvous", 512, 5}, // after the RTS: the DATA to rank 0, or the CTS to rank 1
	} {
		t.Run(tc.name, func(t *testing.T) {
			plats := make([]pal.Platform, n)
			plats[2] = fault.New(pal.Default, fault.Plan{Seed: 4, Rules: []fault.Rule{
				{Op: fault.OpWrite, Kind: fault.KindReset, Nth: tc.nth},
			}})
			errs := runSockRanks(t, plats, tc.eagerMax, func(r *rank) error {
				h := r.v.Heap
				me := r.e.Comm.Rank()
				send, err := h.NewUint8Array(bytes.Repeat([]byte{byte(me + 1)}, 4<<10))
				if err != nil {
					return err
				}
				recv, err := h.NewUint8Array(make([]byte, 4<<10))
				if err != nil {
					return err
				}
				defer r.th.VM().Protect(&send, &recv)()
				_, err = r.e.Sendrecv(r.th, send, (me+1)%n, 5, recv, (me+n-1)%n, 5)
				switch {
				case err == nil && me == 2:
					return fmt.Errorf("Sendrecv succeeded on the faulted rank")
				case err != nil && !errors.Is(err, mp.ErrTransport):
					return fmt.Errorf("Sendrecv err = %v, want ErrTransport", err)
				case err != nil && r.e.Stats.TransportErrors != 1:
					return fmt.Errorf("engine TransportErrors = %d, want 1", r.e.Stats.TransportErrors)
				case err == nil && !bytes.Equal(h.DataBytes(recv), bytes.Repeat([]byte{byte((me+n-1)%n + 1)}, 4<<10)):
					return fmt.Errorf("received payload corrupt")
				}
				if out := r.e.Comm.Outstanding(); out != 0 {
					return fmt.Errorf("%d requests left registered by Sendrecv", out)
				}
				return heapClean(r)
			})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
		})
	}
}

// TestCollectiveTransportFault runs an engine-level allreduce whose
// ring is cut by a connection reset on rank 2's first collective data
// write. Every rank must surface a typed ErrTransport (never hang),
// the collective drain must leave no request registered with the
// device, and the heap must come out pin-clean with invariants
// intact.
func TestCollectiveTransportFault(t *testing.T) {
	const n = 4
	// Rank 2's sock writes: #1 registration, #2..#3 mesh identify to
	// ranks 0 and 1, #4 first collective frame.
	plats := make([]pal.Platform, n)
	plats[2] = fault.New(pal.Default, fault.Plan{Seed: 9, Rules: []fault.Rule{
		{Op: fault.OpWrite, Kind: fault.KindReset, Nth: 4},
	}})
	errs := runSockRanks(t, plats, 0, func(r *rank) error {
		h := r.v.Heap
		send, err := h.NewUint8Array(make([]byte, 64<<10))
		if err != nil {
			return err
		}
		release := r.th.VM().Protect(&send)
		defer release()
		recv, err := h.NewUint8Array(make([]byte, 64<<10))
		if err != nil {
			return err
		}
		release2 := r.th.VM().Protect(&recv)
		defer release2()
		if err := r.e.Allreduce(r.th, send, recv, mp.OpSum); !errors.Is(err, mp.ErrTransport) {
			return fmt.Errorf("allreduce err = %v, want ErrTransport", err)
		}
		if r.e.Stats.TransportErrors != 1 {
			return fmt.Errorf("engine TransportErrors = %d, want 1", r.e.Stats.TransportErrors)
		}
		if out := r.e.Comm.Outstanding(); out != 0 {
			return fmt.Errorf("%d requests leaked past the failed collective", out)
		}
		return heapClean(r)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
