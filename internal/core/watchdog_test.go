package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"motor/internal/obs"
	"motor/internal/vm"
)

// TestWatchdogReportsEnginePeer: an engine-level Recv from rank 1,
// held back past the deadline, is diagnosed with the rank it waits on
// (mp's TestWatchdogDetectsStalledRank covers the device-level wait).
func TestWatchdogReportsEnginePeer(t *testing.T) {
	// One scan reports each stalled lane once; 16 absorbs a burst of
	// other lanes' stalls so ours is not dropped.
	stalls := make(chan obs.Stall, 16)
	wd := obs.StartWatchdog(obs.WatchdogConfig{
		Deadline: 50 * time.Millisecond,
		Poll:     10 * time.Millisecond,
		OnStall: func(s obs.Stall) {
			select {
			case stalls <- s:
			default:
			}
		},
	})
	defer wd.Stop()

	release := make(chan struct{})
	got := make(chan obs.Stall, 1)
	go func() {
		deadline := time.After(5 * time.Second)
		for {
			select {
			case s := <-stalls:
				// Filter on lane AND op: zombie waits from an earlier
				// failed test may also be reported.
				if s.Lane == 0 && s.Op == obs.OpRecv {
					got <- s
					close(release)
					return
				}
			case <-deadline:
				close(release)
				return
			}
		}
	}()
	runRanks(t, 2, nil, func(r *rank) error {
		buf, err := r.v.Heap.NewInt32Array(make([]int32, 2))
		if err != nil {
			return err
		}
		if r.e.Comm.Rank() == 0 {
			_, err := r.e.Recv(r.th, buf, 1, 7)
			return err
		}
		<-release
		return r.e.Send(r.th, buf, 0, 7)
	})

	select {
	case s := <-got:
		if s.Peer != 1 {
			t.Fatalf("stalled engine Recv reported peer %d, want 1", s.Peer)
		}
	default:
		t.Fatal("watchdog never flagged the stalled engine Recv")
	}
}

// TestWatchdogSeesEveryWait: every blocking wait of the engine and of
// mp feeds the heartbeat. In each case rank 1 answers 300 ms late, and
// the watchdog, at a 50 ms deadline, must flag rank 0's wait exactly
// once, with the op it is stuck in and the peer it waits on.
func TestWatchdogSeesEveryWait(t *testing.T) {
	const late = 300 * time.Millisecond
	stalls := make(chan obs.Stall, 64)
	wd := obs.StartWatchdog(obs.WatchdogConfig{
		Deadline: 50 * time.Millisecond,
		Poll:     10 * time.Millisecond,
		OnStall: func(s obs.Stall) {
			select {
			case stalls <- s:
			default:
			}
		},
	})
	defer wd.Stop()

	ints := func(r *rank) (vm.Ref, error) { return r.v.Heap.NewInt32Array(make([]int32, 2)) }
	// osend sends a short linked list to peer; sending it twice warms
	// the type-table cache, so the second send waits for the ACK.
	osend := func(r *rank, mt *vm.MethodTable, peer, tag int) error {
		head := buildLinkedList(r.v, mt, 3, 2)
		defer r.v.Protect(&head)()
		return r.e.OSend(r.th, head, peer, tag)
	}
	cases := []struct {
		name string
		op   obs.OpCode
		// zero runs on rank 0 and stalls in the wait under test; one runs
		// on rank 1 and calls delay before it answers.
		zero func(r *rank) error
		one  func(r *rank, delay func()) error
	}{
		{"Recv", obs.OpRecv, func(r *rank) error {
			buf, err := ints(r)
			if err != nil {
				return err
			}
			_, err = r.e.Recv(r.th, buf, 1, 7)
			return err
		}, func(r *rank, delay func()) error {
			buf, err := ints(r)
			if err != nil {
				return err
			}
			delay()
			return r.e.Send(r.th, buf, 0, 7)
		}},
		{"Wait", obs.OpWait, func(r *rank) error {
			buf, err := ints(r)
			if err != nil {
				return err
			}
			defer r.v.Protect(&buf)()
			id, err := r.e.Irecv(r.th, buf, 1, 7)
			if err != nil {
				return err
			}
			_, err = r.e.Wait(r.th, id)
			return err
		}, func(r *rank, delay func()) error {
			buf, err := ints(r)
			if err != nil {
				return err
			}
			delay()
			return r.e.Send(r.th, buf, 0, 7)
		}},
		{"Sendrecv", obs.OpSendrecv, func(r *rank) error {
			buf, err := ints(r)
			if err != nil {
				return err
			}
			_, err = r.e.Sendrecv(r.th, buf, 1, 7, buf, 1, 8)
			return err
		}, func(r *rank, delay func()) error {
			buf, err := ints(r)
			if err != nil {
				return err
			}
			delay()
			_, err = r.e.Sendrecv(r.th, buf, 0, 8, buf, 0, 7)
			return err
		}},
		{"ORecv", obs.OpORecv, func(r *rank) error {
			registerLinkedArray(r.v)
			_, _, err := r.e.ORecv(r.th, 1, 7)
			return err
		}, func(r *rank, delay func()) error {
			mt := registerLinkedArray(r.v)
			delay()
			return osend(r, mt, 0, 7)
		}},
		{"OSendAck", obs.OpOSend, func(r *rank) error {
			mt := registerLinkedArray(r.v)
			if err := osend(r, mt, 1, 7); err != nil {
				return err
			}
			if err := osend(r, mt, 1, 8); err != nil {
				return err
			}
			if r.e.TTCache.Snapshot().Hits == 0 {
				return errors.New("second OSend sent no table reference: no ACK to wait for")
			}
			return nil
		}, func(r *rank, delay func()) error {
			registerLinkedArray(r.v)
			if _, _, err := r.e.ORecv(r.th, 0, 7); err != nil {
				return err
			}
			delay()
			_, _, err := r.e.ORecv(r.th, 0, 8)
			return err
		}},
		{"Probe", obs.OpDevWait, func(r *rank) error {
			st, err := r.e.Comm.Probe(1, 7)
			if err != nil {
				return err
			}
			if st.Source != 1 || st.Count != 8 {
				return fmt.Errorf("probe status %+v", st)
			}
			_, err = r.e.Comm.Recv(make([]byte, st.Count), 1, 7)
			return err
		}, func(r *rank, delay func()) error {
			delay()
			return r.e.Comm.Send(make([]byte, 8), 0, 7)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for len(stalls) > 0 {
				<-stalls
			}
			runRanks(t, 2, nil, func(r *rank) error {
				if r.e.Comm.Rank() == 0 {
					return c.zero(r)
				}
				return c.one(r, func() { time.Sleep(late) })
			})
			time.Sleep(30 * time.Millisecond) // three scans: a late report lands
			var got []obs.Stall
			for len(stalls) > 0 {
				if s := <-stalls; s.Lane == 0 {
					got = append(got, s)
				}
			}
			if len(got) != 1 || got[0].Op != c.op || got[0].Peer != 1 {
				t.Fatalf("watchdog reported %+v on lane 0, want one %s stall on peer 1", got, obs.OpName(c.op))
			}
		})
	}
}
