package core

import (
	"testing"
	"time"

	"motor/internal/obs"
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
