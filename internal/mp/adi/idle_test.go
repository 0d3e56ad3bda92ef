package adi

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"motor/internal/mp/channel"
)

// TestIdleYieldDecision: a wait yields the processor on every
// spinPolls-th idle step while each rank has a processor, and on every
// step once the world's ranks outnumber GOMAXPROCS. Each case runs a
// fresh wait's first polls steps and checks the last.
func TestIdleYieldDecision(t *testing.T) {
	for _, tc := range []struct {
		polls, ranks, procs int
		want                bool
	}{
		{1, 2, 2, false},
		{spinPolls - 1, 2, 2, false},
		{spinPolls, 2, 2, true},
		{spinPolls + 1, 2, 2, false},
		{2 * spinPolls, 2, 2, true},
		{1, 2, 8, false},
		{spinPolls, 1, 1, true},
		{1, 1, 1, false},
		{1, 2, 1, true},
		{spinPolls + 1, 2, 1, true},
		{1, 4, 2, true},
		{3, 4, 2, true},
		{1, 4, 4, false},
		{spinPolls, 4, 4, true},
	} {
		t.Run(fmt.Sprintf("polls=%d,ranks=%d,procs=%d", tc.polls, tc.ranks, tc.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			d := NewDevice(channel.NewShmFabric(tc.ranks).Endpoint(0), 0)
			var spin Spin
			var got bool
			for i := 0; i < tc.polls; i++ {
				got = d.Idle(&spin)
			}
			if got != tc.want {
				t.Fatalf("idle step %d yielded %v, want %v", tc.polls, got, tc.want)
			}
		})
	}
}

// TestIdleRunsYieldEveryStep: the embedder yield (the GC poll) runs at
// every idle step, whether or not the step hands the processor on.
func TestIdleRunsYieldEveryStep(t *testing.T) {
	d0, _ := devicePair(64)
	calls := 0
	d0.Yield = func() { calls++ }
	var spin Spin
	for i := 0; i < 3*spinPolls; i++ {
		d0.Idle(&spin)
	}
	if calls != 3*spinPolls {
		t.Fatalf("%d embedder yields in %d idle steps", calls, 3*spinPolls)
	}
}

// TestClaimedLentSendWaitTakesNoPass: once a receiver has claimed a
// lent send's loan, only its copy-out completes the send, so the
// sender's wait polls without taking its device lock for a pass. The
// test plays the receiver: it claims the loan and copies the payload
// (CopyOut), and runs the release (lentDone) only after the sender has
// tested the send a thousand times.
func TestClaimedLentSendWaitTakesNoPass(t *testing.T) {
	d0, _ := devicePair(64)
	msg := lentPayload(64 << 10)
	sreq, err := d0.Isend(SliceBuf(msg), 1, 5, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if sreq.loan == nil {
		t.Fatal("the rendezvous send lent no payload")
	}
	dst := make([]byte, len(msg))
	release := sreq.loan.CopyOut(dst)
	if release == nil {
		t.Fatal("the loan was revoked")
	}
	polls := d0.StatsSnapshot().Polls
	for i := 0; i < 1000; i++ {
		if done, _, err := d0.TestReq(sreq); done || err != nil {
			t.Fatalf("claimed send: done=%v err=%v before its release", done, err)
		}
	}
	if got := d0.StatsSnapshot().Polls; got != polls {
		t.Fatalf("a wait on a claimed lent send made %d device passes", got-polls)
	}
	release()
	if _, err := d0.WaitReq(sreq); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, msg) || d0.Outstanding() != 0 {
		t.Fatalf("payload intact=%v, %d outstanding", bytes.Equal(dst, msg), d0.Outstanding())
	}
}
