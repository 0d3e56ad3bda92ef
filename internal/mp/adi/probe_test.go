package adi

import (
	"bytes"
	"errors"
	"testing"

	"motor/internal/mp/channel"
)

// TestProbeFailsWithPeer: a probe posted at a peer that then dies
// completes with ErrTransport and leaves nothing registered, and a probe
// posted after the death fails at once.
func TestProbeFailsWithPeer(t *testing.T) {
	chans, err := channel.NewSockGroupLocal(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer chans[1].Close()
	d1 := NewDevice(chans[1], 64)
	probe, err := d1.Probe(0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := d1.Outstanding(); n != 1 {
		t.Fatalf("Outstanding = %d with a probe posted, want 1", n)
	}
	chans[0].Close()
	progressUntil(t, d1, probe.Done)
	if !errors.Is(probe.Err(), ErrTransport) {
		t.Fatalf("probe err = %v, want ErrTransport", probe.Err())
	}
	if n := d1.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d after the peer died, want 0", n)
	}
	if _, err := d1.Probe(0, 5, 0); !errors.Is(err, ErrTransport) {
		t.Fatalf("probe of a dead peer: err = %v, want ErrTransport", err)
	}
}

// TestProbeCancelLeavesNothingPosted: a cancelled probe leaves the
// posted queue, and the message it waited for goes unexpected.
func TestProbeCancelLeavesNothingPosted(t *testing.T) {
	d0, d1 := devicePair(1024)
	probe, err := d1.Probe(0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	d1.CancelReq(probe)
	if !probe.Done() || !errors.Is(probe.Err(), ErrCancelled) {
		t.Fatalf("cancelled probe: done %v, err %v", probe.Done(), probe.Err())
	}
	if n := d1.Outstanding(); n != 0 || len(d1.posted) != 0 {
		t.Fatalf("after cancel: Outstanding %d, %d posted", n, len(d1.posted))
	}
	if _, err := d0.Isend(SliceBuf([]byte("late")), 1, 5, 0, false); err != nil {
		t.Fatal(err)
	}
	progressUntil(t, d1, func() bool { return d1.StatsSnapshot().Unexpected == 1 })
	if ok, st, err := d1.Iprobe(0, 5, 0); !ok || err != nil || st.Count != 4 {
		t.Fatalf("message after the cancelled probe: ok %v, status %+v, err %v", ok, st, err)
	}
}

// TestProbeBesideReceive: a probe and a receive posted for the same
// message, eager, lent rendezvous (shm) and RTS/CTS rendezvous (sock),
// before and after it arrives. The receive gets the payload, the probe
// the message's whole size, and nothing stays posted.
func TestProbeBesideReceive(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
		sock bool
	}{{"eager", 100, false}, {"lent", 5000, false}, {"sock-rendezvous", 5000, true}} {
		for _, early := range []bool{true, false} {
			name := tc.name + "/posted-after-arrival"
			if early {
				name = tc.name + "/posted-before-arrival"
			}
			t.Run(name, func(t *testing.T) {
				d0, d1 := devicePair(1024)
				if tc.sock {
					chans, err := channel.NewSockGroupLocal(nil, 2)
					if err != nil {
						t.Fatal(err)
					}
					defer chans[0].Close()
					defer chans[1].Close()
					d0, d1 = NewDevice(chans[0], 1024), NewDevice(chans[1], 1024)
				}
				msg := bytes.Repeat([]byte{7}, tc.size)
				post := func() (*Request, *Request, []byte) {
					probe, err := d1.Probe(0, 3, 0)
					if err != nil {
						t.Fatal(err)
					}
					buf := make([]byte, tc.size)
					recv, err := d1.Irecv(SliceBuf(buf), 0, 3, 0)
					if err != nil {
						t.Fatal(err)
					}
					return probe, recv, buf
				}
				var probe, recv *Request
				var buf []byte
				if early {
					probe, recv, buf = post()
				}
				sreq, err := d0.Isend(SliceBuf(msg), 1, 3, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				if !early {
					progressUntil(t, d1, func() bool { return d1.StatsSnapshot().Unexpected == 1 })
					probe, recv, buf = post()
				}
				waitBoth(t, d1, d0, recv)
				waitBoth(t, d0, d1, sreq)
				if !probe.Done() || probe.Err() != nil {
					t.Fatalf("probe: done %v, err %v", probe.Done(), probe.Err())
				}
				if st := probe.Status(); st != (Status{Source: 0, Tag: 3, Count: tc.size}) {
					t.Fatalf("probe status %+v, want count %d", st, tc.size)
				}
				if !bytes.Equal(buf, msg) || recv.Status().Count != tc.size {
					t.Fatalf("receive got %d bytes, status %+v", len(buf), recv.Status())
				}
				if n := d1.Outstanding(); n != 0 || len(d1.posted) != 0 || len(d1.unexp) != 0 {
					t.Fatalf("left behind: Outstanding %d, %d posted, %d unexpected", n, len(d1.posted), len(d1.unexp))
				}
			})
		}
	}
}
