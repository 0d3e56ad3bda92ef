package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"motor/internal/mp"
	"motor/internal/pal"
	"motor/internal/pal/fault"
	"motor/internal/vm"
)

// OO-op chaos coverage: every object operation under transport faults
// must either complete or fail with a typed mp.ErrTransport — never
// hang (runSockRanks' deadline enforces that) and never leak a pooled
// serialization buffer. Chunk targets are shrunk so the streams span
// many chunks and the faults strike mid-stream.

// ooChaosOpts forces multi-chunk streams over the 512-byte eager
// threshold used below: chunks ride the rendezvous path, so kills hit
// RTS/CTS/DATA exchanges in the middle of a pipelined stream.
var ooChaosOpts = []Option{WithOOChunk(2 << 10)}

const ooChaosEagerMax = 512

// ooChaosCheck asserts the per-rank postcondition: complete-or-typed,
// no pooled-buffer leak, no request leak, heap pin-clean.
func ooChaosCheck(r *rank, err error) error {
	if err != nil && !errors.Is(err, mp.ErrTransport) {
		return fmt.Errorf("untyped failure: %v", err)
	}
	if out := r.e.BufferOutstanding(); out != 0 {
		return fmt.Errorf("%d pooled buffers leaked (err=%v)", out, err)
	}
	if out := r.e.Comm.Outstanding(); out != 0 {
		return fmt.Errorf("%d requests leaked (err=%v)", out, err)
	}
	return heapClean(r)
}

// resetPlan builds a platform set for n ranks with a connection reset
// on victim's nth matching write.
func resetPlan(n, victim, nth int, seed int64) []pal.Platform {
	plats := make([]pal.Platform, n)
	plats[victim] = fault.New(pal.Default, fault.Plan{Seed: seed, Rules: []fault.Rule{
		{Op: fault.OpWrite, Kind: fault.KindReset, Nth: nth},
	}})
	return plats
}

// delayPlan stalls every write on victim — the op must still complete.
func delayPlan(n, victim int, seed int64) []pal.Platform {
	plats := make([]pal.Platform, n)
	plats[victim] = fault.New(pal.Default, fault.Plan{Seed: seed, Rules: []fault.Rule{
		{Op: fault.OpWrite, Kind: fault.KindDelay, Delay: time.Millisecond, Count: 1 << 30},
	}})
	return plats
}

func TestOOChaosOSendORecv(t *testing.T) {
	cases := []struct {
		name      string
		plats     func() []pal.Platform
		wantClean bool // every rank must succeed (delay-only plans)
	}{
		// Writes: #1 registration, #2 mesh identify, then stream
		// traffic. Different Nth values strike the first RTS, a
		// mid-stream DATA frame, and the tail of the stream.
		{"sender-reset-early", func() []pal.Platform { return resetPlan(2, 0, 3, 11) }, false},
		{"sender-reset-mid", func() []pal.Platform { return resetPlan(2, 0, 6, 12) }, false},
		{"receiver-reset-cts", func() []pal.Platform { return resetPlan(2, 1, 3, 13) }, false},
		{"receiver-reset-late", func() []pal.Platform { return resetPlan(2, 1, 5, 14) }, false},
		{"sender-delayed", func() []pal.Platform { return delayPlan(2, 0, 15) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := runSockRanksOpts(t, tc.plats(), ooChaosEagerMax, ooChaosOpts, func(r *rank) error {
				mt := registerLinkedArray(r.v)
				var err error
				if r.e.Comm.Rank() == 0 {
					head := buildLinkedList(r.v, mt, 30, 64) // ~10 KiB, several chunks
					err = r.e.OSend(r.th, head, 1, 0)
				} else {
					var head vm.Ref
					head, _, err = r.e.ORecv(r.th, 0, 0)
					if err == nil {
						if verr := verifyList(r.v.Heap, mt, head, 30, 64, true); verr != nil {
							return verr
						}
					}
				}
				if tc.wantClean && err != nil {
					return fmt.Errorf("delay-only plan failed: %v", err)
				}
				return ooChaosCheck(r, err)
			})
			for rk, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rk, err)
				}
			}
		})
	}
}

func TestOOChaosOBcast(t *testing.T) {
	cases := []struct {
		name  string
		plats func() []pal.Platform
	}{
		{"root-reset", func() []pal.Platform { return resetPlan(3, 0, 5, 21) }},
		{"leaf-reset", func() []pal.Platform { return resetPlan(3, 2, 4, 22) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := runSockRanksOpts(t, tc.plats(), ooChaosEagerMax, ooChaosOpts, func(r *rank) error {
				mt := registerLinkedArray(r.v)
				var obj vm.Ref
				if r.e.Comm.Rank() == 0 {
					obj = buildLinkedList(r.v, mt, 20, 64)
				}
				_, err := r.e.OBcast(r.th, obj, 0)
				return ooChaosCheck(r, err)
			})
			for rk, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rk, err)
				}
			}
		})
	}
}

func TestOOChaosOScatter(t *testing.T) {
	cases := []struct {
		name  string
		plats func() []pal.Platform
	}{
		{"root-reset", func() []pal.Platform { return resetPlan(3, 0, 6, 31) }},
		{"receiver-reset", func() []pal.Platform { return resetPlan(3, 1, 4, 32) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := runSockRanksOpts(t, tc.plats(), ooChaosEagerMax, ooChaosOpts, func(r *rank) error {
				mt := registerLinkedArray(r.v)
				h := r.v.Heap
				var arr vm.Ref
				if r.e.Comm.Rank() == 0 {
					guard := &vm.RefRoots{Refs: []vm.Ref{vm.NullRef}}
					r.v.AddRootProvider(guard)
					a, err := h.AllocArray(r.v.ArrayType(vm.KindRef, mt, 1), 9)
					if err != nil {
						return err
					}
					guard.Refs[0] = a
					for i := 0; i < 9; i++ {
						node, err := h.AllocClass(mt)
						if err != nil {
							return err
						}
						h.SetScalar(node, mt.FieldByName("id"), uint64(uint32(int32(i))))
						h.SetElemRef(guard.Refs[0], i, node)
					}
					arr = guard.Refs[0]
					r.v.RemoveRootProvider(guard)
				}
				_, err := r.e.OScatter(r.th, arr, 0)
				return ooChaosCheck(r, err)
			})
			for rk, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rk, err)
				}
			}
		})
	}
}

func TestOOChaosOGather(t *testing.T) {
	cases := []struct {
		name  string
		plats func() []pal.Platform
	}{
		{"root-reset", func() []pal.Platform { return resetPlan(3, 0, 4, 41) }},
		{"sender-reset", func() []pal.Platform { return resetPlan(3, 2, 4, 42) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := runSockRanksOpts(t, tc.plats(), ooChaosEagerMax, ooChaosOpts, func(r *rank) error {
				mt := registerLinkedArray(r.v)
				h := r.v.Heap
				guard := &vm.RefRoots{Refs: []vm.Ref{vm.NullRef}}
				r.v.AddRootProvider(guard)
				a, err := h.AllocArray(r.v.ArrayType(vm.KindRef, mt, 1), 4)
				if err != nil {
					return err
				}
				guard.Refs[0] = a
				for i := 0; i < 4; i++ {
					node, err := h.AllocClass(mt)
					if err != nil {
						return err
					}
					h.SetScalar(node, mt.FieldByName("id"), uint64(uint32(int32(i))))
					h.SetElemRef(guard.Refs[0], i, node)
				}
				arr := guard.Refs[0]
				r.v.RemoveRootProvider(guard)
				pop := r.th.VM().Protect(&arr)
				defer pop()
				_, err = r.e.OGather(r.th, arr, 0)
				return ooChaosCheck(r, err)
			})
			for rk, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rk, err)
				}
			}
		})
	}
}

// TestOOChaosRepeatedExchange hammers one pair with cached sends under
// a probabilistic reset: whatever round the cut lands in, both sides
// come out typed and clean.
func TestOOChaosRepeatedExchange(t *testing.T) {
	plats := []pal.Platform{nil, fault.New(pal.Default, fault.Plan{Seed: 77, Rules: []fault.Rule{
		{Op: fault.OpWrite, Kind: fault.KindReset, Nth: 12},
	}})}
	errs := runSockRanksOpts(t, plats, ooChaosEagerMax, ooChaosOpts, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		var err error
		for round := 0; round < 6 && err == nil; round++ {
			if r.e.Comm.Rank() == 0 {
				head := buildLinkedList(r.v, mt, 10, 32)
				pop := r.th.VM().Protect(&head)
				err = r.e.OSend(r.th, head, 1, round)
				pop()
			} else {
				_, _, err = r.e.ORecv(r.th, 0, round)
			}
		}
		return ooChaosCheck(r, err)
	})
	for rk, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rk, err)
		}
	}
}
