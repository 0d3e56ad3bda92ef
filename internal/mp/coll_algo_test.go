package mp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// Tests for the size-aware collective engine: every algorithm must
// produce identical results under every forcing, the selector must
// pick by size, back-to-back collectives must never cross-match, and
// no collective may leak requests into the device — successful or not.

func f64s(vals ...float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

func f64at(buf []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
}

// TestAllreduceAlgorithms runs every allreduce algorithm over a
// matrix of rank counts (power-of-two and not) and element counts
// (including fewer elements than ranks, so ring chunks go empty) and
// checks exact sums.
func TestAllreduceAlgorithms(t *testing.T) {
	for _, algo := range []string{"recdbl", "ring"} {
		for _, n := range []int{2, 3, 4, 5} {
			for _, elems := range []int{1, 3, 64, 4099} {
				name := fmt.Sprintf("%s/n=%d/elems=%d", algo, n, elems)
				t.Run(name, func(t *testing.T) {
					run(t, ChannelShm, n, func(w *World) error {
						c := w.Comm
						if err := c.SetCollAlgo("allreduce=" + algo); err != nil {
							return err
						}
						send := make([]byte, 8*elems)
						for i := 0; i < elems; i++ {
							binary.LittleEndian.PutUint64(send[8*i:], math.Float64bits(float64(c.Rank()+1)*float64(i+1)))
						}
						recv := make([]byte, len(send))
						if err := c.Allreduce(send, recv, TypeFloat64, OpSum); err != nil {
							return err
						}
						rankSum := float64(n*(n+1)) / 2
						for i := 0; i < elems; i++ {
							want := rankSum * float64(i+1)
							if got := f64at(recv, i); got != want {
								return fmt.Errorf("rank %d elem %d: got %v want %v", c.Rank(), i, got, want)
							}
						}
						if out := w.Dev.Outstanding(); out != 0 {
							return fmt.Errorf("rank %d: %d requests leaked", c.Rank(), out)
						}
						return nil
					})
				})
			}
		}
	}
}

// TestAllgatherAlgorithms checks both allgather algorithms over
// non-power-of-two communicators and odd chunk sizes.
func TestAllgatherAlgorithms(t *testing.T) {
	for _, algo := range []string{"gatherbcast", "ring"} {
		for _, n := range []int{2, 3, 5} {
			for _, chunk := range []int{1, 7, 9000} {
				t.Run(fmt.Sprintf("%s/n=%d/chunk=%d", algo, n, chunk), func(t *testing.T) {
					run(t, ChannelShm, n, func(w *World) error {
						c := w.Comm
						if err := c.SetCollAlgo("allgather=" + algo); err != nil {
							return err
						}
						send := bytes.Repeat([]byte{byte('A' + c.Rank())}, chunk)
						recv := make([]byte, chunk*n)
						if err := c.Allgather(send, recv); err != nil {
							return err
						}
						for r := 0; r < n; r++ {
							if !bytes.Equal(recv[r*chunk:(r+1)*chunk], bytes.Repeat([]byte{byte('A' + r)}, chunk)) {
								return fmt.Errorf("rank %d: chunk %d corrupt", c.Rank(), r)
							}
						}
						if out := w.Dev.Outstanding(); out != 0 {
							return fmt.Errorf("rank %d: %d requests leaked", c.Rank(), out)
						}
						return nil
					})
				})
			}
		}
	}
}

// TestBcastAlgorithms checks binomial and pipelined broadcast from
// every root, with a payload large enough for several pipeline
// segments.
func TestBcastAlgorithms(t *testing.T) {
	const size = 3*bcastSegSize + 17 // 4 segments, last one ragged
	for _, algo := range []string{"binomial", "pipelined"} {
		for _, n := range []int{2, 4, 5} {
			t.Run(fmt.Sprintf("%s/n=%d", algo, n), func(t *testing.T) {
				run(t, ChannelShm, n, func(w *World) error {
					c := w.Comm
					if err := c.SetCollAlgo("bcast=" + algo); err != nil {
						return err
					}
					for root := 0; root < n; root++ {
						buf := make([]byte, size)
						if c.Rank() == root {
							for i := range buf {
								buf[i] = byte(i*7 + root)
							}
						}
						if err := c.Bcast(buf, root); err != nil {
							return err
						}
						for i := range buf {
							if buf[i] != byte(i*7+root) {
								return fmt.Errorf("rank %d root %d: byte %d corrupt", c.Rank(), root, i)
							}
						}
					}
					if out := w.Dev.Outstanding(); out != 0 {
						return fmt.Errorf("rank %d: %d requests leaked", c.Rank(), out)
					}
					return nil
				})
			})
		}
	}
}

// TestCollAlgoAutoSelection pins the selector's crossover behavior:
// small payloads take the latency algorithms, large payloads the
// bandwidth algorithms, and the choice lands in CollStats.
func TestCollAlgoAutoSelection(t *testing.T) {
	run(t, ChannelShm, 4, func(w *World) error {
		c := w.Comm
		n := c.Size()
		small := make([]byte, 64)
		smallOut := make([]byte, 64)
		large := make([]byte, allreduceRingMin)
		largeOut := make([]byte, allreduceRingMin)
		if err := c.Allreduce(small, smallOut, TypeFloat64, OpSum); err != nil {
			return err
		}
		if err := c.Allreduce(large, largeOut, TypeFloat64, OpSum); err != nil {
			return err
		}
		if err := c.Allgather(small, make([]byte, 64*n)); err != nil {
			return err
		}
		if err := c.Allgather(large, make([]byte, allreduceRingMin*n)); err != nil {
			return err
		}
		if err := c.Bcast(small, 0); err != nil {
			return err
		}
		if err := c.Bcast(make([]byte, bcastPipelineMin), 0); err != nil {
			return err
		}
		st := c.CollStats()
		if st.AllreduceRecDbl != 1 || st.AllreduceRing != 1 {
			return fmt.Errorf("allreduce selection: recdbl=%d ring=%d, want 1/1", st.AllreduceRecDbl, st.AllreduceRing)
		}
		if st.AllgatherGatherBcast != 1 || st.AllgatherRing != 1 {
			return fmt.Errorf("allgather selection: gb=%d ring=%d, want 1/1", st.AllgatherGatherBcast, st.AllgatherRing)
		}
		if st.BcastBinomial < 1 || st.BcastPipelined < 1 {
			return fmt.Errorf("bcast selection: bin=%d pipe=%d, want >=1 each", st.BcastBinomial, st.BcastPipelined)
		}
		if st.Ops != 6 {
			return fmt.Errorf("coll ops = %d, want 6", st.Ops)
		}
		if st.BytesMoved == 0 {
			return fmt.Errorf("BytesMoved = 0")
		}
		if st.MaxSegsInFlight < 2 {
			return fmt.Errorf("MaxSegsInFlight = %d, want >= 2", st.MaxSegsInFlight)
		}
		return nil
	})
}

// TestSetCollAlgoSpec exercises the override parser: valid specs
// apply, invalid ops/algos/mismatches are rejected.
func TestSetCollAlgoSpec(t *testing.T) {
	run(t, ChannelShm, 1, func(w *World) error {
		c := w.Comm
		if err := c.SetCollAlgo("allreduce=ring, bcast=pipelined ,allgather=gatherbcast"); err != nil {
			return fmt.Errorf("valid spec rejected: %v", err)
		}
		if err := c.SetCollAlgo("allreduce=auto"); err != nil {
			return fmt.Errorf("auto rejected: %v", err)
		}
		before := c.coll.force
		for _, bad := range []string{"allreduce", "frobnicate=ring", "allreduce=quantum", "bcast=ring", "allreduce=ring,bcast=nosuch"} {
			if err := c.SetCollAlgo(bad); err == nil {
				return fmt.Errorf("spec %q accepted, want error", bad)
			}
		}
		// A rejected spec forces nothing, not even its valid prefix.
		if c.coll.force != before {
			return fmt.Errorf("rejected specs changed the forced choices %v to %v", before, c.coll.force)
		}
		return nil
	})
}

// TestCollStatsSharedAcrossComms verifies Dup/Split communicators
// aggregate into the same per-rank counters as their parent.
func TestCollStatsSharedAcrossComms(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		c := w.Comm
		dup := c.Dup()
		if err := dup.Barrier(); err != nil {
			return err
		}
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if err := sub.Barrier(); err != nil {
			return err
		}
		st := c.CollStats()
		// Split runs an internal allgather on the parent plus the two
		// barriers; all must land in one shared counter set.
		if st.Ops < 3 {
			return fmt.Errorf("shared Ops = %d, want >= 3", st.Ops)
		}
		if dup.CollStats() != st || sub.CollStats() != st {
			return fmt.Errorf("derived comms report different stats")
		}
		return nil
	})
}

// TestCollTagSequencing is the white-box regression for the tag-reuse
// bug: two identical back-to-back collectives on one communicator
// must use distinct tags. On the seed scheme (fixed per-op tag bases)
// the tags were identical and correctness hung on per-pair FIFO.
func TestCollTagSequencing(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		c := w.Comm
		s0 := c.collSeq
		if err := c.Barrier(); err != nil {
			return err
		}
		s1 := c.collSeq
		if err := c.Barrier(); err != nil {
			return err
		}
		s2 := c.collSeq
		if s1 == s0 || s2 == s1 {
			return fmt.Errorf("collSeq did not advance: %d %d %d", s0, s1, s2)
		}
		if collTag(opcBarrier, s0, 0) == collTag(opcBarrier, s1, 0) {
			return fmt.Errorf("identical tags for successive barriers")
		}
		// Different ops at the same seq must differ too.
		if collTag(opcBarrier, s0, 0) == collTag(opcBcast, s0, 0) {
			return fmt.Errorf("op code not mixed into tag")
		}
		return nil
	})
}

// TestMixedCollectiveStress races 4 ranks through back-to-back mixed
// collectives with no intervening barriers — the scenario where tag
// reuse across successive collectives would cross-match (run with
// -race in the verify script's race tier). Every iteration's data is
// verified, so any mismatched message is caught, not just racy
// memory.
func TestMixedCollectiveStress(t *testing.T) {
	const iters = 60
	run(t, ChannelShm, 4, func(w *World) error {
		c := w.Comm
		n := c.Size()
		me := c.Rank()
		for it := 0; it < iters; it++ {
			// Bcast from a rotating root.
			root := it % n
			bbuf := f64s(float64(it), float64(root))
			if me != root {
				bbuf = make([]byte, 16)
			}
			if err := c.Bcast(bbuf, root); err != nil {
				return err
			}
			if f64at(bbuf, 0) != float64(it) || f64at(bbuf, 1) != float64(root) {
				return fmt.Errorf("rank %d iter %d: bcast corrupt", me, it)
			}
			// Allreduce whose expected value depends on the iteration.
			send := f64s(float64(me+1)*float64(it+1), float64(me))
			recv := make([]byte, len(send))
			if err := c.Allreduce(send, recv, TypeFloat64, OpSum); err != nil {
				return err
			}
			wantSum := float64(n*(n+1)) / 2 * float64(it+1)
			wantRanks := float64(n*(n-1)) / 2
			if f64at(recv, 0) != wantSum || f64at(recv, 1) != wantRanks {
				return fmt.Errorf("rank %d iter %d: allreduce got (%v,%v) want (%v,%v)",
					me, it, f64at(recv, 0), f64at(recv, 1), wantSum, wantRanks)
			}
			// Allgather of iteration-tagged chunks.
			chunk := f64s(float64(me*1000 + it))
			all := make([]byte, len(chunk)*n)
			if err := c.Allgather(chunk, all); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if f64at(all, r) != float64(r*1000+it) {
					return fmt.Errorf("rank %d iter %d: allgather chunk %d corrupt", me, it, r)
				}
			}
			// Alltoall with per-pair, per-iteration values.
			a2aSend := make([]byte, 8*n)
			for peer := 0; peer < n; peer++ {
				binary.LittleEndian.PutUint64(a2aSend[8*peer:], math.Float64bits(float64(me*100+peer*10+it%10)))
			}
			a2aRecv := make([]byte, 8*n)
			if err := c.Alltoall(a2aSend, a2aRecv); err != nil {
				return err
			}
			for peer := 0; peer < n; peer++ {
				if f64at(a2aRecv, peer) != float64(peer*100+me*10+it%10) {
					return fmt.Errorf("rank %d iter %d: alltoall from %d corrupt", me, it, peer)
				}
			}
		}
		if out := w.Dev.Outstanding(); out != 0 {
			return fmt.Errorf("rank %d: %d requests leaked after stress", me, out)
		}
		return nil
	})
}

// TestAlltoallDrainsOnError is the regression for the request-leak
// bug: when a post fails mid-alltoall, the already-posted receives
// must not stay registered in the device match lists. On the pre-fix
// code this leaves Outstanding() > 0.
func TestAlltoallDrainsOnError(t *testing.T) {
	worlds, err := NewLocalWorlds(ChannelShm, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := worlds[0]
	// Kill this rank's own channel: receive posts still succeed (they
	// only touch the match lists), the first send post fails.
	if err := w.Dev.Channel().Close(); err != nil {
		t.Fatal(err)
	}
	send := make([]byte, 16)
	recv := make([]byte, 16)
	if err := w.Comm.Alltoall(send, recv); err == nil {
		t.Fatal("alltoall on a closed channel succeeded")
	}
	if out := w.Dev.Outstanding(); out != 0 {
		t.Fatalf("alltoall leaked %d requests after error", out)
	}
	if w.Dev.Stats.Cancelled == 0 {
		t.Fatal("expected cancelled requests after failed alltoall")
	}
}

// TestCollectiveErrorDrain drives every collective entry point into a
// post failure and asserts the drain discipline each time.
func TestCollectiveErrorDrain(t *testing.T) {
	newDeadWorld := func(t *testing.T) *World {
		t.Helper()
		worlds, err := NewLocalWorlds(ChannelShm, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		w := worlds[1] // interior rank: both sends and receives in play
		if err := w.Dev.Channel().Close(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	buf := make([]byte, 24)
	cases := []struct {
		name string
		call func(c *Comm) error
	}{
		{"barrier", func(c *Comm) error { return c.Barrier() }},
		{"bcast", func(c *Comm) error { return c.Bcast(buf, 0) }},
		{"scatter", func(c *Comm) error { return c.Scatter(nil, buf, 0) }},
		{"gather", func(c *Comm) error { return c.Gather(buf, nil, 0) }},
		{"allgather", func(c *Comm) error { return c.Allgather(buf, make([]byte, len(buf)*3)) }},
		{"reduce", func(c *Comm) error { return c.Reduce(buf, nil, TypeFloat64, OpSum, 0) }},
		{"allreduce-recdbl", func(c *Comm) error {
			if err := c.SetCollAlgo("allreduce=recdbl"); err != nil {
				return err
			}
			return c.Allreduce(buf, make([]byte, len(buf)), TypeFloat64, OpSum)
		}},
		{"allreduce-ring", func(c *Comm) error {
			if err := c.SetCollAlgo("allreduce=ring"); err != nil {
				return err
			}
			return c.Allreduce(buf, make([]byte, len(buf)), TypeFloat64, OpSum)
		}},
		{"allgather-ring", func(c *Comm) error {
			if err := c.SetCollAlgo("allgather=ring"); err != nil {
				return err
			}
			return c.Allgather(buf, make([]byte, len(buf)*3))
		}},
		{"bcast-pipelined", func(c *Comm) error {
			if err := c.SetCollAlgo("bcast=pipelined"); err != nil {
				return err
			}
			return c.Bcast(make([]byte, 2*bcastSegSize), 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newDeadWorld(t)
			if err := tc.call(w.Comm); err == nil {
				t.Fatalf("%s on a closed channel succeeded", tc.name)
			}
			if out := w.Dev.Outstanding(); out != 0 {
				t.Fatalf("%s leaked %d requests after error", tc.name, out)
			}
		})
	}
}

// TestCollectivesSockLarge runs the full set once over the sock
// channel with payloads past the eager threshold, so the rendezvous
// protocol carries the ring and pipeline traffic.
func TestCollectivesSockLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("sock collective sweep skipped in -short mode")
	}
	const elems = 40 << 10 // 320 KiB of float64s: ring + pipelined paths
	run(t, ChannelSock, 4, func(w *World) error {
		c := w.Comm
		n := c.Size()
		send := make([]byte, 8*elems)
		for i := 0; i < elems; i++ {
			binary.LittleEndian.PutUint64(send[8*i:], math.Float64bits(float64(c.Rank()+1)))
		}
		recv := make([]byte, len(send))
		if err := c.Allreduce(send, recv, TypeFloat64, OpSum); err != nil {
			return err
		}
		want := float64(n*(n+1)) / 2
		for i := 0; i < elems; i++ {
			if f64at(recv, i) != want {
				return fmt.Errorf("rank %d elem %d: got %v want %v", c.Rank(), i, f64at(recv, i), want)
			}
		}
		if err := c.Bcast(recv, 0); err != nil {
			return err
		}
		all := make([]byte, len(send)*n)
		if err := c.Allgather(send, all); err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			if f64at(all, r*elems) != float64(r+1) {
				return fmt.Errorf("rank %d: allgather chunk %d corrupt", c.Rank(), r)
			}
		}
		st := c.CollStats()
		if st.AllreduceRing != 1 || st.AllgatherRing != 1 || st.BcastPipelined != 1 {
			return fmt.Errorf("selection over sock: %+v", st)
		}
		return nil
	})
}

// TestCollSeqConcurrentComms drives two communicators concurrently
// from the same rank goroutine set (interleaved, not threaded) to
// check context + seq isolation.
func TestCollSeqConcurrentComms(t *testing.T) {
	run(t, ChannelShm, 3, func(w *World) error {
		c := w.Comm
		dup := c.Dup()
		for i := 0; i < 10; i++ {
			v := f64s(float64(c.Rank() + i))
			out := make([]byte, 8)
			if err := c.Allreduce(v, out, TypeFloat64, OpMax); err != nil {
				return err
			}
			if f64at(out, 0) != float64(c.Size()-1+i) {
				return fmt.Errorf("world comm: got %v", f64at(out, 0))
			}
			if err := dup.Allreduce(v, out, TypeFloat64, OpMin); err != nil {
				return err
			}
			if f64at(out, 0) != float64(i) {
				return fmt.Errorf("dup comm: got %v", f64at(out, 0))
			}
		}
		return nil
	})
}

// TestBarrierStillSynchronizes: a rank must not exit the barrier
// before the last rank enters it (probabilistic but with generous
// slack — the dissemination rounds force transitive dependence).
func TestBarrierStillSynchronizes(t *testing.T) {
	const n = 4
	var mu sync.Mutex
	var entered int
	fail := false
	run(t, ChannelShm, n, func(w *World) error {
		if w.Rank() == 0 {
			time.Sleep(50 * time.Millisecond) // everyone else waits on us
		}
		mu.Lock()
		entered++
		mu.Unlock()
		if err := w.Comm.Barrier(); err != nil {
			return err
		}
		mu.Lock()
		if entered != n {
			fail = true
		}
		mu.Unlock()
		return nil
	})
	if fail {
		t.Fatal("a rank left the barrier before all ranks entered")
	}
}
