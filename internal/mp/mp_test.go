package mp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// run executes body per rank over an in-process world and fails the
// test on error or timeout.
func run(t *testing.T, kind ChannelKind, n int, body func(w *World) error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- RunLocal(kind, n, 0, body) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("world deadlocked")
	}
}

func bothKinds(t *testing.T, n int, body func(w *World) error) {
	t.Helper()
	for _, kind := range []ChannelKind{ChannelShm, ChannelSock} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run(t, kind, n, body)
		})
	}
}

func TestPingPong(t *testing.T) {
	bothKinds(t, 2, func(w *World) error {
		c := w.Comm
		msg := []byte("ping-pong payload")
		buf := make([]byte, len(msg))
		for iter := 0; iter < 20; iter++ {
			if c.Rank() == 0 {
				if err := c.Send(msg, 1, iter); err != nil {
					return err
				}
				if _, err := c.Recv(buf, 1, iter); err != nil {
					return err
				}
				if !bytes.Equal(buf, msg) {
					return errors.New("pong corrupt")
				}
			} else {
				st, err := c.Recv(buf, 0, iter)
				if err != nil {
					return err
				}
				if st.Source != 0 || st.Count != len(msg) {
					return fmt.Errorf("bad status %+v", st)
				}
				if err := c.Send(buf, 0, iter); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func TestLargeTransfersRendezvous(t *testing.T) {
	bothKinds(t, 2, func(w *World) error {
		c := w.Comm
		const size = 1 << 20 // 1 MiB, well past the eager threshold
		if c.Rank() == 0 {
			msg := make([]byte, size)
			for i := range msg {
				msg[i] = byte(i * 31)
			}
			return c.Send(msg, 1, 0)
		}
		buf := make([]byte, size)
		st, err := c.Recv(buf, 0, 0)
		if err != nil {
			return err
		}
		if st.Count != size {
			return fmt.Errorf("count %d", st.Count)
		}
		for i, b := range buf {
			if b != byte(i*31) {
				return fmt.Errorf("byte %d corrupt", i)
			}
		}
		return nil
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		c := w.Comm
		const k = 8
		if c.Rank() == 0 {
			reqs := make([]Request, k)
			for i := 0; i < k; i++ {
				msg := []byte{byte(i), byte(i + 1)}
				r, err := c.Isend(msg, 1, i)
				if err != nil {
					return err
				}
				reqs[i] = r
			}
			return c.WaitAll(reqs...)
		}
		// Receive in reverse tag order to exercise matching.
		bufs := make([][]byte, k)
		reqs := make([]Request, k)
		for i := k - 1; i >= 0; i-- {
			bufs[i] = make([]byte, 2)
			r, err := c.Irecv(bufs[i], 0, i)
			if err != nil {
				return err
			}
			reqs[i] = r
		}
		if err := c.WaitAll(reqs...); err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			if bufs[i][0] != byte(i) || bufs[i][1] != byte(i+1) {
				return fmt.Errorf("msg %d corrupt: %v", i, bufs[i])
			}
		}
		return nil
	})
}

func TestAnySourceRecv(t *testing.T) {
	run(t, ChannelShm, 4, func(w *World) error {
		c := w.Comm
		if c.Rank() == 0 {
			got := map[int]bool{}
			buf := make([]byte, 1)
			for i := 0; i < 3; i++ {
				st, err := c.Recv(buf, AnySource, 5)
				if err != nil {
					return err
				}
				if int(buf[0]) != st.Source {
					return fmt.Errorf("payload %d from %d", buf[0], st.Source)
				}
				got[st.Source] = true
			}
			if len(got) != 3 {
				return fmt.Errorf("sources %v", got)
			}
			return nil
		}
		return c.Send([]byte{byte(c.Rank())}, 0, 5)
	})
}

func TestSsendSynchronization(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		c := w.Comm
		if c.Rank() == 0 {
			start := time.Now()
			if err := c.Ssend([]byte("sync"), 1, 1); err != nil {
				return err
			}
			// The receiver delays 50ms before posting; Ssend must not
			// complete before the match.
			if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
				return fmt.Errorf("ssend returned after %v, before receiver posted", elapsed)
			}
			return nil
		}
		time.Sleep(50 * time.Millisecond)
		buf := make([]byte, 4)
		_, err := c.Recv(buf, 0, 1)
		return err
	})
}

func TestProbeThenRecv(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		c := w.Comm
		if c.Rank() == 0 {
			return c.Send([]byte("sized just so"), 1, 3)
		}
		st, err := c.Probe(0, 3)
		if err != nil {
			return err
		}
		buf := make([]byte, st.Count)
		st2, err := c.Recv(buf, 0, 3)
		if err != nil {
			return err
		}
		if st2.Count != st.Count || string(buf) != "sized just so" {
			return fmt.Errorf("probe/recv mismatch: %d vs %d", st.Count, st2.Count)
		}
		return nil
	})
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			run(t, ChannelShm, n, func(w *World) error {
				for i := 0; i < 5; i++ {
					if err := w.Comm.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{2, 3, 7} {
		for root := 0; root < n; root++ {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				run(t, ChannelShm, n, func(w *World) error {
					buf := make([]byte, 64)
					if w.Comm.Rank() == root {
						for i := range buf {
							buf[i] = byte(i ^ root)
						}
					}
					if err := w.Comm.Bcast(buf, root); err != nil {
						return err
					}
					for i := range buf {
						if buf[i] != byte(i^root) {
							return fmt.Errorf("rank %d byte %d = %d", w.Comm.Rank(), i, buf[i])
						}
					}
					return nil
				})
			})
		}
	}
}

func TestScatterGather(t *testing.T) {
	const n = 4
	run(t, ChannelShm, n, func(w *World) error {
		c := w.Comm
		const chunk = 16
		var send []byte
		if c.Rank() == 1 {
			send = make([]byte, n*chunk)
			for i := range send {
				send[i] = byte(i)
			}
		}
		recv := make([]byte, chunk)
		if err := c.Scatter(send, recv, 1); err != nil {
			return err
		}
		for i := range recv {
			if recv[i] != byte(c.Rank()*chunk+i) {
				return fmt.Errorf("rank %d scatter byte %d = %d", c.Rank(), i, recv[i])
			}
		}
		// Transform and gather back.
		for i := range recv {
			recv[i] ^= 0xFF
		}
		var all []byte
		if c.Rank() == 1 {
			all = make([]byte, n*chunk)
		}
		if err := c.Gather(recv, all, 1); err != nil {
			return err
		}
		if c.Rank() == 1 {
			for i := range all {
				if all[i] != byte(i)^0xFF {
					return fmt.Errorf("gather byte %d = %d", i, all[i])
				}
			}
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	const n = 5
	run(t, ChannelShm, n, func(w *World) error {
		c := w.Comm
		mine := []byte{byte(c.Rank() * 11)}
		all := make([]byte, n)
		if err := c.Allgather(mine, all); err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			if all[r] != byte(r*11) {
				return fmt.Errorf("allgather[%d] = %d", r, all[r])
			}
		}
		return nil
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	const n = 6
	run(t, ChannelShm, n, func(w *World) error {
		c := w.Comm
		// Sum of int64 values rank+1 per element.
		const elems = 8
		send := make([]byte, 8*elems)
		for i := 0; i < elems; i++ {
			binary.LittleEndian.PutUint64(send[i*8:], uint64(c.Rank()+1+i))
		}
		var recv []byte
		if c.Rank() == 2 {
			recv = make([]byte, len(send))
		}
		if err := c.Reduce(send, recv, TypeInt64, OpSum, 2); err != nil {
			return err
		}
		if c.Rank() == 2 {
			for i := 0; i < elems; i++ {
				want := int64(0)
				for r := 0; r < n; r++ {
					want += int64(r + 1 + i)
				}
				got := int64(binary.LittleEndian.Uint64(recv[i*8:]))
				if got != want {
					return fmt.Errorf("reduce elem %d = %d, want %d", i, got, want)
				}
			}
		}
		// Allreduce max of float64.
		fsend := make([]byte, 8)
		binary.LittleEndian.PutUint64(fsend, math.Float64bits(float64(c.Rank())))
		frecv := make([]byte, 8)
		if err := c.Allreduce(fsend, frecv, TypeFloat64, OpMax); err != nil {
			return err
		}
		if got := math.Float64frombits(binary.LittleEndian.Uint64(frecv)); got != float64(n-1) {
			return fmt.Errorf("allreduce max = %g", got)
		}
		return nil
	})
}

func TestCommDup(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		c := w.Comm
		dup := c.Dup()
		// Same-tag messages on the two comms must not cross.
		if c.Rank() == 0 {
			if err := c.Send([]byte("world"), 1, 1); err != nil {
				return err
			}
			return dup.Send([]byte("dup__"), 1, 1)
		}
		// Receive from the dup first.
		buf := make([]byte, 5)
		if _, err := dup.Recv(buf, 0, 1); err != nil {
			return err
		}
		if string(buf) != "dup__" {
			return fmt.Errorf("dup got %q", buf)
		}
		if _, err := c.Recv(buf, 0, 1); err != nil {
			return err
		}
		if string(buf) != "world" {
			return fmt.Errorf("world got %q", buf)
		}
		return nil
	})
}

func TestCommSplit(t *testing.T) {
	const n = 6
	run(t, ChannelShm, n, func(w *World) error {
		c := w.Comm
		color := c.Rank() % 2
		// Reverse key ordering within each color.
		sub, err := c.Split(color, -c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != n/2 {
			return fmt.Errorf("split size %d", sub.Size())
		}
		// Highest old rank gets rank 0 in the new comm (smallest key).
		wantRank := (n - 2 - c.Rank() + color) / 2
		if sub.Rank() != wantRank {
			return fmt.Errorf("old rank %d: new rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// Use the subcomm: allreduce of old ranks within the color.
		send := make([]byte, 8)
		binary.LittleEndian.PutUint64(send, uint64(c.Rank()))
		recv := make([]byte, 8)
		if err := sub.Allreduce(send, recv, TypeInt64, OpSum); err != nil {
			return err
		}
		want := int64(0)
		for r := color; r < n; r += 2 {
			want += int64(r)
		}
		if got := int64(binary.LittleEndian.Uint64(recv)); got != want {
			return fmt.Errorf("color %d sum %d, want %d", color, got, want)
		}
		return nil
	})
}

func TestTruncationError(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		c := w.Comm
		if c.Rank() == 0 {
			return c.Send(make([]byte, 100), 1, 0)
		}
		buf := make([]byte, 10)
		_, err := c.Recv(buf, 0, 0)
		if err == nil {
			return errors.New("truncation unreported")
		}
		return nil
	})
}

func TestInvalidArgs(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		c := w.Comm
		if err := c.Send(nil, 5, 0); err == nil {
			return errors.New("bad rank accepted")
		}
		if err := c.Send(nil, 1, -3); err == nil {
			return errors.New("negative tag accepted")
		}
		if err := c.Send(nil, 1, MaxUserTag+1); err == nil {
			return errors.New("huge tag accepted")
		}
		return nil
	})
}

func TestSpawn(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		merged, err := w.Spawn(2, func(child *World, merged *Comm) error {
			// Children: world comm spans the 2 children.
			if child.Comm.Size() != 2 {
				return fmt.Errorf("child world size %d", child.Comm.Size())
			}
			// Each child sends its merged rank to merged rank 0.
			return merged.Send([]byte{byte(merged.Rank())}, 0, 7)
		})
		if err != nil {
			return err
		}
		if merged.Size() != 4 {
			return fmt.Errorf("merged size %d", merged.Size())
		}
		if w.Comm.Rank() == 0 {
			got := map[int]bool{}
			buf := make([]byte, 1)
			for i := 0; i < 2; i++ {
				st, err := merged.Recv(buf, AnySource, 7)
				if err != nil {
					return err
				}
				if int(buf[0]) != st.Source {
					return fmt.Errorf("child reported %d from %d", buf[0], st.Source)
				}
				got[st.Source] = true
			}
			if !got[2] || !got[3] {
				return fmt.Errorf("children %v", got)
			}
		}
		return nil
	})
}

// TestSpawnAfterTraffic spawns once the parents' endpoints have
// cached their rings: they must discover the children to send to them
// and to hear from them, and the children must reach every parent.
func TestSpawnAfterTraffic(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		me := w.Comm.Rank()
		buf := make([]byte, 1)
		for i := 0; i < 100; i++ {
			// 1-byte sends are eager: they complete locally.
			if err := w.Comm.Send([]byte{byte(i)}, 1-me, 1); err != nil {
				return err
			}
			if _, err := w.Comm.Recv(buf, 1-me, 1); err != nil {
				return err
			}
		}
		merged, err := w.Spawn(2, func(child *World, merged *Comm) error {
			// Echo one byte from each parent back to it, plus our rank.
			for parent := 0; parent < 2; parent++ {
				b := make([]byte, 1)
				if _, err := merged.Recv(b, parent, 5); err != nil {
					return err
				}
				if err := merged.Send([]byte{b[0] + byte(merged.Rank())}, parent, 6); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		for child := 2; child < 4; child++ {
			if err := merged.Send([]byte{byte(10 * me)}, child, 5); err != nil {
				return err
			}
		}
		for child := 2; child < 4; child++ {
			if _, err := merged.Recv(buf, child, 6); err != nil {
				return err
			}
			if int(buf[0]) != 10*me+child {
				return fmt.Errorf("parent %d: child %d echoed %d", me, child, buf[0])
			}
		}
		return nil
	})
}
