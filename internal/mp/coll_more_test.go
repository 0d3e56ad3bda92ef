package mp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

func TestSingleRankCollectives(t *testing.T) {
	// n=1 worlds: every collective degenerates to a local op.
	run(t, ChannelShm, 1, func(w *World) error {
		c := w.Comm
		if err := c.Barrier(); err != nil {
			return err
		}
		buf := []byte{1, 2, 3}
		if err := c.Bcast(buf, 0); err != nil {
			return err
		}
		recv := make([]byte, 3)
		if err := c.Scatter([]byte{4, 5, 6}, recv, 0); err != nil {
			return err
		}
		if !bytes.Equal(recv, []byte{4, 5, 6}) {
			return fmt.Errorf("scatter self %v", recv)
		}
		all := make([]byte, 3)
		if err := c.Gather(recv, all, 0); err != nil {
			return err
		}
		if !bytes.Equal(all, []byte{4, 5, 6}) {
			return fmt.Errorf("gather self %v", all)
		}
		send := make([]byte, 8)
		binary.LittleEndian.PutUint64(send, 42)
		out := make([]byte, 8)
		if err := c.Allreduce(send, out, TypeInt64, OpSum); err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(out) != 42 {
			return errors.New("single-rank allreduce")
		}
		return nil
	})
}

func TestBcastNonPowerOfTwo(t *testing.T) {
	// Binomial trees must handle non-power-of-two worlds and every root.
	for _, n := range []int{3, 5, 6} {
		for root := 0; root < n; root++ {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				run(t, ChannelShm, n, func(w *World) error {
					buf := make([]byte, 300)
					if w.Comm.Rank() == root {
						for i := range buf {
							buf[i] = byte(i * (root + 3))
						}
					}
					if err := w.Comm.Bcast(buf, root); err != nil {
						return err
					}
					for i := range buf {
						if buf[i] != byte(i*(root+3)) {
							return fmt.Errorf("rank %d byte %d", w.Comm.Rank(), i)
						}
					}
					return nil
				})
			})
		}
	}
}

func TestReduceEveryRoot(t *testing.T) {
	const n = 5
	for root := 0; root < n; root++ {
		root := root
		t.Run(fmt.Sprintf("root=%d", root), func(t *testing.T) {
			run(t, ChannelShm, n, func(w *World) error {
				c := w.Comm
				send := make([]byte, 8)
				binary.LittleEndian.PutUint64(send, uint64(1<<c.Rank()))
				var recv []byte
				if c.Rank() == root {
					recv = make([]byte, 8)
				}
				if err := c.Reduce(send, recv, TypeInt64, OpSum, root); err != nil {
					return err
				}
				if c.Rank() == root {
					if got := binary.LittleEndian.Uint64(recv); got != (1<<n)-1 {
						return fmt.Errorf("sum %d", got)
					}
				}
				return nil
			})
		})
	}
}

func TestSplitSingleColor(t *testing.T) {
	run(t, ChannelShm, 4, func(w *World) error {
		sub, err := w.Comm.Split(7, w.Comm.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 4 || sub.Rank() != w.Comm.Rank() {
			return fmt.Errorf("sub %d/%d", sub.Rank(), sub.Size())
		}
		return sub.Barrier()
	})
}

func TestSplitNegativeColorParticipates(t *testing.T) {
	run(t, ChannelShm, 3, func(w *World) error {
		color := 0
		if w.Comm.Rank() == 1 {
			color = -1
		}
		sub, err := w.Comm.Split(color, 0)
		if err != nil {
			return err
		}
		if w.Comm.Rank() == 1 {
			if sub != nil {
				return errors.New("negative color got a communicator")
			}
			return nil
		}
		if sub.Size() != 2 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		return sub.Barrier()
	})
}

func TestSpawnTwice(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		for round := 0; round < 2; round++ {
			merged, err := w.Spawn(1, func(child *World, mc *Comm) error {
				return mc.Send([]byte{byte(mc.Rank())}, 0, 3)
			})
			if err != nil {
				return err
			}
			if merged.Size() != 3 {
				return fmt.Errorf("round %d merged size %d", round, merged.Size())
			}
			if w.Comm.Rank() == 0 {
				buf := make([]byte, 1)
				st, err := merged.Recv(buf, AnySource, 3)
				if err != nil {
					return err
				}
				if st.Source != 2 || buf[0] != 2 {
					return fmt.Errorf("round %d child reported %d from %d", round, buf[0], st.Source)
				}
			}
			if err := w.Comm.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestSpawnOnSockWorldFails(t *testing.T) {
	run(t, ChannelSock, 2, func(w *World) error {
		_, err := w.Spawn(1, func(child *World, mc *Comm) error { return nil })
		if !errors.Is(err, ErrNoSpawn) {
			return fmt.Errorf("sock spawn: %v", err)
		}
		return nil
	})
}

func TestCollectivesOverSock(t *testing.T) {
	run(t, ChannelSock, 3, func(w *World) error {
		c := w.Comm
		if err := c.Barrier(); err != nil {
			return err
		}
		buf := make([]byte, 2000)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i % 251)
			}
		}
		if err := c.Bcast(buf, 0); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != byte(i%251) {
				return fmt.Errorf("rank %d bcast byte %d", c.Rank(), i)
			}
		}
		send := make([]byte, 8)
		binary.LittleEndian.PutUint64(send, uint64(c.Rank()+1))
		recv := make([]byte, 8)
		if err := c.Allreduce(send, recv, TypeInt64, OpProd); err != nil {
			return err
		}
		if got := binary.LittleEndian.Uint64(recv); got != 6 {
			return fmt.Errorf("prod %d", got)
		}
		return nil
	})
}

func TestSelfSendThroughComm(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		c := w.Comm
		me := c.Rank()
		// Isend to self, then Irecv from self.
		req, err := c.Isend([]byte{byte(me + 40)}, me, 2)
		if err != nil {
			return err
		}
		buf := make([]byte, 1)
		rreq, err := c.Irecv(buf, me, 2)
		if err != nil {
			return err
		}
		if err := c.WaitAll(req, rreq); err != nil {
			return err
		}
		if buf[0] != byte(me+40) {
			return fmt.Errorf("self payload %d", buf[0])
		}
		return nil
	})
}

func TestWaitAllNilRequests(t *testing.T) {
	run(t, ChannelShm, 1, func(w *World) error {
		return w.Comm.WaitAll(Request{}, Request{})
	})
}

func TestStatusSourceTranslation(t *testing.T) {
	// On a split communicator, Status.Source must be in the SUB
	// communicator's numbering.
	run(t, ChannelShm, 4, func(w *World) error {
		sub, err := w.Comm.Split(w.Comm.Rank()%2, 0)
		if err != nil {
			return err
		}
		if sub.Rank() == 0 {
			buf := make([]byte, 1)
			st, err := sub.Recv(buf, AnySource, 1)
			if err != nil {
				return err
			}
			if st.Source != 1 {
				return fmt.Errorf("source %d in sub-comm numbering, want 1", st.Source)
			}
			return nil
		}
		return sub.Send([]byte{9}, 0, 1)
	})
}

func TestAlltoall(t *testing.T) {
	const n = 4
	run(t, ChannelShm, n, func(w *World) error {
		c := w.Comm
		const chunk = 3
		send := make([]byte, n*chunk)
		for j := 0; j < n; j++ {
			for k := 0; k < chunk; k++ {
				send[j*chunk+k] = byte(10*c.Rank() + j)
			}
		}
		recv := make([]byte, n*chunk)
		if err := c.Alltoall(send, recv); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			for k := 0; k < chunk; k++ {
				if recv[i*chunk+k] != byte(10*i+c.Rank()) {
					return fmt.Errorf("rank %d recv[%d]=%d", c.Rank(), i*chunk+k, recv[i*chunk+k])
				}
			}
		}
		return nil
	})
}

func TestAlltoallErrors(t *testing.T) {
	run(t, ChannelShm, 2, func(w *World) error {
		if w.Comm.Rank() != 0 {
			return nil
		}
		if err := w.Comm.Alltoall(make([]byte, 3), make([]byte, 3)); err == nil {
			return errors.New("non-divisible alltoall accepted")
		}
		if err := w.Comm.Alltoall(make([]byte, 4), make([]byte, 2)); err == nil {
			return errors.New("mismatched alltoall accepted")
		}
		return nil
	})
}
