package mp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

// TestStressBlockingWaitOversubscribed runs blocking ping-pongs (eager
// and lent rendezvous) and an Allreduce with at least as many ranks as
// processors: 2 ranks at GOMAXPROCS=1 and 4 at GOMAXPROCS=2. Where the
// ranks outnumber the processors every idle step must hand the
// processor on, or a wait spins while its peer cannot run.
func TestStressBlockingWaitOversubscribed(t *testing.T) {
	for _, tc := range []struct{ ranks, procs int }{{2, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("ranks=%d,procs=%d", tc.ranks, tc.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			run(t, ChannelShm, tc.ranks, func(w *World) error {
				c := w.Comm
				me, peer := c.Rank(), c.Rank()^1
				for _, size := range []int{8, 128 << 10} {
					out, in := make([]byte, size), make([]byte, size)
					for it := 0; it < 50; it++ {
						for i := range out {
							out[i] = byte(it + i*(me+1))
						}
						if me%2 == 0 {
							if err := c.Send(out, peer, it); err != nil {
								return err
							}
							if _, err := c.Recv(in, peer, it); err != nil {
								return err
							}
						} else {
							if _, err := c.Recv(in, peer, it); err != nil {
								return err
							}
							if err := c.Send(out, peer, it); err != nil {
								return err
							}
						}
						for i := range in {
							if in[i] != byte(it+i*(peer+1)) {
								return fmt.Errorf("%d B iter %d: byte %d from rank %d is %d", size, it, i, peer, in[i])
							}
						}
					}
				}
				send, got := make([]byte, 8), make([]byte, 8)
				binary.LittleEndian.PutUint64(send, uint64(me+1))
				if err := c.Allreduce(send, got, TypeInt64, OpSum); err != nil {
					return err
				}
				want := make([]byte, 8)
				binary.LittleEndian.PutUint64(want, uint64(tc.ranks*(tc.ranks+1)/2))
				if !bytes.Equal(got, want) {
					return fmt.Errorf("allreduce sum %d, want %d", binary.LittleEndian.Uint64(got), tc.ranks*(tc.ranks+1)/2)
				}
				if n := c.Outstanding(); n != 0 {
					return fmt.Errorf("%d requests outstanding", n)
				}
				return nil
			})
		})
	}
}
