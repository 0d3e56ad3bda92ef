package main

import (
	"fmt"

	"motor"
)

// overlap is the communication/computation overlap workload: see
// workloads/overlap.masm for the op. The send buffers hold seeded
// payloads; after every block the harness checksums what arrived
// against the peer's payload, which it can rebuild from the seed.
type overlap struct {
	seed       int64
	nbuf, n    int
	iters      int64
	exchange   method
	getrb      method
	want       []int64 // checksum of the peer's payload b, stamped places left out
	lastStamp  int64
	haveResult bool
}

func newOverlap(w *workload, sz sizes) program {
	o := &overlap{seed: sz.seed, nbuf: 8, n: 1 << 18, iters: 400_000}
	if sz.smoke {
		o.nbuf, o.n, o.iters = 2, 1<<16, 1000
	}
	return o
}

// payload is what rank's send buffer b holds (before stamping).
func (o *overlap) payload(rank, b int) []int32 {
	g := rng(o.seed*64 + int64(rank*o.nbuf+b))
	p := make([]int32, o.n)
	for i := range p {
		p[i] = g.Int31()
	}
	return p
}

// checksum weights every element but the two stamped ones by position.
func checksum(p []int32) int64 {
	var sum int64
	for i := 1; i < len(p)-1; i++ {
		sum += int64(p[i]) * int64(i%7+1)
	}
	return sum
}

func (o *overlap) setup(r *motor.Rank) error {
	init, err := bind(r, "init")
	if err != nil {
		return err
	}
	setbuf, err := bind(r, "setbuf")
	if err != nil {
		return err
	}
	if o.exchange, err = bind(r, "exchange"); err != nil {
		return err
	}
	if o.getrb, err = bind(r, "getrb"); err != nil {
		return err
	}
	if _, err := init(iv(int64(o.nbuf))); err != nil {
		return err
	}
	for b := 0; b < o.nbuf; b++ {
		o.want = append(o.want, checksum(o.payload(1-r.ID(), b)))
		send, err := r.NewInt32Array(o.payload(r.ID(), b))
		if err != nil {
			return err
		}
		release := r.Protect(&send)
		recv, err := r.NewArray(motor.Int32, o.n)
		if err != nil {
			release()
			return err
		}
		_, err = setbuf(iv(int64(b)), rv(send), rv(recv))
		release()
		if err != nil {
			return err
		}
	}
	return nil
}

func (o *overlap) batch(r *motor.Rank, call int64) (int64, error) {
	o.lastStamp, o.haveResult = call%(1<<30), true
	bad, err := o.exchange(iv(o.lastStamp), iv(o.iters))
	return int64(bad.Bits), err
}

func (o *overlap) check(r *motor.Rank) error {
	if !o.haveResult {
		return nil
	}
	for b := 0; b < o.nbuf; b++ {
		v, err := o.getrb(iv(int64(b)))
		if err != nil {
			return err
		}
		got := r.Int32s(motor.Ref(v.Bits))
		stamp := int32(o.lastStamp)
		if len(got) != o.n || got[0] != stamp || got[o.n-1] != stamp {
			return fmt.Errorf("overlap: buffer %d has %d elements or lost its stamps", b, len(got))
		}
		if sum := checksum(got); sum != o.want[b] {
			return fmt.Errorf("overlap: buffer %d checksum %d, want %d", b, sum, o.want[b])
		}
	}
	return nil
}
