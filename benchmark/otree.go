package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"motor"
	"motor/internal/serial"
)

// otree is the object-tree transport workload: see
// workloads/otree.masm. The seed decides the payload bytes and how the
// fixed total is split over the list's elements.
type otree struct {
	k        int64
	sizes    []int32
	bytes    []byte
	client   method
	server   method
	count    method
	checksum method
	ran      bool
}

// The paper's Fig. 10 protocol: a fixed 4096-byte payload spread over
// the list. 256 elements (512 objects) stays below the region where
// the linear visited list turns quadratic.
const (
	otreeElements = 256
	otreeBytes    = 4096
)

func newOTree(w *workload, sz sizes) program {
	g := rng(sz.seed)
	o := &otree{k: int64(w.opsPerCall), sizes: make([]int32, otreeElements), bytes: make([]byte, otreeBytes)}
	for i := range o.sizes {
		o.sizes[i] = 1
	}
	for i := otreeElements; i < otreeBytes; i++ {
		o.sizes[g.Intn(otreeElements)]++
	}
	g.Read(o.bytes)
	return o
}

// wantChecksum mirrors the managed checksum method.
func (o *otree) wantChecksum() int64 {
	var sum int64
	for pos, b := range o.bytes {
		if pos > 0 {
			sum += int64(b) * int64(pos%251+1)
		}
	}
	return sum
}

func (o *otree) setup(r *motor.Rank) (err error) {
	for name, m := range map[string]*method{"client": &o.client, "server": &o.server, "count": &o.count, "checksum": &o.checksum} {
		if *m, err = bind(r, name); err != nil {
			return err
		}
	}
	if r.ID() != 0 {
		return nil
	}
	build, err := bind(r, "build")
	if err != nil {
		return err
	}
	sizes, err := r.NewInt32Array(o.sizes)
	if err != nil {
		return err
	}
	defer r.Protect(&sizes)()
	bytes, err := r.NewUint8Array(o.bytes)
	if err != nil {
		return err
	}
	_, err = build(rv(sizes), rv(bytes))
	return err
}

func (o *otree) batch(r *motor.Rank, call int64) (int64, error) {
	o.ran = true
	if r.ID() != 0 {
		_, err := o.server(iv(o.k))
		return 0, err
	}
	bad, err := o.client(iv(call*o.k), iv(o.k))
	return int64(bad.Bits), err
}

func (o *otree) check(r *motor.Rank) error {
	if !o.ran {
		return nil
	}
	n, err := o.count()
	if err != nil {
		return err
	}
	if int64(n.Bits) != otreeElements {
		return fmt.Errorf("otree: received list has %d cells, want %d", int64(n.Bits), otreeElements)
	}
	sum, err := o.checksum()
	if err != nil {
		return err
	}
	if want := o.wantChecksum(); int64(sum.Bits) != want {
		return fmt.Errorf("otree: received payload checksum %d, want %d", int64(sum.Bits), want)
	}
	return nil
}

// probe runs the round trip with the layers taken apart: the
// serializer and deserializer of internal/serial called directly on
// the workload's list, and the resulting stream moved with plain
// mp.Send/Recv. It shows how much of an op is the serializer and how
// much the transport.
func (o *otree) probe(r *motor.Rank, rec *recorder) (map[string]float64, error) {
	const rounds, tag = 50, 13
	v, comm, peer := r.VM(), r.Engine().Comm, 1-r.ID()
	opts := serial.Options{Visited: serial.VisitedLinear} // motor.Config's default
	var stream []byte
	var err error
	ser := func(global string) error {
		// Read the root from its global every time: globals are GC
		// roots, a copy held here across the deserializer's
		// allocations would not be.
		i, ok := v.GlobalIndex(global)
		if !ok {
			return fmt.Errorf("otree: module has no global %q", global)
		}
		stream, err = serial.SerializeStream(v.Heap, v.GetGlobal(i).Ref(), opts, stream[:0])
		return err
	}
	deser := func() error {
		root, err := serial.DeserializeStream(v, stream)
		if err != nil {
			return err
		}
		i, _ := v.GlobalIndex("last")
		v.SetGlobal(i, rv(root))
		return nil
	}
	// timed runs one phase under a span and returns how long it took.
	timed := func(name string, op int, f func() error) (time.Duration, error) {
		id := rec.begin(name, int64(op))
		t0 := time.Now()
		err := f()
		dt := time.Since(t0)
		rec.end(id)
		return dt, err
	}
	send := func() error { return comm.Send(stream, peer, tag) }
	if r.ID() != 0 {
		stream = make([]byte, 0, 1<<16)
		var busy time.Duration // this rank's time in the serializer
		for i := 0; i < rounds; i++ {
			st, err := comm.Probe(peer, tag)
			if err != nil {
				return nil, err
			}
			stream = stream[:st.Count]
			if _, err := comm.Recv(stream, peer, tag); err != nil {
				return nil, err
			}
			t0 := time.Now()
			if err := deser(); err != nil {
				return nil, err
			}
			if err := ser("last"); err != nil {
				return nil, err
			}
			busy += time.Since(t0)
			if err := send(); err != nil {
				return nil, err
			}
		}
		report := binary.LittleEndian.AppendUint64(nil, uint64(busy))
		return nil, comm.Send(report, peer, tag)
	}
	var serNs, deserNs []float64
	var busy, trips time.Duration
	for i := 0; i < rounds; i++ {
		op := rec.begin("otree:roundtrip", int64(i))
		t0 := time.Now()
		s, err := timed("otree:serialize", i, func() error { return ser("head") })
		if err != nil {
			return nil, err
		}
		if _, err := timed("otree:send", i, send); err != nil {
			return nil, err
		}
		if _, err := timed("otree:receive", i, func() error { _, err := comm.Recv(stream, peer, tag); return err }); err != nil {
			return nil, err
		}
		d, err := timed("otree:deserialize", i, deser)
		if err != nil {
			return nil, err
		}
		rec.end(op)
		trips += time.Since(t0)
		busy += s + d
		serNs, deserNs = append(serNs, float64(s.Nanoseconds())), append(deserNs, float64(d.Nanoseconds()))
	}
	report := make([]byte, 8)
	if _, err := comm.Recv(report, peer, tag); err != nil {
		return nil, err
	}
	busy += time.Duration(binary.LittleEndian.Uint64(report))
	const objects = 2 * otreeElements
	return map[string]float64{
		"serial.ser_ns_per_obj":   median(serNs) / objects,
		"serial.deser_ns_per_obj": median(deserNs) / objects,
		"serial.bytes_per_obj":    float64(len(stream)) / objects,
		// Both ranks' time inside the serializer over the time the round
		// trips took: the rest is transport and waiting.
		"otree.serial_frac": float64(busy) / float64(trips),
	}, nil
}
