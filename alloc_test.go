//go:build !race

package motor_test

import (
	"fmt"
	"os"
	"testing"

	"motor"
)

// TestAllocsManagedPingPong: the managed 8 B ping-pong of the pp-small
// workload (benchmark/workloads/pp.masm, K = 64 round trips per
// Rank.Call) allocates at most 0.05 times per message op (one mp.send
// or mp.recv FCall; a round trip is four, two per rank, and
// AllocsPerRun counts both ranks): FCall arguments, rooting, buffer
// descriptors and requests all stay off the Go heap. Excluded under
// -race, whose instrumentation allocates on its own.
func TestAllocsManagedPingPong(t *testing.T) {
	src, err := os.ReadFile("benchmark/workloads/pp.masm")
	if err != nil {
		t.Fatal(err)
	}
	const (
		k    = 64
		runs = 100
		warm = 20
	)
	var perOp float64
	run(t, motor.Config{Ranks: 2}, func(r *motor.Rank) error {
		if _, err := r.Load(string(src)); err != nil {
			return err
		}
		name := "server"
		args := []motor.Value{{Bits: 2}, {Bits: 1}, {Bits: k}}
		if r.ID() == 0 {
			name = "client"
			args = []motor.Value{{Bits: 2}, {Bits: 1}, {Bits: 1}, {Bits: k}}
		}
		m, ok := r.VM().MethodByName(name)
		if !ok {
			return fmt.Errorf("pp.masm has no method %q", name)
		}
		var callErr error
		call := func() {
			bad, err := r.Call(m, args...)
			if err == nil && bad.Bits != 0 {
				err = fmt.Errorf("%s: %d round trips failed their check", name, bad.Bits)
			}
			if err != nil && callErr == nil {
				callErr = err
			}
		}
		for i := 0; i < warm; i++ {
			call()
		}
		if r.ID() == 1 {
			for i := 0; i <= runs; i++ { // AllocsPerRun calls f once more to warm up
				call()
			}
			return callErr
		}
		perOp = testing.AllocsPerRun(runs, call) / (4 * k)
		return callErr
	})
	t.Logf("managed pp, K=%d: %.3f allocs per message op", k, perOp)
	if perOp > 0.05 {
		t.Fatalf("managed 8 B message op allocates %.3f times, want <= 0.05", perOp)
	}
}

// TestAllocsManagedOTree: an otree round trip (benchmark/workloads/
// otree.masm: the client osends a linked list of Cells, the server
// orecvs it and osends the copy back, K round trips per Rank.Call)
// allocates as few times at 256 cells as at 2, and at most twice.
// Writer and reader state come from the engine's free lists, so
// nothing grows with the object count; neither does the collector's
// own state, although 256 cells fill the nursery sooner, and unexpected
// eager payloads land in recycled buffers. AllocsPerRun counts both
// ranks; -race is excluded as above.
func TestAllocsManagedOTree(t *testing.T) {
	src, err := os.ReadFile("benchmark/workloads/otree.masm")
	if err != nil {
		t.Fatal(err)
	}
	const (
		k    = 8
		runs = 50
		warm = 10
	)
	perRT := map[int]float64{}
	for _, cells := range []int{2, 256} {
		run(t, motor.Config{Ranks: 2}, func(r *motor.Rank) error {
			if _, err := r.Load(string(src)); err != nil {
				return err
			}
			name, args := "server", []motor.Value{{Bits: k}}
			if r.ID() == 0 {
				sizes := make([]int32, cells)
				for i := range sizes {
					sizes[i] = 16
				}
				sizesRef, err := r.NewInt32Array(sizes)
				if err != nil {
					return err
				}
				defer r.Protect(&sizesRef)()
				payload, err := r.NewUint8Array(make([]byte, 16*cells))
				if err != nil {
					return err
				}
				build, ok := r.VM().MethodByName("build")
				if !ok {
					return fmt.Errorf("otree.masm has no method build")
				}
				if _, err := r.Call(build, motor.Value{Bits: uint64(sizesRef), IsRef: true}, motor.Value{Bits: uint64(payload), IsRef: true}); err != nil {
					return err
				}
				name, args = "client", []motor.Value{{Bits: 1}, {Bits: k}}
			}
			m, ok := r.VM().MethodByName(name)
			if !ok {
				return fmt.Errorf("otree.masm has no method %q", name)
			}
			var callErr error
			call := func() {
				bad, err := r.Call(m, args...)
				if err == nil && bad.Bits != 0 {
					err = fmt.Errorf("%s: %d round trips failed their check", name, bad.Bits)
				}
				if err != nil && callErr == nil {
					callErr = err
				}
			}
			for i := 0; i < warm; i++ {
				call()
			}
			if r.ID() == 1 {
				for i := 0; i <= runs; i++ { // AllocsPerRun calls f once more to warm up
					call()
				}
				return callErr
			}
			perRT[cells] = testing.AllocsPerRun(runs, call) / k
			return callErr
		})
	}
	t.Logf("otree round trip: %.2f allocs at 2 cells, %.2f at 256", perRT[2], perRT[256])
	if perRT[256] > perRT[2] || perRT[256] > 2 || perRT[2] > 2 {
		t.Fatalf("otree round trip allocates %.2f times at 2 cells and %.2f at 256, want the same count and <= 2", perRT[2], perRT[256])
	}
}
