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
