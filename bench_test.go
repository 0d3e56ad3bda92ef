// Benchmarks regenerating the paper's evaluation (one per figure)
// plus the DESIGN.md ablations. The full sweeps with the paper's
// exact protocol are produced by cmd/benchfig; these testing.B
// entries cover representative points of each series so `go test
// -bench=.` exercises every implementation.
//
// Round-trip implementations involve two coordinated ranks, so each
// sub-benchmark drives the shared harness for exactly b.N timed
// iterations and reports the per-round-trip time as the custom metric
// ns/roundtrip (the wall-clock ns/op additionally includes world
// setup).
package motor_test

import (
	"fmt"
	"testing"

	"motor/internal/baseline/cliser"
	"motor/internal/baseline/javaser"
	"motor/internal/baseline/pinvoke"
	"motor/internal/bench"
	"motor/internal/serial"
	"motor/internal/vm"
)

func reportPing(b *testing.B, impl bench.PingImpl, size int) {
	b.Helper()
	us, err := bench.RunPingN(impl, size, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(us*1000, "ns/roundtrip")
	b.ReportMetric(0, "ns/op")
}

func reportObj(b *testing.B, impl bench.ObjImpl, objects int) {
	b.Helper()
	us, err := bench.RunObjN(impl, objects, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(us*1000, "ns/roundtrip")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkFigure9 is the regular-operations ping-pong of §8 at
// representative buffer sizes (full sweep: cmd/benchfig -fig 9).
func BenchmarkFigure9(b *testing.B) {
	sizes := []int{64, 4096, 65536, 262144}
	for _, impl := range bench.Fig9Impls() {
		for _, size := range sizes {
			impl, size := impl, size
			b.Run(fmt.Sprintf("%s/%dB", impl.Name, size), func(b *testing.B) {
				reportPing(b, impl, size)
			})
		}
	}
}

// BenchmarkFigure10 is the object-transport ping-pong of §8 at
// representative object counts (full sweep: cmd/benchfig -fig 10).
// mpiJava is benchmarked only below its stack-overflow point, exactly
// as its line ends in the paper's figure.
func BenchmarkFigure10(b *testing.B) {
	counts := []int{16, 256, 1024}
	for _, impl := range bench.Fig10Impls() {
		for _, n := range counts {
			impl, n := impl, n
			b.Run(fmt.Sprintf("%s/%dobjs", impl.Name, n), func(b *testing.B) {
				reportObj(b, impl, n)
			})
		}
	}
}

// BenchmarkAblationPinPolicy (A1) isolates the paper's pinning policy
// against wrapper-style always-pin on otherwise identical Motor
// stacks.
func BenchmarkAblationPinPolicy(b *testing.B) {
	for _, impl := range []bench.PingImpl{bench.MotorImpl(), bench.MotorAlwaysPinImpl()} {
		impl := impl
		b.Run(impl.Name, func(b *testing.B) {
			reportPing(b, impl, 4096)
		})
	}
}

// BenchmarkAblationVisited (A2) measures the serializer alone with
// the paper's linear visited list vs the hashed set it names as
// future work — the cause of Motor's large-count degradation in
// Figure 10.
func BenchmarkAblationVisited(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    serial.VisitedMode
	}{{"linear", serial.VisitedLinear}, {"map", serial.VisitedMap}} {
		for _, elements := range []int{64, 512, 4096} {
			mode, elements := mode, elements
			b.Run(fmt.Sprintf("%s/%delems", mode.name, elements), func(b *testing.B) {
				v := vm.New(vm.Config{Heap: vm.HeapConfig{YoungSize: 4 << 20, InitialElder: 32 << 20, ArenaMax: 512 << 20}})
				defer v.Close()
				head := buildBenchList(v, elements)
				var buf []byte
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					buf, err = serial.SerializeStream(v.Heap, head, serial.Options{Visited: mode.m}, buf[:0])
					if err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(len(buf)))
			})
		}
	}
}

// BenchmarkAblationCallPath (A3) compares the bare crossing costs:
// the FCall dispatch of the integrated design against the
// P/Invoke-style marshal+demand and the JNI-style function-table +
// local-reference bookkeeping of the wrapper designs.
func BenchmarkAblationCallPath(b *testing.B) {
	b.Run("FCall", func(b *testing.B) {
		v := vm.New(vm.Config{})
		defer v.Close()
		idx := v.RegisterInternal(vm.InternalFunc{
			Name: "bench.nop", NArgs: 2, HasRet: true,
			Fn: func(t *vm.Thread, a []vm.Value) (vm.Value, error) { return a[0], nil },
		})
		m := v.AddMethod(nil, vm.NewCodeBuilder().
			LdArg(0).LdArg(1).Intern(idx).RetVal().
			Build("call", 2, 0, true))
		th := v.StartThread("bench")
		defer th.End()
		args := []vm.Value{vm.IntValue(1), vm.IntValue(2)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := th.Call(m, args...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PInvoke/SSCLI", func(b *testing.B) { benchCrossing(b, pinvoke.HostSSCLI) })
	b.Run("PInvoke/NET", func(b *testing.B) { benchCrossing(b, pinvoke.HostNET) })
}

// BenchmarkAblationPinMechanism (A4) measures pin/unpin through the
// two bookkeeping structures (the paper's footnote 4: pin cost varies
// strongly with the runtime build).
func BenchmarkAblationPinMechanism(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    vm.PinMode
	}{{"handle-table", vm.PinHandleTable}, {"linear-list", vm.PinLinearList}} {
		for _, live := range []int{1, 64, 512} {
			mode, live := mode, live
			b.Run(fmt.Sprintf("%s/%dlive", mode.name, live), func(b *testing.B) {
				v := vm.New(vm.Config{Heap: vm.HeapConfig{PinMode: mode.m}})
				defer v.Close()
				refs := make([]vm.Ref, live)
				for i := range refs {
					r, err := v.Heap.NewInt32Array([]int32{int32(i)})
					if err != nil {
						b.Fatal(err)
					}
					refs[i] = r
					v.Heap.Pin(r)
				}
				target := refs[live/2]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v.Heap.Pin(target)
					v.Heap.Unpin(target)
				}
			})
		}
	}
}

// buildBenchList constructs the Figure 10 list shape for serializer
// benchmarks.
func buildBenchList(v *vm.VM, elements int) vm.Ref {
	mt, err := v.DeclareClass("Cell")
	if err != nil {
		panic(err)
	}
	u8arr := v.ArrayType(vm.KindUint8, nil, 1)
	if err := v.CompleteClass(mt, nil, []vm.FieldSpec{
		{Name: "data", Kind: vm.KindRef, Type: u8arr, Transportable: true},
		{Name: "next", Kind: vm.KindRef, Type: mt, Transportable: true},
	}); err != nil {
		panic(err)
	}
	per := 4096 / elements
	if per < 1 {
		per = 1
	}
	guard := &vm.RefRoots{Refs: make([]vm.Ref, 2)}
	v.AddRootProvider(guard)
	fData, fNext := mt.FieldByName("data"), mt.FieldByName("next")
	for i := 0; i < elements; i++ {
		node, err := v.Heap.AllocClass(mt)
		if err != nil {
			panic(err)
		}
		guard.Refs[1] = node
		arr, err := v.Heap.AllocArray(u8arr, per)
		if err != nil {
			panic(err)
		}
		node = guard.Refs[1]
		v.Heap.SetRef(node, fData, arr)
		v.Heap.SetRef(node, fNext, guard.Refs[0])
		guard.Refs[0] = node
	}
	// The guard stays registered: the benchmark needs the list alive.
	return guard.Refs[0]
}

// benchCrossing measures the P/Invoke-style marshal+demand alone.
func benchCrossing(b *testing.B, host pinvoke.Host) {
	us, err := bench.RunPingN(bench.IndianaImpl(host), 4, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(us*1000, "ns/roundtrip")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkSerializers compares the three serialization mechanisms of
// Figure 10 head-to-head without transport (Motor custom vs CLI
// BinaryFormatter profiles vs Java ObjectOutputStream).
func BenchmarkSerializers(b *testing.B) {
	const elements = 256
	run := func(name string, ser func(v *vm.VM, head vm.Ref) (int, error)) {
		b.Run(name, func(b *testing.B) {
			v := vm.New(vm.Config{Heap: vm.HeapConfig{YoungSize: 4 << 20, InitialElder: 32 << 20, ArenaMax: 512 << 20}})
			defer v.Close()
			head := buildBenchList(v, elements)
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				n, err = ser(v, head)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(n))
		})
	}
	run("Motor", func(v *vm.VM, head vm.Ref) (int, error) {
		data, err := serial.SerializeStream(v.Heap, head, serial.Options{}, nil)
		return len(data), err
	})
	run("CLI/SSCLI", func(v *vm.VM, head vm.Ref) (int, error) {
		data, err := cliser.Serialize(v.Heap, head, cliser.ProfileSSCLI)
		return len(data), err
	})
	run("CLI/NET", func(v *vm.VM, head vm.Ref) (int, error) {
		data, err := cliser.Serialize(v.Heap, head, cliser.ProfileNET)
		return len(data), err
	})
	run("Java", func(v *vm.VM, head vm.Ref) (int, error) {
		data, err := javaser.Serialize(v.Heap, head)
		return len(data), err
	})
}
