// Package baseline_test exercises the managed-wrapper bindings
// against each other and the native floor.
package baseline_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"motor/internal/baseline/jni"
	"motor/internal/baseline/native"
	"motor/internal/baseline/pinvoke"
	"motor/internal/mp"
	"motor/internal/vm"
)

func newVM(t testing.TB, name string) *vm.VM {
	return closing(t, vm.New(vm.Config{Name: name, Heap: vm.HeapConfig{YoungSize: 64 << 10, InitialElder: 512 << 10, ArenaMax: 64 << 20}}))
}

// closing releases v's arena when the test ends, once every rank has
// reported (left reserved if it failed: a rank may still be running).
func closing(t testing.TB, v *vm.VM) *vm.VM {
	t.Cleanup(func() {
		if !t.Failed() {
			v.Close()
		}
	})
	return v
}

func runPair(t *testing.T, body func(w *mp.World) error) {
	t.Helper()
	worlds, err := mp.NewLocalWorlds(mp.ChannelShm, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	for _, w := range worlds {
		go func(w *mp.World) {
			defer w.Close()
			errc <- body(w)
		}(w)
	}
	deadline := time.After(20 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("deadlock")
		}
	}
}

func TestPInvokePingPong(t *testing.T) {
	for _, host := range []pinvoke.Host{pinvoke.HostSSCLI, pinvoke.HostNET} {
		host := host
		t.Run(host.String(), func(t *testing.T) {
			runPair(t, func(w *mp.World) error {
				var heapCfg vm.HeapConfig
				if host == pinvoke.HostSSCLI {
					heapCfg = vm.HeapConfig{YoungSize: 64 << 10, InitialElder: 512 << 10, ArenaMax: 64 << 20, PinMode: vm.PinLinearList}
				} else {
					heapCfg = vm.HeapConfig{YoungSize: 64 << 10, InitialElder: 512 << 10, ArenaMax: 64 << 20}
				}
				v := closing(t, vm.New(vm.Config{Name: fmt.Sprintf("r%d", w.Rank()), Heap: heapCfg}))
				b := pinvoke.New(v, w, host)
				th := v.StartThread("main")
				defer th.End()
				h := v.Heap
				arr, err := h.NewUint8Array(make([]byte, 64))
				if err != nil {
					return err
				}
				for iter := 0; iter < 10; iter++ {
					if w.Rank() == 0 {
						h.DataBytes(arr)[0] = byte(iter)
						if err := b.Send(th, arr, 1, 0); err != nil {
							return err
						}
						if _, err := b.Recv(th, arr, 1, 0); err != nil {
							return err
						}
						if h.DataBytes(arr)[0] != byte(iter)+1 {
							return fmt.Errorf("iter %d: got %d", iter, h.DataBytes(arr)[0])
						}
					} else {
						if _, err := b.Recv(th, arr, 0, 0); err != nil {
							return err
						}
						h.DataBytes(arr)[0]++
						if err := b.Send(th, arr, 0, 0); err != nil {
							return err
						}
					}
				}
				// The wrapper pins for EVERY operation (20 ops).
				if b.Stats.Pins != 20 {
					return fmt.Errorf("pins %d, want 20", b.Stats.Pins)
				}
				if h.Stats.Pins != h.Stats.Unpins {
					return fmt.Errorf("pin imbalance %d/%d", h.Stats.Pins, h.Stats.Unpins)
				}
				if b.Stats.Calls != 20 {
					return fmt.Errorf("crossings %d", b.Stats.Calls)
				}
				return nil
			})
		})
	}
}

func TestPInvokeRejectsNonSimple(t *testing.T) {
	runPair(t, func(w *mp.World) error {
		if w.Rank() != 0 {
			return nil
		}
		v := newVM(t, "r0")
		b := pinvoke.New(v, w, pinvoke.HostNET)
		th := v.StartThread("main")
		defer th.End()
		mt := v.MustNewClass("Holder", nil, []vm.FieldSpec{{Name: "r", Kind: vm.KindRef}})
		obj, _ := v.Heap.AllocClass(mt)
		if err := b.Send(th, obj, 1, 0); !errors.Is(err, pinvoke.ErrNotSimple) {
			return fmt.Errorf("non-array accepted: %v", err)
		}
		return nil
	})
}

func TestJNIPingPongCopies(t *testing.T) {
	runPair(t, func(w *mp.World) error {
		v := newVM(t, fmt.Sprintf("r%d", w.Rank()))
		b := jni.New(v, w)
		th := v.StartThread("main")
		defer th.End()
		h := v.Heap
		const size = 128
		arr, err := h.NewUint8Array(make([]byte, size))
		if err != nil {
			return err
		}
		const iters = 5
		for iter := 0; iter < iters; iter++ {
			if w.Rank() == 0 {
				h.DataBytes(arr)[3] = byte(iter * 3)
				if err := b.Send(th, arr, 1, 0); err != nil {
					return err
				}
				if _, err := b.Recv(th, arr, 1, 0); err != nil {
					return err
				}
				if h.DataBytes(arr)[3] != byte(iter*3)+1 {
					return fmt.Errorf("iter %d corrupted", iter)
				}
			} else {
				if _, err := b.Recv(th, arr, 0, 0); err != nil {
					return err
				}
				h.DataBytes(arr)[3]++
				if err := b.Send(th, arr, 0, 0); err != nil {
					return err
				}
			}
		}
		// Copy-in/copy-out semantics: every op staged the full array.
		if b.Stats.CopiedBytes != uint64(2*iters*size) {
			return fmt.Errorf("copied %d bytes, want %d", b.Stats.CopiedBytes, 2*iters*size)
		}
		if b.Stats.LocalRefs == 0 || b.Stats.Calls == 0 {
			return fmt.Errorf("JNI bookkeeping missing: %+v", b.Stats)
		}
		return nil
	})
}

func TestNativePingPong(t *testing.T) {
	runPair(t, func(w *mp.World) error {
		r := native.New(w)
		r.SetBuffer(32)
		for iter := 0; iter < 10; iter++ {
			if w.Rank() == 0 {
				r.Buffer()[0] = byte(iter)
				if err := r.Send(1, 0); err != nil {
					return err
				}
				if _, err := r.Recv(1, 0); err != nil {
					return err
				}
				if r.Buffer()[0] != byte(iter)+1 {
					return fmt.Errorf("iter %d", iter)
				}
			} else {
				if _, err := r.Recv(0, 0); err != nil {
					return err
				}
				r.Buffer()[0]++
				if err := r.Send(0, 0); err != nil {
					return err
				}
			}
		}
		return r.Barrier()
	})
}
