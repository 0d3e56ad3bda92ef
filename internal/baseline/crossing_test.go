package baseline_test

import (
	"errors"
	"fmt"
	"testing"

	"motor/internal/baseline/jni"
	"motor/internal/baseline/pinvoke"
	"motor/internal/mp"
	"motor/internal/vm"
)

// Direct unit tests of the wrapper crossing mechanics (the behaviour
// the Figure 9 gaps are attributed to).

func TestPInvokeCrossingAccounting(t *testing.T) {
	runPair(t, func(w *mp.World) error {
		v := newVM(t, fmt.Sprintf("r%d", w.Rank()))
		b := pinvoke.New(v, w, pinvoke.HostNET)
		th := v.StartThread("main")
		defer th.End()
		arr, _ := v.Heap.NewUint8Array(make([]byte, 16))
		if w.Rank() == 0 {
			if err := b.Send(th, arr, 1, 0); err != nil {
				return err
			}
		} else {
			if _, err := b.Recv(th, arr, 0, 0); err != nil {
				return err
			}
		}
		// One crossing: the CAS walk evaluated each demanded
		// permission on every frame of the call chain (3 frames × 2
		// demands), and every declared argument was marshalled.
		if b.Stats.Calls != 1 {
			return fmt.Errorf("calls %d", b.Stats.Calls)
		}
		if b.Stats.Demands != 6 {
			return fmt.Errorf("demand evaluations %d, want 6", b.Stats.Demands)
		}
		if b.Stats.MarshalledBytes == 0 {
			return fmt.Errorf("no marshalling recorded")
		}
		return nil
	})
}

func TestJNIBarrierAndStats(t *testing.T) {
	runPair(t, func(w *mp.World) error {
		v := newVM(t, fmt.Sprintf("r%d", w.Rank()))
		b := jni.New(v, w)
		th := v.StartThread("main")
		defer th.End()
		if err := b.Barrier(th); err != nil {
			return err
		}
		if b.Stats.Calls != 1 {
			return fmt.Errorf("calls %d", b.Stats.Calls)
		}
		// Barrier has no object arguments: no local references.
		if b.Stats.LocalRefs != 0 {
			return fmt.Errorf("local refs %d", b.Stats.LocalRefs)
		}
		return nil
	})
}

func TestJNIRejectsNullAndNonArray(t *testing.T) {
	runPair(t, func(w *mp.World) error {
		if w.Rank() != 0 {
			return nil
		}
		v := newVM(t, "r0")
		b := jni.New(v, w)
		th := v.StartThread("main")
		defer th.End()
		if err := b.Send(th, vm.NullRef, 1, 0); !errors.Is(err, jni.ErrNotArray) {
			return fmt.Errorf("null send: %v", err)
		}
		mt := v.MustNewClass("Obj", nil, nil)
		obj, _ := v.Heap.AllocClass(mt)
		if err := b.Send(th, obj, 1, 0); !errors.Is(err, jni.ErrNotArray) {
			return fmt.Errorf("class send: %v", err)
		}
		return nil
	})
}

func TestWrapperPinBalanceUnderGC(t *testing.T) {
	// Per-op pinning must stay balanced even when collections run
	// between operations.
	runPair(t, func(w *mp.World) error {
		v := newVM(t, fmt.Sprintf("r%d", w.Rank()))
		b := pinvoke.New(v, w, pinvoke.HostSSCLI)
		th := v.StartThread("main")
		defer th.End()
		h := v.Heap
		for i := 0; i < 10; i++ {
			arr, err := h.NewUint8Array(make([]byte, 256))
			if err != nil {
				return err
			}
			if w.Rank() == 0 {
				if err := b.Send(th, arr, 1, i); err != nil {
					return err
				}
			} else {
				if _, err := b.Recv(th, arr, 0, i); err != nil {
					return err
				}
			}
			th.CollectYoung()
		}
		if h.Stats.Pins != h.Stats.Unpins {
			return fmt.Errorf("pin imbalance %d/%d", h.Stats.Pins, h.Stats.Unpins)
		}
		if err := h.CheckInvariants(); err != nil {
			return err
		}
		return nil
	})
}
