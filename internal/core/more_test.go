package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"motor/internal/mp"
	"motor/internal/vm"
)

// runRanksKind is runRanks with a channel choice.
func runRanksKind(t *testing.T, kind mp.ChannelKind, n int, opts []Option, body func(r *rank) error) {
	t.Helper()
	worlds, err := mp.NewLocalWorlds(kind, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, n)
	vms := make([]*vm.VM, n)
	for i := 0; i < n; i++ {
		go func(w *mp.World) {
			v := vm.New(vm.Config{
				Name: fmt.Sprintf("rank%d", w.Rank()),
				Heap: vm.HeapConfig{YoungSize: 64 << 10, InitialElder: 512 << 10, ArenaMax: 64 << 20},
			})
			vms[w.Rank()] = v
			e := Attach(v, w, opts...)
			th := v.StartThread("main")
			defer th.End()
			defer w.Close()
			errc <- body(&rank{v: v, e: e, th: th})
		}(worlds[i])
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("ranks deadlocked")
		}
	}
	closeVMs(vms)
}

func TestEngineOverSockChannel(t *testing.T) {
	// The whole managed stack over real TCP loopback — the paper's
	// evaluation configuration.
	runRanksKind(t, mp.ChannelSock, 2, nil, func(r *rank) error {
		h := r.v.Heap
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			// Regular op with a rendezvous-size payload.
			big, _ := h.AllocArray(r.v.ArrayType(vm.KindUint8, nil, 1), 100<<10)
			h.DataBytes(big)[12345] = 0xCD
			if err := r.e.Send(r.th, big, 1, 0); err != nil {
				return err
			}
			// OO op.
			head := buildLinkedList(r.v, mt, 4, 8)
			return r.e.OSend(r.th, head, 1, 1)
		}
		big, _ := h.AllocArray(r.v.ArrayType(vm.KindUint8, nil, 1), 100<<10)
		st, err := r.e.Recv(r.th, big, 0, 0)
		if err != nil {
			return err
		}
		if st.Count != 100<<10 || h.DataBytes(big)[12345] != 0xCD {
			return fmt.Errorf("rendezvous payload corrupt (count %d)", st.Count)
		}
		head, _, err := r.e.ORecv(r.th, 0, 1)
		if err != nil {
			return err
		}
		return verifyList(h, mt, head, 4, 8, true)
	})
}

func TestORecvAnySource(t *testing.T) {
	runRanksKind(t, mp.ChannelShm, 3, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				head, st, err := r.e.ORecv(r.th, mp.AnySource, 4)
				if err != nil {
					return err
				}
				// The size and data messages must stay paired per
				// source; the list length encodes the sender.
				wantLen := st.Source
				if err := verifyList(r.v.Heap, mt, head, wantLen, 4, true); err != nil {
					return fmt.Errorf("from %d: %w", st.Source, err)
				}
				seen[st.Source] = true
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("sources %v", seen)
			}
			return nil
		}
		head := buildLinkedList(r.v, mt, r.e.Comm.Rank(), 4)
		return r.e.OSend(r.th, head, 0, 4)
	})
}

func TestFCallErrorsPropagateToManagedCaller(t *testing.T) {
	// A managed program that misuses System.MP gets the error through
	// Thread.Call, not a crash.
	const prog = `
.method main (0) void
  ldc.i4 4  newarr int32
  ldc.i4 9  ldc.i4 0
  intern mp.send
  ret
.end
`
	runRanks(t, 2, nil, func(r *rank) error {
		main, err := r.v.Assemble(prog)
		if err != nil {
			return err
		}
		_, err = r.th.Call(main)
		if err == nil {
			return errors.New("send to rank 9 of 2 succeeded")
		}
		if !strings.Contains(err.Error(), "mp.send") {
			return fmt.Errorf("error lacks FCall context: %v", err)
		}
		return nil
	})
}

func TestEnginePolicyAlwaysPinNonBlocking(t *testing.T) {
	// With PolicyAlwaysPin, Isend/Irecv pin eagerly and Wait unpins;
	// pin counts must balance and no conditional requests appear.
	runRanks(t, 2, []Option{WithPolicy(PolicyAlwaysPin)}, func(r *rank) error {
		h := r.v.Heap
		if r.e.Comm.Rank() == 0 {
			msg, _ := h.NewInt32Array([]int32{5})
			id, err := r.e.Isend(r.th, msg, 1, 0)
			if err != nil {
				return err
			}
			if !h.Pinned(msg) {
				return errors.New("always-pin Isend did not pin")
			}
			if _, err := r.e.Wait(r.th, id); err != nil {
				return err
			}
			if h.Pinned(msg) {
				return errors.New("pin not released at Wait")
			}
			if r.e.Stats.CondPins != 0 {
				return errors.New("conditional pins under always-pin")
			}
			return nil
		}
		buf, _ := h.NewInt32Array(make([]int32, 1))
		_, err := r.e.Recv(r.th, buf, 0, 0)
		return err
	})
}

func TestOBcastOfNullFromRootFails(t *testing.T) {
	runRanks(t, 2, nil, func(r *rank) error {
		_, err := r.e.OBcast(r.th, vm.NullRef, 0)
		if r.e.Comm.Rank() == 0 {
			// Serializing null is legal (a null tree): receivers get null.
			if err != nil {
				return fmt.Errorf("root: %v", err)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("non-root: %v", err)
		}
		return nil
	})
}

func TestOGatherRejectsNonArray(t *testing.T) {
	runRanks(t, 2, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		node, _ := r.v.Heap.AllocClass(mt)
		_, err := r.e.OGather(r.th, node, 0)
		if !errors.Is(err, ErrNotArray) {
			return fmt.Errorf("non-array OGather: %v", err)
		}
		// Both ranks bail before communicating, so no cleanup needed.
		return nil
	})
}

func TestManagedGCDuringMPWorkload(t *testing.T) {
	// A managed program that allocates garbage while exchanging
	// messages: collections interleave with transport and nothing is
	// lost. This is the closest managed analogue of the paper's
	// deployment scenario.
	const prog = `
.method main (0) int32
  .locals 4
  ; locals: 0=buf 1=iter 2=rank 3=junk
  intern mp.rank  stloc 2
  ldc.i4 256  newarr int32  stloc 0
  ldc.i4 60  stloc 1
loop:
  ldloc 1  brfalse done
  ; churn: allocate a short-lived array every iteration
  ldc.i4 2048  newarr int64  stloc 3
  ldloc 2  brtrue receiver
  ldloc 0  ldc.i4 0  ldloc 1  stelem
  ldloc 0  ldc.i4 1  ldc.i4 7  intern mp.send
  ldloc 0  ldc.i4 1  ldc.i4 7  intern mp.recv  pop
  ldloc 0  ldc.i4 0  ldelem
  ldloc 1  ceq  brfalse fail
  br next
receiver:
  ldloc 0  ldc.i4 0  ldc.i4 7  intern mp.recv  pop
  ldloc 0  ldc.i4 0  ldc.i4 7  intern mp.send
next:
  ldloc 1  ldc.i4 1  sub  stloc 1
  br loop
done:
  intern gc.scavenges
  conv.f2i
  pop
  ldc.i4 0
  ret.val
fail:
  ldc.i4 1
  ret.val
.end
`
	runRanks(t, 2, nil, func(r *rank) error {
		main, err := r.v.Assemble(prog)
		if err != nil {
			return err
		}
		out, err := r.th.Call(main)
		if err != nil {
			return err
		}
		if out.Int() != 0 {
			return fmt.Errorf("rank %d failed", r.e.Comm.Rank())
		}
		if r.v.Heap.Stats.Scavenges == 0 {
			return errors.New("no collections during workload; test ineffective")
		}
		return nil
	})
}
