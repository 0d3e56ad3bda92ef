package core

import (
	"errors"
	"fmt"
	"testing"

	"motor/internal/serial"
	"motor/internal/vm"
)

// buildLinkedList constructs the paper's Fig. 5 structure: n nodes,
// each holding an int32 payload array; next2 points at the head and
// must not travel.
func buildLinkedList(v *vm.VM, mt *vm.MethodTable, n, payloadLen int) vm.Ref {
	h := v.Heap
	fArr, fNext, fNext2, fID := mt.FieldByName("array"), mt.FieldByName("next"), mt.FieldByName("next2"), mt.FieldByName("id")
	guard := &vm.RefRoots{Refs: make([]vm.Ref, 2)} // [head, cur]
	slots := guard.Refs
	v.AddRootProvider(guard)
	defer v.RemoveRootProvider(guard)
	for i := n - 1; i >= 0; i-- {
		node, err := h.AllocClass(mt)
		if err != nil {
			panic(err)
		}
		slots[1] = node
		vals := make([]int32, payloadLen)
		for j := range vals {
			vals[j] = int32(i*100 + j)
		}
		arr, err := h.NewInt32Array(vals)
		if err != nil {
			panic(err)
		}
		node = slots[1]
		h.SetRef(node, fArr, arr)
		h.SetScalar(node, fID, uint64(uint32(int32(i))))
		if slots[0] != vm.NullRef {
			h.SetRef(node, fNext, slots[0])
		}
		slots[0] = node
	}
	// next2 back-references (must not travel).
	head := slots[0]
	for cur := head; cur != vm.NullRef; cur = h.GetRef(cur, fNext) {
		h.SetRef(cur, fNext2, head)
	}
	return slots[0]
}

// verifyList checks a LinkedArray list's structure. wantNext2Null is
// true for received copies (the non-Transportable next2 must have
// been dropped) and false for locally built originals.
func verifyList(h *vm.Heap, mt *vm.MethodTable, head vm.Ref, n, payloadLen int, wantNext2Null bool) error {
	fArr, fNext, fNext2, fID := mt.FieldByName("array"), mt.FieldByName("next"), mt.FieldByName("next2"), mt.FieldByName("id")
	count := 0
	for cur := head; cur != vm.NullRef; cur = h.GetRef(cur, fNext) {
		if got := int32(uint32(h.GetScalar(cur, fID))); got != int32(count) {
			return fmt.Errorf("node %d id %d", count, got)
		}
		if wantNext2Null && h.GetRef(cur, fNext2) != vm.NullRef {
			return fmt.Errorf("node %d: non-Transportable next2 travelled", count)
		}
		arr := h.GetRef(cur, fArr)
		if arr == vm.NullRef {
			return fmt.Errorf("node %d: array missing", count)
		}
		vals := h.Int32Slice(arr)
		if len(vals) != payloadLen {
			return fmt.Errorf("node %d: payload %d elems", count, len(vals))
		}
		for j, val := range vals {
			if val != int32(count*100+j) {
				return fmt.Errorf("node %d payload[%d] = %d", count, j, val)
			}
		}
		count++
	}
	if count != n {
		return fmt.Errorf("list length %d, want %d", count, n)
	}
	return nil
}

func TestOSendORecvLinkedList(t *testing.T) {
	runRanks(t, 2, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			head := buildLinkedList(r.v, mt, 8, 16)
			if err := r.e.OSend(r.th, head, 1, 0); err != nil {
				return err
			}
			if r.e.Stats.OOSends != 1 {
				return fmt.Errorf("OOSends %d", r.e.Stats.OOSends)
			}
			return nil
		}
		head, st, err := r.e.ORecv(r.th, 0, 0)
		if err != nil {
			return err
		}
		if st.Source != 0 {
			return fmt.Errorf("source %d", st.Source)
		}
		return verifyList(r.v.Heap, mt, head, 8, 16, true)
	})
}

func TestOSendSingleObjectNullsReferences(t *testing.T) {
	// Default single-object behaviour: simple data travels, non-
	// Transportable refs become null (§4.2.2). Transportable refs DO
	// travel — the LinkedArray list follows next.
	runRanks(t, 2, nil, func(r *rank) error {
		mt := r.v.MustNewClass("Mixed", nil, []vm.FieldSpec{
			{Name: "kept", Kind: vm.KindRef, Transportable: true},
			{Name: "dropped", Kind: vm.KindRef},
			{Name: "v", Kind: vm.KindInt64},
		})
		h := r.v.Heap
		if r.e.Comm.Rank() == 0 {
			obj, _ := h.AllocClass(mt)
			pop := r.th.VM().Protect(&obj)
			keep, _ := h.NewInt32Array([]int32{5})
			h.SetRef(obj, mt.FieldByName("kept"), keep)
			drop, _ := h.NewInt32Array([]int32{6})
			h.SetRef(obj, mt.FieldByName("dropped"), drop)
			h.SetScalar(obj, mt.FieldByName("v"), 77)
			pop()
			return r.e.OSend(r.th, obj, 1, 0)
		}
		obj, _, err := r.e.ORecv(r.th, 0, 0)
		if err != nil {
			return err
		}
		if h.GetScalar(obj, mt.FieldByName("v")) != 77 {
			return errors.New("scalar lost")
		}
		kept := h.GetRef(obj, mt.FieldByName("kept"))
		if kept == vm.NullRef || h.Int32Slice(kept)[0] != 5 {
			return errors.New("transportable ref lost")
		}
		if h.GetRef(obj, mt.FieldByName("dropped")) != vm.NullRef {
			return errors.New("non-transportable ref travelled")
		}
		return nil
	})
}

func TestOBcast(t *testing.T) {
	runRanks(t, 4, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		var obj vm.Ref
		if r.e.Comm.Rank() == 1 {
			obj = buildLinkedList(r.v, mt, 5, 4)
		}
		out, err := r.e.OBcast(r.th, obj, 1)
		if err != nil {
			return err
		}
		// The root gets its original back (next2 intact); the others
		// get reconstructed copies with next2 dropped.
		return verifyList(r.v.Heap, mt, out, 5, 4, r.e.Comm.Rank() != 1)
	})
}

func TestOScatterOGather(t *testing.T) {
	const n = 4
	runRanks(t, n, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		h := r.v.Heap
		c := r.e.Comm
		arrT := r.v.ArrayType(vm.KindRef, mt, 1)
		fID := mt.FieldByName("id")

		var arr vm.Ref
		if c.Rank() == 0 {
			// 10 nodes: ranks get 3,3,2,2.
			guard := &vm.RefRoots{Refs: []vm.Ref{vm.NullRef}}
			slot := guard.Refs
			r.v.AddRootProvider(guard)
			a, _ := h.AllocArray(arrT, 10)
			slot[0] = a
			for i := 0; i < 10; i++ {
				node, err := h.AllocClass(mt)
				if err != nil {
					return err
				}
				h.SetScalar(node, fID, uint64(uint32(int32(i))))
				h.SetElemRef(slot[0], i, node)
			}
			arr = slot[0]
			r.v.RemoveRootProvider(guard)
		}
		sub, err := r.e.OScatter(r.th, arr, 0)
		if err != nil {
			return err
		}
		lo, hi := serial.PartRange(10, n, c.Rank())
		if h.Length(sub) != hi-lo {
			return fmt.Errorf("rank %d sub length %d, want %d", c.Rank(), h.Length(sub), hi-lo)
		}
		for i := 0; i < hi-lo; i++ {
			node := h.GetElemRef(sub, i)
			if got := int32(uint32(h.GetScalar(node, fID))); got != int32(lo+i) {
				return fmt.Errorf("rank %d elem %d id %d, want %d", c.Rank(), i, got, lo+i)
			}
			// Transform for the gather leg.
			h.SetScalar(node, fID, uint64(uint32(int32(lo+i)+1000)))
		}
		whole, err := r.e.OGather(r.th, sub, 0)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if whole != vm.NullRef {
				return errors.New("non-root got a gather result")
			}
			return nil
		}
		if h.Length(whole) != 10 {
			return fmt.Errorf("gathered length %d", h.Length(whole))
		}
		for i := 0; i < 10; i++ {
			node := h.GetElemRef(whole, i)
			if got := int32(uint32(h.GetScalar(node, fID))); got != int32(i+1000) {
				return fmt.Errorf("gathered elem %d id %d", i, got)
			}
		}
		return nil
	})
}

func TestOOBufferStackReuseAndAging(t *testing.T) {
	runRanks(t, 2, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			for i := 0; i < 5; i++ {
				head := buildLinkedList(r.v, mt, 3, 4)
				if err := r.e.OSend(r.th, head, 1, i); err != nil {
					return err
				}
			}
			if r.e.Stats.BufferReuses == 0 {
				return fmt.Errorf("no buffer reuse: %+v", r.e.Stats)
			}
			if r.e.PooledBuffers() == 0 {
				return errors.New("no pooled buffers")
			}
			// Two collections with no OO traffic: pooled buffers are
			// "unused since the last garbage collection" and must be
			// released (§7.5).
			r.th.CollectYoung()
			r.th.CollectYoung()
			if r.e.PooledBuffers() != 0 {
				return fmt.Errorf("%d stale buffers survived aging", r.e.PooledBuffers())
			}
			if r.e.Stats.BuffersCollected == 0 {
				return errors.New("BuffersCollected not counted")
			}
			return nil
		}
		for i := 0; i < 5; i++ {
			if _, _, err := r.e.ORecv(r.th, 0, i); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestOOOpsNeverPin(t *testing.T) {
	// "The Motor extended object oriented operations do not need to
	// pin memory" (§7.4): the serializer's native buffers make pins
	// unnecessary.
	runRanks(t, 2, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		h := r.v.Heap
		if r.e.Comm.Rank() == 0 {
			head := buildLinkedList(r.v, mt, 6, 8)
			if err := r.e.OSend(r.th, head, 1, 0); err != nil {
				return err
			}
		} else {
			if _, _, err := r.e.ORecv(r.th, 0, 0); err != nil {
				return err
			}
		}
		if h.Stats.Pins != 0 {
			return fmt.Errorf("OO op pinned %d times", h.Stats.Pins)
		}
		if h.CondPinCount() != 0 {
			return errors.New("OO op registered conditional pins")
		}
		return nil
	})
}

// TestManagedPingPongMasm runs the full stack the way the paper's C#
// benchmark does: managed bytecode programs on two VMs exchanging
// messages through the System.MP FCalls.
func TestManagedPingPongMasm(t *testing.T) {
	const prog = `
.method main (0) int32
  .locals 4
  ; locals: 0=buf 1=iter 2=rank 3=count
  intern mp.rank
  stloc 2
  ldc.i4 64
  newarr int32
  stloc 0
  ldc.i4 10
  stloc 1
loop:
  ldloc 1  brfalse done
  ldloc 2  brtrue receiver
  ; rank 0: fill buf[0] with iter, send, recv back, check increment
  ldloc 0  ldc.i4 0  ldloc 1  stelem
  ldloc 0  ldc.i4 1  ldc.i4 7  intern mp.send
  ldloc 0  ldc.i4 1  ldc.i4 7  intern mp.recv  stloc 3
  ldloc 0  ldc.i4 0  ldelem
  ldloc 1  ldc.i4 1  add
  ceq
  brfalse fail
  br next
receiver:
  ldloc 0  ldc.i4 0  ldc.i4 7  intern mp.recv  stloc 3
  ldloc 0  ldc.i4 0
  ldloc 0  ldc.i4 0  ldelem  ldc.i4 1  add
  stelem
  ldloc 0  ldc.i4 0  ldc.i4 7  intern mp.send
next:
  ldloc 1  ldc.i4 1  sub  stloc 1
  br loop
done:
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
			return fmt.Errorf("managed program failed on rank %d", r.e.Comm.Rank())
		}
		return nil
	})
}

// TestManagedOOTransportMasm exchanges a Transportable object tree
// between two managed programs.
func TestManagedOOTransportMasm(t *testing.T) {
	const prog = `
.class LinkedArray
  .field transportable int32[] array
  .field transportable LinkedArray next
  .field LinkedArray next2
.end

.method main (0) int32
  .locals 3
  intern mp.rank
  brtrue receiver
  ; rank 0: build 2-node list with payload [42], osend
  newobj LinkedArray
  stloc 0
  ldc.i4 1  newarr int32  stloc 1
  ldloc 1  ldc.i4 0  ldc.i4 42  stelem
  ldloc 0  ldloc 1  stfld LinkedArray.array
  ldloc 0  newobj LinkedArray  stfld LinkedArray.next
  ldloc 0  ldloc 0  stfld LinkedArray.next2   ; must not travel
  ldloc 0  ldc.i4 1  ldc.i4 3  intern mp.osend
  ldc.i4 0
  ret.val
receiver:
  ldc.i4 0  ldc.i4 3  intern mp.orecv
  stloc 0
  ; check payload
  ldloc 0  ldfld LinkedArray.array  ldc.i4 0  ldelem
  ldc.i4 42  ceq  brfalse fail
  ; check next travelled
  ldloc 0  ldfld LinkedArray.next  ldnull  ceq  brtrue fail
  ; check next2 did NOT travel
  ldloc 0  ldfld LinkedArray.next2  ldnull  ceq  brfalse fail
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
			return fmt.Errorf("managed OO program failed on rank %d", r.e.Comm.Rank())
		}
		return nil
	})
}

func TestOScatterNonRootIgnoresArray(t *testing.T) {
	// Non-roots pass NullRef (their array argument is ignored, as in
	// MPI scatter semantics).
	runRanks(t, 3, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		h := r.v.Heap
		var arr vm.Ref
		if r.e.Comm.Rank() == 0 {
			guard := &vm.RefRoots{Refs: []vm.Ref{vm.NullRef}}
			r.v.AddRootProvider(guard)
			a, _ := h.AllocArray(r.v.ArrayType(vm.KindRef, mt, 1), 3)
			guard.Refs[0] = a
			for i := 0; i < 3; i++ {
				n, _ := h.AllocClass(mt)
				h.SetScalar(n, mt.FieldByName("id"), uint64(uint32(int32(i))))
				h.SetElemRef(guard.Refs[0], i, n)
			}
			arr = guard.Refs[0]
			r.v.RemoveRootProvider(guard)
		}
		sub, err := r.e.OScatter(r.th, arr, 0)
		if err != nil {
			return err
		}
		if h.Length(sub) != 1 {
			return fmt.Errorf("rank %d part %d", r.e.Comm.Rank(), h.Length(sub))
		}
		node := h.GetElemRef(sub, 0)
		if got := int32(uint32(h.GetScalar(node, mt.FieldByName("id")))); got != int32(r.e.Comm.Rank()) {
			return fmt.Errorf("rank %d got id %d", r.e.Comm.Rank(), got)
		}
		return nil
	})
}

func TestOOTagIsolation(t *testing.T) {
	// Two OO exchanges on different tags between the same pair must
	// not cross-pair their size/data messages.
	runRanks(t, 2, nil, func(r *rank) error {
		mt := registerLinkedArray(r.v)
		if r.e.Comm.Rank() == 0 {
			a := buildLinkedList(r.v, mt, 2, 4)
			pop := r.th.VM().Protect(&a)
			if err := r.e.OSend(r.th, a, 1, 10); err != nil {
				return err
			}
			pop()
			b := buildLinkedList(r.v, mt, 5, 4)
			pop2 := r.th.VM().Protect(&b)
			defer pop2()
			return r.e.OSend(r.th, b, 1, 20)
		}
		// Receive tag 20 FIRST.
		got20, _, err := r.e.ORecv(r.th, 0, 20)
		if err != nil {
			return err
		}
		pop := r.th.VM().Protect(&got20)
		got10, _, err := r.e.ORecv(r.th, 0, 10)
		if err != nil {
			return err
		}
		pop()
		if err := verifyList(r.v.Heap, mt, got20, 5, 4, true); err != nil {
			return fmt.Errorf("tag 20: %w", err)
		}
		return verifyList(r.v.Heap, mt, got10, 2, 4, true)
	})
}
