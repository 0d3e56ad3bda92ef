package bench

import (
	"encoding/binary"
	"fmt"

	"motor/internal/baseline/cliser"
	"motor/internal/baseline/javaser"
	"motor/internal/baseline/jni"
	"motor/internal/baseline/native"
	"motor/internal/baseline/pinvoke"
	"motor/internal/core"
	"motor/internal/mp"
	"motor/internal/serial"
	"motor/internal/vm"
)

// The per-implementation adapters. Every managed implementation runs
// on its own Motor VM instance, released by the rank's Close once its
// traffic is done; the differences measured are exactly
// the architectural ones the paper attributes: call path (FCall vs
// P/Invoke vs JNI), pinning discipline (policy vs always vs
// copy), and serialization mechanism.

func benchVM(name string, pinMode vm.PinMode) *vm.VM {
	return vm.New(vm.Config{
		Name: name,
		Heap: vm.HeapConfig{YoungSize: 2 << 20, InitialElder: 8 << 20, ArenaMax: 512 << 20, PinMode: pinMode},
	})
}

// --- Figure 9 implementations -------------------------------------------------

// nativeRank is the C++ / MPICH2 line.
type nativeRank struct{ r *native.Rank }

// The methods below implement the pingRank harness interface.

func (n *nativeRank) SetSize(s int) error        { n.r.SetBuffer(s); return nil }
func (n *nativeRank) Send(dest, tag int) error   { return n.r.Send(dest, tag) }
func (n *nativeRank) Recv(source, tag int) error { _, err := n.r.Recv(source, tag); return err }
func (n *nativeRank) Close()                     {}

// NativeImpl is the C++ baseline.
func NativeImpl() PingImpl {
	return PingImpl{Name: "C++", New: func(w *mp.World) (pingRank, error) {
		return &nativeRank{native.New(w)}, nil
	}}
}

// motorRank is the Motor line: managed buffers through the runtime-
// integrated engine (FCall path + pinning policy).
type motorRank struct {
	v   *vm.VM
	e   *core.Engine
	th  *vm.Thread
	buf vm.Ref
	h   vm.Handle
}

func (m *motorRank) SetSize(s int) error {
	if m.h != vm.InvalidHandle {
		m.v.Handles.Free(m.h)
	}
	ref, err := m.v.Heap.AllocArray(m.v.ArrayType(vm.KindUint8, nil, 1), s)
	if err != nil {
		return err
	}
	m.h = m.v.Handles.Alloc(ref)
	m.buf = ref
	return nil
}

func (m *motorRank) Send(dest, tag int) error {
	return m.e.Send(m.th, m.v.Handles.Get(m.h), dest, tag)
}

func (m *motorRank) Recv(source, tag int) error {
	_, err := m.e.Recv(m.th, m.v.Handles.Get(m.h), source, tag)
	return err
}

func (m *motorRank) Close() { m.th.End(); m.v.Close() }

// MotorImpl is the paper's contribution, with its pinning policy.
func MotorImpl() PingImpl { return motorImplWithPolicy("Motor", core.PolicyMotor) }

// MotorAlwaysPinImpl is ablation A1: Motor with wrapper-style eager
// pinning instead of the policy.
func MotorAlwaysPinImpl() PingImpl {
	return motorImplWithPolicy("Motor(always-pin)", core.PolicyAlwaysPin)
}

func motorImplWithPolicy(name string, p core.PinPolicy) PingImpl {
	return PingImpl{Name: name, New: func(w *mp.World) (pingRank, error) {
		v := benchVM(fmt.Sprintf("motor%d", w.Rank()), vm.PinHandleTable)
		e := core.Attach(v, w, core.WithPolicy(p))
		return &motorRank{v: v, e: e, th: v.StartThread("bench"), h: vm.InvalidHandle}, nil
	}}
}

// pinvokeRank is an Indiana-bindings line (P/Invoke wrapper).
type pinvokeRank struct {
	v  *vm.VM
	b  *pinvoke.Binding
	th *vm.Thread
	h  vm.Handle
}

func (p *pinvokeRank) SetSize(s int) error {
	if p.h != vm.InvalidHandle {
		p.v.Handles.Free(p.h)
	}
	ref, err := p.v.Heap.AllocArray(p.v.ArrayType(vm.KindUint8, nil, 1), s)
	if err != nil {
		return err
	}
	p.h = p.v.Handles.Alloc(ref)
	return nil
}

func (p *pinvokeRank) Send(dest, tag int) error {
	return p.b.Send(p.th, p.v.Handles.Get(p.h), dest, tag)
}

func (p *pinvokeRank) Recv(source, tag int) error {
	_, err := p.b.Recv(p.th, p.v.Handles.Get(p.h), source, tag)
	return err
}

func (p *pinvokeRank) Close() { p.th.End(); p.v.Close() }

// IndianaImpl is the Indiana C# bindings hosted by the given runtime:
// HostSSCLI uses the research runtime's linear pin list, HostNET the
// commercial handle table.
func IndianaImpl(host pinvoke.Host) PingImpl {
	name := "Indiana " + host.String()
	return PingImpl{Name: name, New: func(w *mp.World) (pingRank, error) {
		pinMode := vm.PinHandleTable
		if host == pinvoke.HostSSCLI {
			pinMode = vm.PinLinearList
		}
		v := benchVM(fmt.Sprintf("indiana%d", w.Rank()), pinMode)
		b := pinvoke.New(v, w, host)
		return &pinvokeRank{v: v, b: b, th: v.StartThread("bench"), h: vm.InvalidHandle}, nil
	}}
}

// jniRank is the mpiJava line (JNI wrapper with copy semantics).
type jniRank struct {
	v  *vm.VM
	b  *jni.Binding
	th *vm.Thread
	h  vm.Handle
}

func (j *jniRank) SetSize(s int) error {
	if j.h != vm.InvalidHandle {
		j.v.Handles.Free(j.h)
	}
	ref, err := j.v.Heap.AllocArray(j.v.ArrayType(vm.KindUint8, nil, 1), s)
	if err != nil {
		return err
	}
	j.h = j.v.Handles.Alloc(ref)
	return nil
}

func (j *jniRank) Send(dest, tag int) error {
	return j.b.Send(j.th, j.v.Handles.Get(j.h), dest, tag)
}

func (j *jniRank) Recv(source, tag int) error {
	_, err := j.b.Recv(j.th, j.v.Handles.Get(j.h), source, tag)
	return err
}

func (j *jniRank) Close() { j.th.End(); j.v.Close() }

// JavaImpl is the mpiJava line.
func JavaImpl() PingImpl {
	return PingImpl{Name: "Java", New: func(w *mp.World) (pingRank, error) {
		v := benchVM(fmt.Sprintf("java%d", w.Rank()), vm.PinHandleTable)
		b := jni.New(v, w)
		return &jniRank{v: v, b: b, th: v.StartThread("bench"), h: vm.InvalidHandle}, nil
	}}
}

// Fig9Impls returns the paper's five series in its legend order.
func Fig9Impls() []PingImpl {
	return []PingImpl{
		JavaImpl(),
		IndianaImpl(pinvoke.HostSSCLI),
		IndianaImpl(pinvoke.HostNET),
		MotorImpl(),
		NativeImpl(),
	}
}

// --- Figure 10 implementations --------------------------------------------------

// cellClass registers the benchmark list type: one payload byte array
// and a next link per element (the paper's Fig. 5 LinkedArray with
// the unused next2 omitted from traffic by construction). The
// Transportable bits matter only to Motor; the opt-out serializers
// ignore them.
func cellClass(v *vm.VM) *vm.MethodTable {
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
	return mt
}

// buildCells constructs the benchmark list on a VM, returning the
// head; the caller must root it.
func buildCells(v *vm.VM, mt *vm.MethodTable, elements, totalBytes int) (vm.Ref, error) {
	h := v.Heap
	fData, fNext := mt.FieldByName("data"), mt.FieldByName("next")
	per := totalBytes / elements
	if per < 1 {
		per = 1
	}
	guard := &vm.RefRoots{Refs: make([]vm.Ref, 2)}
	v.AddRootProvider(guard)
	defer v.RemoveRootProvider(guard)
	for i := elements - 1; i >= 0; i-- {
		node, err := h.AllocClass(mt)
		if err != nil {
			return vm.NullRef, err
		}
		guard.Refs[1] = node
		arr, err := h.AllocArray(v.ArrayType(vm.KindUint8, nil, 1), per)
		if err != nil {
			return vm.NullRef, err
		}
		node = guard.Refs[1]
		h.SetRef(node, fData, arr)
		payload := h.DataBytes(arr)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		if guard.Refs[0] != vm.NullRef {
			h.SetRef(node, fNext, guard.Refs[0])
		}
		guard.Refs[0] = node
	}
	return guard.Refs[0], nil
}

// motorOORank uses the extended object-oriented operations.
type motorOORank struct {
	v    *vm.VM
	e    *core.Engine
	th   *vm.Thread
	mt   *vm.MethodTable
	head vm.Handle
}

func newMotorOORank(w *mp.World, visited serial.VisitedMode) (*motorOORank, error) {
	v := benchVM(fmt.Sprintf("motorOO%d", w.Rank()), vm.PinHandleTable)
	e := core.Attach(v, w, core.WithVisited(visited))
	return &motorOORank{v: v, e: e, th: v.StartThread("bench"), mt: cellClass(v), head: vm.InvalidHandle}, nil
}

func (m *motorOORank) Build(elements, totalBytes int) error {
	if m.head != vm.InvalidHandle {
		m.v.Handles.Free(m.head)
	}
	head, err := buildCells(m.v, m.mt, elements, totalBytes)
	if err != nil {
		return err
	}
	m.head = m.v.Handles.Alloc(head)
	return nil
}

func (m *motorOORank) Probe() error {
	_, err := serial.SerializeStream(m.v.Heap, m.v.Handles.Get(m.head), serial.Options{}, nil)
	return err
}

func (m *motorOORank) Initiate(peer int) error {
	if err := m.e.OSend(m.th, m.v.Handles.Get(m.head), peer, 1); err != nil {
		return err
	}
	_, _, err := m.e.ORecv(m.th, peer, 1)
	return err
}

func (m *motorOORank) Echo(peer int) error {
	got, _, err := m.e.ORecv(m.th, peer, 1)
	if err != nil {
		return err
	}
	// Protect the received tree across the send (which may collect).
	f := m.th.PushFrame(got)
	defer f.Pop()
	return m.e.OSend(m.th, f.Ref(0), peer, 1)
}

func (m *motorOORank) Close() { m.th.End(); m.v.Close() }

// MotorOOImpl is the Motor object-transport line. The visited mode
// defaults to the paper's linear list.
func MotorOOImpl(visited serial.VisitedMode) ObjImpl {
	name := "Motor"
	if visited == serial.VisitedMap {
		name = "Motor(map-visited)"
	}
	return ObjImpl{Name: name, New: func(w *mp.World) (objRank, error) {
		return newMotorOORank(w, visited)
	}}
}

// wrapperObjRank is shared machinery for the Java and Indiana object
// lines: serialize with the standard mechanism, stage the stream into
// a managed byte array, and ship it with the wrapper transport
// (4-byte size prefix first, as mpiJava does).
type wrapperObjRank struct {
	v    *vm.VM
	th   *vm.Thread
	mt   *vm.MethodTable
	head vm.Handle

	ser   func(root vm.Ref) ([]byte, error)
	deser func(data []byte) (vm.Ref, error)
	send  func(t *vm.Thread, obj vm.Ref, dest, tag int) error
	recv  func(t *vm.Thread, obj vm.Ref, source, tag int) (mp.Status, error)
}

func (r *wrapperObjRank) Build(elements, totalBytes int) error {
	if r.head != vm.InvalidHandle {
		r.v.Handles.Free(r.head)
	}
	head, err := buildCells(r.v, r.mt, elements, totalBytes)
	if err != nil {
		return err
	}
	r.head = r.v.Handles.Alloc(head)
	return nil
}

func (r *wrapperObjRank) Probe() error {
	_, err := r.ser(r.v.Handles.Get(r.head))
	return err
}

// sendTree serializes root and ships size + stream.
func (r *wrapperObjRank) sendTree(root vm.Ref, peer int) error {
	stream, err := r.ser(root)
	if err != nil {
		return err
	}
	h := r.v.Heap
	// Stage the stream into a managed byte[] (MemoryStream.ToArray /
	// ByteArrayOutputStream.toByteArray), then hand it to the
	// wrapper transport.
	var sz [4]byte
	binary.LittleEndian.PutUint32(sz[:], uint32(len(stream)))
	szRef, err := h.NewUint8Array(sz[:])
	if err != nil {
		return err
	}
	f := r.th.PushFrame(szRef)
	dataRef, err := h.NewUint8Array(stream)
	szRef = f.Ref(0)
	f.Pop()
	if err != nil {
		return err
	}
	if err := r.send(r.th, szRef, peer, 2); err != nil {
		return err
	}
	return r.send(r.th, dataRef, peer, 2)
}

// recvTree receives size + stream and deserializes.
func (r *wrapperObjRank) recvTree(peer int) (vm.Ref, error) {
	h := r.v.Heap
	szRef, err := h.NewUint8Array(make([]byte, 4))
	if err != nil {
		return vm.NullRef, err
	}
	if _, err := r.recv(r.th, szRef, peer, 2); err != nil {
		return vm.NullRef, err
	}
	size := binary.LittleEndian.Uint32(h.DataBytes(szRef))
	dataRef, err := h.AllocArray(r.v.ArrayType(vm.KindUint8, nil, 1), int(size))
	if err != nil {
		return vm.NullRef, err
	}
	if _, err := r.recv(r.th, dataRef, peer, 2); err != nil {
		return vm.NullRef, err
	}
	// Copy out of the managed array at the wrapper boundary, then
	// deserialize.
	stream := h.Uint8Slice(dataRef)
	return r.deser(stream)
}

func (r *wrapperObjRank) Initiate(peer int) error {
	if err := r.sendTree(r.v.Handles.Get(r.head), peer); err != nil {
		return err
	}
	_, err := r.recvTree(peer)
	return err
}

func (r *wrapperObjRank) Echo(peer int) error {
	got, err := r.recvTree(peer)
	if err != nil {
		return err
	}
	f := r.th.PushFrame(got)
	defer f.Pop()
	return r.sendTree(f.Ref(0), peer)
}

func (r *wrapperObjRank) Close() { r.th.End(); r.v.Close() }

// JavaObjImpl is the mpiJava line of Figure 10: Java serialization
// over the JNI wrapper.
func JavaObjImpl() ObjImpl {
	return ObjImpl{Name: "mpiJava", New: func(w *mp.World) (objRank, error) {
		v := benchVM(fmt.Sprintf("javaobj%d", w.Rank()), vm.PinHandleTable)
		b := jni.New(v, w)
		r := &wrapperObjRank{v: v, th: v.StartThread("bench"), mt: cellClass(v), head: vm.InvalidHandle}
		r.ser = func(root vm.Ref) ([]byte, error) { return javaser.Serialize(v.Heap, root) }
		r.deser = func(data []byte) (vm.Ref, error) { return javaser.Deserialize(v, data) }
		r.send = b.Send
		r.recv = b.Recv
		return r, nil
	}}
}

// IndianaObjImpl is an Indiana line of Figure 10: CLI binary
// serialization over the P/Invoke wrapper, per hosting runtime.
func IndianaObjImpl(host pinvoke.Host) ObjImpl {
	var profile cliser.Profile
	if host == pinvoke.HostNET {
		profile = cliser.ProfileNET
	} else {
		profile = cliser.ProfileSSCLI
	}
	name := "Indiana " + host.String()
	return ObjImpl{Name: name, New: func(w *mp.World) (objRank, error) {
		pinMode := vm.PinHandleTable
		if host == pinvoke.HostSSCLI {
			pinMode = vm.PinLinearList
		}
		v := benchVM(fmt.Sprintf("indobj%d", w.Rank()), pinMode)
		b := pinvoke.New(v, w, host)
		r := &wrapperObjRank{v: v, th: v.StartThread("bench"), mt: cellClass(v), head: vm.InvalidHandle}
		r.ser = func(root vm.Ref) ([]byte, error) { return cliser.Serialize(v.Heap, root, profile) }
		r.deser = func(data []byte) (vm.Ref, error) { return cliser.Deserialize(v, data) }
		r.send = b.Send
		r.recv = b.Recv
		return r, nil
	}}
}

// Fig10Impls returns the paper's four series.
func Fig10Impls() []ObjImpl {
	return []ObjImpl{
		MotorOOImpl(serial.VisitedLinear),
		JavaObjImpl(),
		IndianaObjImpl(pinvoke.HostNET),
		IndianaObjImpl(pinvoke.HostSSCLI),
	}
}
