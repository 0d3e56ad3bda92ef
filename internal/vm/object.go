package vm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file provides typed access to managed objects: scalar and
// reference fields, array elements, and — for the message-passing
// core — the raw byte range of an object's instance data, which is
// what a zero-copy transport reads and writes directly (paper §2.3).

// Length returns the total element count of an array object (the
// product of dimensions for multidimensional arrays), or 0 for class
// instances.
func (h *Heap) Length(ref Ref) int { return int(h.arrayLen(ref)) }

// Dims returns the dimension sizes of a multidimensional array, or
// a single-element slice for vectors.
func (h *Heap) Dims(ref Ref) []int {
	mt := h.MT(ref)
	if mt.Kind != TKArray {
		return nil
	}
	if mt.Rank <= 1 {
		return []int{int(h.arrayLen(ref))}
	}
	dims := make([]int, mt.Rank)
	for i := range dims {
		dims[i] = int(h.u32(uint32(ref) + HeaderSize + uint32(4*i)))
	}
	return dims
}

// DataRange returns the [start,end) arena offsets of the object's
// instance data: field storage for classes, element storage for
// arrays. This is the buffer a zero-copy transport targets; the
// object must be protected from movement (pinned, or established as
// elder-resident) while the range is in use.
func (h *Heap) DataRange(ref Ref) (start, end uint32) {
	mt := h.MT(ref)
	off := uint32(ref)
	if mt.Kind == TKArray {
		d := arrayDataOff(mt)
		return off + d, off + d + uint32(h.Length(ref)*mt.ElemSize())
	}
	return off + HeaderSize, off + HeaderSize + mt.InstanceSize
}

// DataBytes resolves the instance-data slice of an object. The arena
// never moves, so the slice stays valid as long as the object does
// (pinned, or elder under the §5.2 policy) and the VM is not closed.
func (h *Heap) DataBytes(ref Ref) []byte {
	s, e := h.DataRange(ref)
	return h.mem[s:e]
}

// DataSize returns the byte size of the object's instance data — the
// implicit message length the Motor bindings derive instead of taking
// a count/datatype pair (paper §4.2.1).
func (h *Heap) DataSize(ref Ref) int {
	s, e := h.DataRange(ref)
	return int(e - s)
}

// --- field access -------------------------------------------------------

func (h *Heap) fieldOff(ref Ref, f *FieldDesc) uint32 {
	return uint32(ref) + HeaderSize + f.Offset()
}

// GetScalar reads a scalar field as raw uint64 bits (sign-extended
// for signed kinds, IEEE bits for floats).
func (h *Heap) GetScalar(ref Ref, f *FieldDesc) uint64 {
	return h.loadElem(h.fieldOff(ref, f), rawKind(f.Kind())).Bits
}

// SetScalar writes a scalar field from raw bits.
func (h *Heap) SetScalar(ref Ref, f *FieldDesc, bits uint64) {
	h.storeElem(h.fieldOff(ref, f), rawKind(f.Kind()), Value{Bits: bits})
}

// GetRef reads a reference field.
func (h *Heap) GetRef(ref Ref, f *FieldDesc) Ref {
	return Ref(h.u32(h.fieldOff(ref, f)))
}

// SetRef writes a reference field, applying the generational write
// barrier.
func (h *Heap) SetRef(ref Ref, f *FieldDesc, val Ref) {
	h.putU32(h.fieldOff(ref, f), uint32(val))
	h.recordWrite(ref, val)
}

// GetField reads any field as (bits, isRef).
func (h *Heap) GetField(ref Ref, f *FieldDesc) (uint64, bool) {
	return h.GetScalar(ref, f), f.IsRef()
}

// SetField writes any field from (bits, isRef form implied by f).
func (h *Heap) SetField(ref Ref, f *FieldDesc, bits uint64) {
	if f.IsRef() {
		h.SetRef(ref, f, Ref(bits))
		return
	}
	h.SetScalar(ref, f, bits)
}

// storeField is stfld: it narrows a stack Value into field f and
// applies the write barrier to reference fields.
func (h *Heap) storeField(ref Ref, f *FieldDesc, v Value) {
	h.storeElem(h.fieldOff(ref, f), f.Kind(), v)
	if f.IsRef() {
		h.recordWrite(ref, Ref(v.Bits))
	}
}

// --- array element access ------------------------------------------------

func (h *Heap) elemOff(ref Ref, mt *MethodTable, i int) uint32 {
	return uint32(ref) + arrayDataOff(mt) + uint32(i*mt.ElemSize())
}

// GetElem reads element i of an array as raw bits.
func (h *Heap) GetElem(ref Ref, i int) uint64 {
	mt := h.MT(ref)
	h.boundsCheck(ref, i)
	return h.loadElem(h.elemOff(ref, mt, i), rawKind(mt.Elem)).Bits
}

// SetElem writes element i of an array from raw bits, applying the
// write barrier for reference elements.
func (h *Heap) SetElem(ref Ref, i int, bits uint64) {
	mt := h.MT(ref)
	h.boundsCheck(ref, i)
	h.storeElem(h.elemOff(ref, mt, i), rawKind(mt.Elem), Value{Bits: bits})
	if mt.Elem == KindRef {
		h.recordWrite(ref, Ref(bits))
	}
}

// GetElemRef reads a reference element.
func (h *Heap) GetElemRef(ref Ref, i int) Ref { return Ref(h.GetElem(ref, i)) }

// SetElemRef writes a reference element.
func (h *Heap) SetElemRef(ref Ref, i int, val Ref) { h.SetElem(ref, i, uint64(val)) }

func (h *Heap) boundsCheck(ref Ref, i int) {
	if n := int(h.arrayLen(ref)); i < 0 || i >= n {
		panic(&BoundsError{Ref: ref, Index: i, Length: n})
	}
}

// BoundsError is raised (as a panic caught by the interpreter) on an
// out-of-range array access. Bounds are what stop a transport or a
// managed program from "overwriting the end of an object" (§2.4).
type BoundsError struct {
	Ref    Ref
	Index  int
	Length int
}

// Error implements the error interface.
func (e *BoundsError) Error() string {
	return fmt.Sprintf("vm: index %d out of range (length %d) on object %#x", e.Index, e.Length, e.Ref)
}

// --- load/store by kind ----------------------------------------------------

// loadElem reads the slot of kind k at arena offset off as a stack
// Value: integers extended to 64 bits by their signedness, float32
// widened to float64, references tagged. It is the one load switch
// behind the element and field instructions.
func (h *Heap) loadElem(off uint32, k Kind) Value {
	m := h.mem[off:]
	switch k {
	case KindInt64, KindUint64, KindFloat64:
		return Value{Bits: binary.LittleEndian.Uint64(m)}
	case KindInt32:
		return IntValue(int64(int32(binary.LittleEndian.Uint32(m))))
	case KindUint32:
		return Value{Bits: uint64(binary.LittleEndian.Uint32(m))}
	case KindRef:
		return RefValue(Ref(binary.LittleEndian.Uint32(m)))
	case KindFloat32:
		return FloatValue(float64(f32FromBits(binary.LittleEndian.Uint32(m))))
	case KindBool, KindUint8:
		return Value{Bits: uint64(m[0])}
	case KindInt8:
		return IntValue(int64(int8(m[0])))
	case KindUint16, KindChar:
		return Value{Bits: uint64(binary.LittleEndian.Uint16(m))}
	case KindInt16:
		return IntValue(int64(int16(binary.LittleEndian.Uint16(m))))
	default:
		panic(fmt.Sprintf("vm: load of kind %s", k))
	}
}

// storeElem narrows v to kind k and writes it at off (no write
// barrier: callers storing a KindRef slot apply recordWrite).
func (h *Heap) storeElem(off uint32, k Kind, v Value) {
	m := h.mem[off:]
	switch k {
	case KindInt64, KindUint64, KindFloat64:
		binary.LittleEndian.PutUint64(m, v.Bits)
	case KindInt32, KindUint32, KindRef:
		binary.LittleEndian.PutUint32(m, uint32(v.Bits))
	case KindFloat32:
		binary.LittleEndian.PutUint32(m, f32Bits(float32(v.Float())))
	case KindBool, KindInt8, KindUint8:
		m[0] = byte(v.Bits)
	case KindInt16, KindUint16, KindChar:
		binary.LittleEndian.PutUint16(m, uint16(v.Bits))
	default:
		panic(fmt.Sprintf("vm: store of kind %s", k))
	}
}

// rawKind is the kind under which the raw-bits accessors (GetElem,
// GetScalar, ...) move a slot: its own, except that float32 travels as
// its unwidened IEEE single bits.
func rawKind(k Kind) Kind {
	if k == KindFloat32 {
		return KindUint32
	}
	return k
}

// Float64Bits helpers for interpreter and tests.

// F64FromBits converts raw bits to float64.
func F64FromBits(b uint64) float64 { return math.Float64frombits(b) }

// BitsFromF64 converts float64 to raw bits.
func BitsFromF64(f float64) uint64 { return math.Float64bits(f) }

func f32FromBits(b uint32) float32 { return math.Float32frombits(b) }
func f32Bits(f float32) uint32     { return math.Float32bits(f) }

// --- convenience builders (used heavily by tests, FCalls, benches) --------

// NewInt32Array allocates and fills a rank-1 int32 array.
func (h *Heap) NewInt32Array(vals []int32) (Ref, error) {
	mt := h.vm.ArrayType(KindInt32, nil, 1)
	ref, err := h.AllocArray(mt, len(vals))
	if err != nil {
		return NullRef, err
	}
	for i, v := range vals {
		h.SetElem(ref, i, uint64(uint32(v)))
	}
	return ref, nil
}

// NewUint8Array allocates and fills a rank-1 byte array.
func (h *Heap) NewUint8Array(vals []byte) (Ref, error) {
	mt := h.vm.ArrayType(KindUint8, nil, 1)
	ref, err := h.AllocArray(mt, len(vals))
	if err != nil {
		return NullRef, err
	}
	copy(h.DataBytes(ref), vals)
	return ref, nil
}

// NewFloat64Array allocates and fills a rank-1 float64 array.
func (h *Heap) NewFloat64Array(vals []float64) (Ref, error) {
	mt := h.vm.ArrayType(KindFloat64, nil, 1)
	ref, err := h.AllocArray(mt, len(vals))
	if err != nil {
		return NullRef, err
	}
	for i, v := range vals {
		h.SetElem(ref, i, BitsFromF64(v))
	}
	return ref, nil
}

// Int32Slice copies out an int32 array's contents.
func (h *Heap) Int32Slice(ref Ref) []int32 {
	n := h.Length(ref)
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = int32(uint32(h.GetElem(ref, i)))
	}
	return out
}

// Uint8Slice copies out a byte array's contents.
func (h *Heap) Uint8Slice(ref Ref) []byte {
	out := make([]byte, h.Length(ref))
	copy(out, h.DataBytes(ref))
	return out
}

// Float64Slice copies out a float64 array's contents.
func (h *Heap) Float64Slice(ref Ref) []float64 {
	n := h.Length(ref)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = F64FromBits(h.GetElem(ref, i))
	}
	return out
}
