package serial

import (
	"encoding/binary"
	"fmt"

	"motor/internal/vm"
)

// The reader: resolves type entries against the receiving VM's
// registry, allocates the objects, and rewires local ids back into
// references. StreamReader drives it record by record: allocRecord
// consumes one record — validating the payload's presence
// before sizing any managed allocation from wire-claimed lengths,
// then filling simple payloads and scalar fields immediately — and
// rewire follows each parse, wiring reference slots as far as the
// objects they name are allocated (ids can point forward, so
// references cannot be resolved inline).

type wireField struct {
	name          string
	kind          vm.Kind
	transportable bool
	local         *vm.FieldDesc
}

type wireType struct {
	isArray bool
	hasRefs bool // array-of-refs, or class with at least one ref field
	mt      *vm.MethodTable
	fields  []wireField // classes only
}

type reader struct {
	v     *vm.VM
	data  []byte
	pos   int
	limit int // parsing bound: len(data), or the current data run's end

	types []wireType

	// refs holds every allocated object; registered as a GC root
	// provider while deserialization runs (allocation can collect).
	refs    []vm.Ref
	records []objRecord

	// The rewiring cursor: records before rewired are wired; slot is
	// the object-array element to resume the cursor's record at.
	rewired int
	slot    int
}

// VisitRoots implements vm.RootProvider.
func (r *reader) VisitRoots(visit func(vm.Ref) vm.Ref) {
	for i, ref := range r.refs {
		if ref != vm.NullRef {
			r.refs[i] = visit(ref)
		}
	}
}

func (r *reader) fail(format string, args ...interface{}) error {
	return fmt.Errorf("%w: "+format, append([]interface{}{ErrFormat}, args...)...)
}

func (r *reader) need(n int) error {
	if r.pos+n > r.limit {
		return r.fail("truncated at %d (+%d of %d)", r.pos, n, r.limit)
	}
	return nil
}

func (r *reader) u8() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(r.data[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

func (r *reader) scalar(k vm.Kind) (uint64, error) {
	n := k.Size()
	if err := r.need(n); err != nil {
		return 0, err
	}
	var b [8]byte
	copy(b[:], r.data[r.pos:r.pos+n])
	r.pos += n
	// Sign-extension is irrelevant here: the bits are stored back
	// with the same kind.
	return binary.LittleEndian.Uint64(b[:]), nil
}

// parseOneType consumes one type-table entry at the cursor and
// resolves it against the local registry.
func (r *reader) parseOneType() (wireType, error) {
	entryKind, err := r.u8()
	if err != nil {
		return wireType{}, err
	}
	switch entryKind {
	case kindArrayEntry:
		ek, err := r.u8()
		if err != nil {
			return wireType{}, err
		}
		rank, err := r.u8()
		if err != nil {
			return wireType{}, err
		}
		elemName, err := r.str()
		if err != nil {
			return wireType{}, err
		}
		var elemMT *vm.MethodTable
		if vm.Kind(ek) == vm.KindRef && elemName != "" {
			mt, err := r.v.ResolveTypeName(elemName)
			if err != nil {
				return wireType{}, fmt.Errorf("%w: %v", ErrTypeless, err)
			}
			elemMT = mt
		}
		return wireType{
			isArray: true,
			hasRefs: vm.Kind(ek) == vm.KindRef,
			mt:      r.v.ArrayType(vm.Kind(ek), elemMT, int(rank)),
		}, nil
	case kindClassEntry:
		name, err := r.str()
		if err != nil {
			return wireType{}, err
		}
		mt, ok := r.v.TypeByName(name)
		if !ok || mt.Kind != vm.TKClass {
			return wireType{}, fmt.Errorf("%w: class %q", ErrTypeless, name)
		}
		nf, err := r.u16()
		if err != nil {
			return wireType{}, err
		}
		wt := wireType{mt: mt, fields: make([]wireField, nf)}
		for j := 0; j < int(nf); j++ {
			fname, err := r.str()
			if err != nil {
				return wireType{}, err
			}
			fk, err := r.u8()
			if err != nil {
				return wireType{}, err
			}
			fl, err := r.u8()
			if err != nil {
				return wireType{}, err
			}
			local := mt.FieldByName(fname)
			if local == nil || local.Kind() != vm.Kind(fk) {
				return wireType{}, fmt.Errorf("%w: field %s.%s", ErrShape, name, fname)
			}
			if vm.Kind(fk) == vm.KindRef {
				wt.hasRefs = true
			}
			wt.fields[j] = wireField{name: fname, kind: vm.Kind(fk), transportable: fl&1 != 0, local: local}
		}
		return wt, nil
	default:
		return wireType{}, r.fail("type entry kind %d", entryKind)
	}
}

// parseEntry resolves one standalone (length-delimited) type entry —
// the table-section / table-blob form.
func parseEntry(v *vm.VM, raw []byte) (wireType, error) {
	tr := &reader{v: v, data: raw, limit: len(raw)}
	wt, err := tr.parseOneType()
	if err != nil {
		return wireType{}, err
	}
	if tr.pos != len(raw) {
		return wireType{}, tr.fail("trailing bytes in type entry")
	}
	return wt, nil
}

// objRecord remembers where an object's payload starts so rewire can
// revisit the reference slots.
type objRecord struct {
	wt     *wireType
	length int
	at     int // data position of the field/element payload
}

// allocRecord consumes the record at the cursor: validates, allocates
// the object, fills simple payloads and scalar fields, and records the
// payload position for the reference pass. The payload must be fully
// present (within limit) before any managed allocation is sized from
// the wire-claimed length.
func (r *reader) allocRecord() error {
	h := r.v.Heap
	ti, err := r.u16()
	if err != nil {
		return err
	}
	if int(ti) >= len(r.types) {
		return r.fail("type index %d", ti)
	}
	wt := &r.types[ti]
	rec := objRecord{wt: wt}
	if wt.isArray {
		n, err := r.u32()
		if err != nil {
			return err
		}
		rec.length = int(n)
		mt := wt.mt
		extra, width := 0, mt.ElemSize()
		if mt.Rank > 1 {
			extra = 4 * mt.Rank
		}
		if mt.Elem == vm.KindRef {
			width = 4 // element ids
		}
		if err := r.need(extra + rec.length*width); err != nil {
			return err
		}
		var ref vm.Ref
		if mt.Rank > 1 {
			dims := make([]int, mt.Rank)
			total := 1
			for d := range dims {
				dv, err := r.u32()
				if err != nil {
					return err
				}
				dims[d] = int(dv)
				total *= int(dv)
			}
			if total != rec.length {
				return r.fail("dims %v != length %d", dims, rec.length)
			}
			ref, err = h.AllocMultiDim(mt, dims)
		} else {
			ref, err = h.AllocArray(mt, rec.length)
		}
		if err != nil {
			return err
		}
		r.refs = append(r.refs, ref)
		rec.at = r.pos
		if mt.Elem == vm.KindRef {
			r.pos += 4 * rec.length // element ids, wired by rewire
		} else {
			sz := rec.length * width
			copy(h.DataBytes(ref), r.data[rec.at:rec.at+sz])
			r.pos += sz
		}
	} else {
		ref, err := h.AllocClass(wt.mt)
		if err != nil {
			return err
		}
		r.refs = append(r.refs, ref)
		rec.at = r.pos
		for j := range wt.fields {
			f := &wt.fields[j]
			if f.kind == vm.KindRef {
				if err := r.need(4); err != nil {
					return err
				}
				r.pos += 4 // the id, wired by rewire
				continue
			}
			bits, err := r.scalar(f.kind)
			if err != nil {
				return err
			}
			h.SetScalar(ref, f.local, bits)
		}
	}
	r.records = append(r.records, rec)
	return nil
}

// resolve maps a wire-local id to the allocated reference.
func (r *reader) resolve(id uint32) (vm.Ref, error) {
	if id == 0 {
		return vm.NullRef, nil
	}
	if int(id) > len(r.refs) {
		return vm.NullRef, r.fail("object id %d of %d", id, len(r.refs))
	}
	return r.refs[id-1], nil
}

// rewire is the reference pass: from the cursor on, records have their
// reference slots rewired from wire-local ids to heap references, in
// record order. Ids can point forward, so until the stream is final the
// pass stops at the first slot naming an object not yet allocated and
// resumes there after the next parse; once final, such an id is an
// error. allocRecord bounds-checked every slot's bytes.
func (r *reader) rewire(final bool) error {
	h := r.v.Heap
	for ; r.rewired < len(r.records); r.rewired, r.slot = r.rewired+1, 0 {
		rec := &r.records[r.rewired]
		wt := rec.wt
		if !wt.hasRefs {
			continue
		}
		ref := r.refs[r.rewired]
		if wt.isArray {
			for ; r.slot < rec.length; r.slot++ {
				id := binary.LittleEndian.Uint32(r.data[rec.at+4*r.slot:])
				er, ok, err := r.target(id, wt.mt.ElemMT, final)
				if !ok {
					return err
				}
				h.SetElemRef(ref, r.slot, er)
			}
			continue
		}
		at := rec.at
		for j := range wt.fields {
			f := &wt.fields[j]
			if f.kind != vm.KindRef {
				at += f.kind.Size()
				continue
			}
			fr, ok, err := r.target(binary.LittleEndian.Uint32(r.data[at:]), f.local.DeclaredType, final)
			if !ok {
				return err
			}
			h.SetRef(ref, f.local, fr)
			at += 4
		}
	}
	return nil
}

// target resolves the id stored in a slot declared as class decl. ok
// is false when the pass must stop: err is nil if the object is merely
// not allocated yet. A target that is not decl or a subclass of it is
// an ErrShape error, since verified code reads the slot as decl without
// a check; a nil decl or the root object type accepts anything.
func (r *reader) target(id uint32, decl *vm.MethodTable, final bool) (vm.Ref, bool, error) {
	if int(id) > len(r.refs) && !final {
		return vm.NullRef, false, nil
	}
	ref, err := r.resolve(id)
	if err != nil || ref == vm.NullRef || decl == nil || decl == r.v.ObjectMT {
		return ref, err == nil, err
	}
	if mt := r.v.Heap.MT(ref); !mt.IsSubclassOf(decl) {
		return vm.NullRef, false, fmt.Errorf("%w: object %d is %s, slot declared %s", ErrShape, id, mt, decl)
	}
	return ref, true, nil
}
