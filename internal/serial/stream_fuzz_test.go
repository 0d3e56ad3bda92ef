package serial

import (
	"bytes"
	"testing"

	"motor/internal/vm"
)

// FuzzDeserializeStream fuzzes the one parser of OO wire bytes. Seeds
// cover the interesting failure classes: a valid stream, a retired v1
// ("MSER") buffer, truncated chunks, a stale-epoch cached stream,
// table references with no matching entry, and a reference to an
// object of the wrong class. Each input is decoded in one commit and
// again in two or three, split at offsets derived from the input, as
// transport feeds chunks; a decoded graph must store in every
// reference slot an object of the slot's declared class. The
// one-commit reader is then reset and given the valid stream: reuse
// after any input must decode exactly as a fresh reader does.
func FuzzDeserializeStream(f *testing.F) {
	src := newVM(f)
	mt := linkedArrayTypes(src)
	head := buildList(src, mt, 4, 3)

	v2, err := SerializeStream(src.Heap, head, Options{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	v1 := v1Buffer()
	f.Add(v2)
	f.Add(v1)
	// Truncated chunks: cut inside the header, a section header, and a
	// data run.
	f.Add(v2[:8])
	f.Add(v2[:streamHeaderSize+3])
	f.Add(v2[:len(v2)-6])
	f.Add(v1[:len(v1)/2])
	// A cached (nonzero-epoch) stream whose references can never
	// resolve without a mirror: stale epoch + ref-to-missing-entry.
	cache := NewPeerCache(src.TypeGen())
	warm := NewStreamWriter(src.Heap, head, Options{}, 0, cache)
	for !warm.Done() {
		if _, err := warm.Next(nil); err != nil {
			f.Fatal(err)
		}
	}
	cached := NewStreamWriter(src.Heap, head, Options{}, 0, cache)
	var refStream []byte
	for !cached.Done() {
		chunk, err := cached.Next(nil)
		if err != nil {
			f.Fatal(err)
		}
		refStream = append(refStream, chunk...)
	}
	f.Add(refStream)
	f.Add(refStream[:len(refStream)-3])
	// Type confusion: the head's next names its own int32[].
	confused := append([]byte(nil), v2...)
	patchID(f, confused, firstRecord(f, confused)+6, 3, 2)
	f.Add(confused)
	// Pure garbage with a valid magic.
	garbage := append([]byte(nil), v2[:streamHeaderSize]...)
	garbage = append(garbage, 0xEE, 0xFF, 0x01, 0x02)
	f.Add(garbage)

	f.Fuzz(func(t *testing.T, data []byte) {
		dst := newVM(t)
		linkedArrayTypes(dst)
		// Must error or succeed — never panic, never hang.
		_, _ = DeserializeStream(dst, data)
		sr := NewStreamReader(dst, nil, nil)
		if root, err := decodeWith(dst, sr, data); err == nil {
			checkDeclaredTypes(t, dst, root)
		}
		if root, err := decodeSplit(dst, data); err == nil {
			checkDeclaredTypes(t, dst, root)
		}
		want, err := reencode(dst, NewStreamReader(dst, nil, nil), v2)
		if err != nil {
			t.Fatalf("fresh reader: %v", err)
		}
		sr.Reset(dst, nil, sr.Buffer())
		got, err := reencode(dst, sr, v2)
		if err != nil {
			t.Fatalf("reused reader: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("a reused reader decodes the valid stream differently from a fresh one")
		}
	})
}

// decodeWith feeds data to sr as one chunk and finishes the stream.
func decodeWith(v *vm.VM, sr *StreamReader, data []byte) (vm.Ref, error) {
	v.AddRootProvider(sr)
	defer v.RemoveRootProvider(sr)
	copy(sr.Grow(len(data)), data)
	if err := sr.Commit(len(data)); err != nil {
		return vm.NullRef, err
	}
	return sr.Finish()
}

// decodeSplit feeds data to a fresh reader in three commits (some may
// be empty), cut at offsets taken from the input's own bytes.
func decodeSplit(v *vm.VM, data []byte) (vm.Ref, error) {
	sr := NewStreamReader(v, nil, nil)
	v.AddRootProvider(sr)
	defer v.RemoveRootProvider(sr)
	cut1, cut2 := 0, 0
	if n := len(data); n > 0 {
		cut1 = int(data[0]) % (n + 1)
		cut2 = cut1 + int(data[n/2])%(n-cut1+1)
	}
	for _, part := range [][]byte{data[:cut1], data[cut1:cut2], data[cut2:]} {
		copy(sr.Grow(len(part)), part)
		if err := sr.Commit(len(part)); err != nil {
			return vm.NullRef, err
		}
	}
	return sr.Finish()
}

// checkDeclaredTypes walks the graph under root and fails t on a
// reference field or object-array element holding an object that is
// not of the slot's declared class.
func checkDeclaredTypes(t *testing.T, v *vm.VM, root vm.Ref) {
	t.Helper()
	h := v.Heap
	assignable := func(ref vm.Ref, decl *vm.MethodTable) bool {
		return ref == vm.NullRef || decl == nil || decl == v.ObjectMT || h.MT(ref).IsSubclassOf(decl)
	}
	seen := map[vm.Ref]bool{}
	queue := []vm.Ref{root}
	for len(queue) > 0 {
		ref := queue[0]
		queue = queue[1:]
		if ref == vm.NullRef || seen[ref] {
			continue
		}
		seen[ref] = true
		mt := h.MT(ref)
		if mt.Kind == vm.TKArray {
			if mt.Elem != vm.KindRef {
				continue
			}
			for i := range h.Length(ref) {
				e := h.GetElemRef(ref, i)
				if !assignable(e, mt.ElemMT) {
					t.Fatalf("%s element %d holds %s", mt, i, h.MT(e))
				}
				queue = append(queue, e)
			}
			continue
		}
		for i := range mt.Fields {
			f := &mt.Fields[i]
			if !f.IsRef() {
				continue
			}
			fr := h.GetRef(ref, f)
			if !assignable(fr, f.DeclaredType) {
				t.Fatalf("%s.%s declared %s holds %s", mt, f.Name, f.DeclaredType, h.MT(fr))
			}
			queue = append(queue, fr)
		}
	}
}

// reencode decodes data with sr and serializes the result again, so
// two decodings can be compared byte for byte.
func reencode(v *vm.VM, sr *StreamReader, data []byte) ([]byte, error) {
	root, err := decodeWith(v, sr, data)
	if err != nil {
		return nil, err
	}
	return SerializeStream(v.Heap, root, Options{}, nil)
}
