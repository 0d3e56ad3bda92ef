package serial

import (
	"bytes"
	"testing"

	"motor/internal/vm"
)

// FuzzDeserializeStream fuzzes the one parser of OO wire bytes. Seeds
// cover the interesting failure classes: a valid stream, a retired v1
// ("MSER") buffer, truncated chunks, a stale-epoch cached stream, and
// table references with no matching entry. Each input is also fed to a
// reader that is then reset and given the valid stream: reuse after
// any input must decode exactly as a fresh reader does.
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
		_, _ = decodeWith(dst, sr, data)
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

// reencode decodes data with sr and serializes the result again, so
// two decodings can be compared byte for byte.
func reencode(v *vm.VM, sr *StreamReader, data []byte) ([]byte, error) {
	root, err := decodeWith(v, sr, data)
	if err != nil {
		return nil, err
	}
	return SerializeStream(v.Heap, root, Options{}, nil)
}
