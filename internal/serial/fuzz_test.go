package serial

import (
	"math/rand"
	"testing"
)

// TestDeserializeNeverPanics feeds the reader random garbage and
// random mutations of a valid many-section stream (a small chunk
// target interleaves table and data sections, so mutations land on
// section boundaries): every input must return an error or a valid
// object, never panic — a transport can deliver anything.
func TestDeserializeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	v := newVM(t)
	mt := linkedArrayTypes(v)
	head := buildList(v, mt, 5, 3)
	valid := concatChunks(collectStream(t, NewStreamWriter(v.Heap, head, Options{}, 48, nil)))

	tryOne := func(data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("deserialize panicked on %d bytes: %v", len(data), r)
			}
		}()
		dst := newVM(t)
		defer dst.Close()
		linkedArrayTypes(dst)
		_, _ = DeserializeStream(dst, data)
	}

	// Pure garbage.
	for i := 0; i < 200; i++ {
		n := rng.Intn(300)
		data := make([]byte, n)
		rng.Read(data)
		tryOne(data)
	}
	// Mutations of a valid representation (bit flips, truncations,
	// and duplications).
	for i := 0; i < 400; i++ {
		data := append([]byte(nil), valid...)
		switch rng.Intn(3) {
		case 0:
			if len(data) > 0 {
				data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
			}
		case 1:
			data = data[:rng.Intn(len(data)+1)]
		case 2:
			at := rng.Intn(len(data))
			data = append(data[:at], append([]byte{byte(rng.Intn(256))}, data[at:]...)...)
		}
		tryOne(data)
	}
}

// TestGatherPartsNeverPanic: the gather path receives parts from the
// wire too.
func TestGatherPartsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := newVM(t)
	arr, _ := v.Heap.NewInt32Array([]int32{1, 2, 3, 4})
	parts := splitParts(t, v.Heap, arr, 2, Options{})
	for i := 0; i < 200; i++ {
		mutated := make([][]byte, len(parts))
		for j := range parts {
			mutated[j] = append([]byte(nil), parts[j]...)
			if len(mutated[j]) > 0 && rng.Intn(2) == 0 {
				mutated[j][rng.Intn(len(mutated[j]))] ^= 0xFF
			}
			if rng.Intn(4) == 0 {
				mutated[j] = mutated[j][:rng.Intn(len(mutated[j])+1)]
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("gather panicked: %v", r)
				}
			}()
			dst := newVM(t)
			defer dst.Close()
			_, _ = gatherParts(dst, mutated)
		}()
	}
}
