package serial

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"motor/internal/vm"
)

// collectStream runs a StreamWriter to completion with the given chunk
// target, returning the individual chunks.
func collectStream(t *testing.T, sw *StreamWriter) [][]byte {
	t.Helper()
	var chunks [][]byte
	for !sw.Done() {
		chunk, err := sw.Next(nil)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		chunks = append(chunks, chunk)
	}
	return chunks
}

// feedStream drives a StreamReader over the chunks, optionally breaking
// each chunk into pieces of at most pieceMax bytes to exercise the
// incremental section scanner across arbitrary boundaries.
func feedStream(v *vm.VM, mirror *TableMirror, chunks [][]byte, pieceMax int) (*StreamReader, error) {
	sr := NewStreamReader(v, mirror, nil)
	v.AddRootProvider(sr)
	defer v.RemoveRootProvider(sr)
	for _, chunk := range chunks {
		for len(chunk) > 0 {
			n := len(chunk)
			if pieceMax > 0 && n > pieceMax {
				n = pieceMax
			}
			copy(sr.Grow(n), chunk[:n])
			if err := sr.Commit(n); err != nil {
				return sr, err
			}
			chunk = chunk[n:]
		}
	}
	return sr, nil
}

func TestStreamRoundtrip(t *testing.T) {
	src := newVM(t)
	mt := linkedArrayTypes(src)
	head := buildList(src, mt, 10, 16)
	data, err := SerializeStream(src.Heap, head, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := newVM(t)
	dmt := linkedArrayTypes(dst)
	out, err := DeserializeStream(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	h := dst.Heap
	count := 0
	for n := out; n != vm.NullRef; n = h.GetRef(n, dmt.FieldByName("next")) {
		if got := int32(uint32(h.GetScalar(n, dmt.FieldByName("id")))); got != int32(count) {
			t.Fatalf("node %d id %d", count, got)
		}
		if h.GetRef(n, dmt.FieldByName("next2")) != vm.NullRef {
			t.Fatalf("node %d: next2 travelled", count)
		}
		count++
	}
	if count != 10 {
		t.Fatalf("list length %d", count)
	}
}

// v1Buffer is a complete representation in the retired v1 whole-buffer
// format: an int32[] of {7, 9}.
func v1Buffer() []byte {
	return []byte{
		0x52, 0x45, 0x53, 0x4D, // magic "MSER" (0x4D534552, little-endian)
		1, 0, 0, 0, // version 1, 3 reserved bytes
		1, 0, 0, 0, // rootID
		1, 0, 0, 0, // object count
		1, 0, // type count
		kindArrayEntry, byte(vm.KindInt32), 1, 0, 0, // int32[] rank 1, no element class
		0, 0, 2, 0, 0, 0, // record: type 0, length 2
		7, 0, 0, 0, 9, 0, 0, 0,
	}
}

func TestStreamRejectsV1Magic(t *testing.T) {
	// The stream is the only wire format: a v1 buffer is malformed
	// input, not a second dialect.
	if _, err := DeserializeStream(newVM(t), v1Buffer()); !errors.Is(err, ErrFormat) {
		t.Fatalf("v1 buffer: err %v, want ErrFormat", err)
	}
}

func TestStreamVisitedModesAgree(t *testing.T) {
	src := newVM(t)
	mt := linkedArrayTypes(src)
	head := buildList(src, mt, 20, 8)
	a, err := SerializeStream(src.Heap, head, Options{Visited: VisitedLinear}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SerializeStream(src.Heap, head, Options{Visited: VisitedMap}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("linear and map visited modes produce different stream bytes")
	}
}

func TestStreamChunkedSmallTarget(t *testing.T) {
	// A tiny chunk target must yield many chunks, each independently
	// transportable, and the reader must reassemble across arbitrary
	// piece boundaries (including byte-at-a-time).
	src := newVM(t)
	mt := linkedArrayTypes(src)
	head := buildList(src, mt, 12, 8)
	sw := NewStreamWriter(src.Heap, head, Options{}, 64, nil)
	src.AddRootProvider(sw)
	chunks := collectStream(t, sw)
	src.RemoveRootProvider(sw)
	if len(chunks) < 4 {
		t.Fatalf("only %d chunks at target 64", len(chunks))
	}
	for _, pieceMax := range []int{0, 1, 7} {
		dst := newVM(t)
		dmt := linkedArrayTypes(dst)
		sr, err := feedStream(dst, nil, chunks, pieceMax)
		if err != nil {
			t.Fatalf("pieceMax %d: %v", pieceMax, err)
		}
		if !sr.Ended() {
			t.Fatalf("pieceMax %d: stream not ended", pieceMax)
		}
		out, err := sr.Finish()
		if err != nil {
			t.Fatalf("pieceMax %d: Finish: %v", pieceMax, err)
		}
		h := dst.Heap
		count := 0
		for n := out; n != vm.NullRef; n = h.GetRef(n, dmt.FieldByName("next")) {
			count++
		}
		if count != 12 {
			t.Fatalf("pieceMax %d: %d nodes", pieceMax, count)
		}
	}
}

// TestStreamChunkSchedule: a chunk stops at the first record boundary
// past a quarter of the bytes already emitted, clamped to [1 KiB,
// target], and SerializeStream, which appends every chunk to one
// buffer, completes a stream larger than the default target.
func TestStreamChunkSchedule(t *testing.T) {
	src := newVM(t)
	mt := linkedArrayTypes(src)
	const cells = 4000
	head := buildList(src, mt, cells, 32) // ≈ 600 KB
	const slack = 256                     // a record (the largest is 134 B) and section headers
	for _, target := range []int{0, 4 << 10} {
		chunks := collectStream(t, NewStreamWriter(src.Heap, head, Options{}, target, nil))
		largest := target
		if largest == 0 {
			largest = DefaultChunkTarget
		}
		emitted := 0
		for k, c := range chunks[:len(chunks)-1] {
			limit := min(max(emitted/4, firstChunk), largest)
			if len(c) < limit || len(c) > limit+slack {
				t.Fatalf("target %d, chunk %d after %d bytes: %d bytes, want %d to %d", target, k, emitted, len(c), limit, limit+slack)
			}
			emitted += len(c)
		}
		t.Logf("target %d: %d chunks for %d bytes", target, len(chunks), emitted+len(chunks[len(chunks)-1]))
	}
	data, err := SerializeStream(src.Heap, head, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= DefaultChunkTarget {
		t.Fatalf("%d bytes, want a stream past the default target", len(data))
	}
	dst := newVM(t)
	dmt := linkedArrayTypes(dst)
	out, err := DeserializeStream(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for c := out; c != vm.NullRef; c = dst.Heap.GetRef(c, dmt.FieldByName("next")) {
		n++
	}
	if n != cells {
		t.Fatalf("%d cells decoded, want %d", n, cells)
	}
}

func TestStreamCacheRefsSecondSend(t *testing.T) {
	// First stream to a peer ships full type entries; the second stream
	// of the same shapes ships only 5-byte references — zero type-entry
	// bytes — and the receiver resolves them from its mirror without a
	// NACK.
	src := newVM(t)
	mt := linkedArrayTypes(src)
	head := buildList(src, mt, 5, 4)
	cache := NewPeerCache(src.TypeGen())

	sw1 := NewStreamWriter(src.Heap, head, Options{}, 0, cache)
	chunks1 := collectStream(t, sw1)
	if sw1.TableFulls == 0 || sw1.TableRefs != 0 {
		t.Fatalf("first stream: fulls=%d refs=%d", sw1.TableFulls, sw1.TableRefs)
	}

	dst := newVM(t)
	linkedArrayTypes(dst)
	mirror := NewTableMirror()
	sr1, err := feedStream(dst, mirror, chunks1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr1.Finish(); err != nil {
		t.Fatal(err)
	}
	if mirror.Entries() != sw1.TableFulls {
		t.Fatalf("mirror holds %d entries, want %d", mirror.Entries(), sw1.TableFulls)
	}

	sw2 := NewStreamWriter(src.Heap, head, Options{}, 0, cache)
	chunks2 := collectStream(t, sw2)
	if sw2.TableFulls != 0 || sw2.TableRefs == 0 || sw2.TableBytes != 0 {
		t.Fatalf("second stream: fulls=%d refs=%d bytes=%d", sw2.TableFulls, sw2.TableRefs, sw2.TableBytes)
	}
	sr2, err := feedStream(dst, mirror, chunks2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sr2.SawRefs() {
		t.Error("receiver did not see table references")
	}
	if sr2.MissingTables() != 0 {
		t.Fatalf("%d unresolved references with a warm mirror", sr2.MissingTables())
	}
	if _, err := sr2.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamNackInstallTable(t *testing.T) {
	// A cached stream arriving at a cold mirror stalls; installing the
	// sender's TableBlob completes the parse — the NACK recovery path.
	src := newVM(t)
	mt := linkedArrayTypes(src)
	head := buildList(src, mt, 4, 4)
	cache := NewPeerCache(src.TypeGen())
	// Warm the cache with a first stream nobody reads.
	collectStream(t, NewStreamWriter(src.Heap, head, Options{}, 0, cache))

	sw := NewStreamWriter(src.Heap, head, Options{}, 0, cache)
	chunks := collectStream(t, sw)
	if sw.TableRefs == 0 {
		t.Fatal("second stream carries no references")
	}
	blob, err := sw.TableBlob(nil)
	if err != nil {
		t.Fatal(err)
	}

	dst := newVM(t)
	linkedArrayTypes(dst)
	sr, err := feedStream(dst, NewTableMirror(), chunks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sr.MissingTables() == 0 {
		t.Fatal("cold mirror resolved references")
	}
	if _, err := sr.Finish(); !errors.Is(err, ErrTypeless) {
		t.Fatalf("Finish before install: %v, want ErrTypeless", err)
	}
	dst2 := newVM(t)
	linkedArrayTypes(dst2)
	sr2, err := feedStream(dst2, NewTableMirror(), chunks, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst2.AddRootProvider(sr2)
	defer dst2.RemoveRootProvider(sr2)
	if err := sr2.InstallTable(blob); err != nil {
		t.Fatal(err)
	}
	if sr2.MissingTables() != 0 {
		t.Fatalf("%d still unresolved after install", sr2.MissingTables())
	}
	if _, err := sr2.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamEpochInvalidation(t *testing.T) {
	// A cache flush (registry churn) bumps the epoch; the mirror drops
	// its entries when the new epoch arrives, and the stream — full
	// tables again after the flush — still round-trips.
	src := newVM(t)
	mt := linkedArrayTypes(src)
	head := buildList(src, mt, 3, 4)
	cache := NewPeerCache(src.TypeGen())
	collectStream(t, NewStreamWriter(src.Heap, head, Options{}, 0, cache))
	oldEpoch := cache.Epoch

	dst := newVM(t)
	linkedArrayTypes(dst)
	mirror := NewTableMirror()
	sw := NewStreamWriter(src.Heap, head, Options{}, 0, cache)
	chunks := collectStream(t, sw)
	blob, _ := sw.TableBlob(nil)
	sr, err := feedStream(dst, mirror, chunks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.InstallTable(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Finish(); err != nil {
		t.Fatal(err)
	}
	if mirror.Entries() == 0 {
		t.Fatal("mirror empty after install")
	}

	if !cache.Sync(src.TypeGen() + 1) {
		t.Fatal("Sync did not flush on generation change")
	}
	if cache.Epoch == oldEpoch || cache.Entries() != 0 {
		t.Fatalf("epoch %d entries %d after flush", cache.Epoch, cache.Entries())
	}
	sw2 := NewStreamWriter(src.Heap, head, Options{}, 0, cache)
	chunks2 := collectStream(t, sw2)
	if sw2.TableRefs != 0 {
		t.Fatal("flushed cache still emitted references")
	}
	sr2, err := feedStream(dst, mirror, chunks2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mirror.Epoch != cache.Epoch {
		t.Fatalf("mirror epoch %d, want %d", mirror.Epoch, cache.Epoch)
	}
	if _, err := sr2.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamPartRoundtrip(t *testing.T) {
	v := newVM(t)
	mt := linkedArrayTypes(v)
	h := v.Heap
	arrT := v.ArrayType(vm.KindRef, mt, 1)
	guard := &refGuard{refs: make([]vm.Ref, 1)}
	v.AddRootProvider(guard)
	arr, _ := h.AllocArray(arrT, 9)
	guard.refs[0] = arr
	for i := 0; i < 9; i++ {
		node, _ := h.AllocClass(mt)
		h.SetScalar(node, mt.FieldByName("id"), uint64(uint32(int32(i))))
		h.SetElemRef(guard.refs[0], i, node)
	}
	arr = guard.refs[0]
	v.RemoveRootProvider(guard)

	sw, err := NewStreamWriterPart(h, arr, 3, 7, Options{}, 128)
	if err != nil {
		t.Fatal(err)
	}
	chunks := collectStream(t, sw)
	dst := newVM(t)
	dmt := linkedArrayTypes(dst)
	sr, err := feedStream(dst, nil, chunks, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if dst.Heap.Length(sub) != 4 {
		t.Fatalf("part length %d", dst.Heap.Length(sub))
	}
	for i := 0; i < 4; i++ {
		node := dst.Heap.GetElemRef(sub, i)
		if got := int32(uint32(dst.Heap.GetScalar(node, dmt.FieldByName("id")))); got != int32(3+i) {
			t.Errorf("elem %d id %d", i, got)
		}
	}

	// Simple-kind parts take the payload-copy path.
	vals := make([]int32, 50)
	for i := range vals {
		vals[i] = int32(i * 2)
	}
	ints, _ := h.NewInt32Array(vals)
	swi, err := NewStreamWriterPart(h, ints, 10, 20, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DeserializeStream(newVM(t), concatChunks(collectStream(t, swi)))
	if err != nil {
		t.Fatal(err)
	}
	_ = out
}

func concatChunks(chunks [][]byte) []byte {
	var all []byte
	for _, c := range chunks {
		all = append(all, c...)
	}
	return all
}

func TestStreamPartErrors(t *testing.T) {
	v := newVM(t)
	mt := linkedArrayTypes(v)
	if _, err := NewStreamWriterPart(v.Heap, vm.NullRef, 0, 0, Options{}, 0); err == nil {
		t.Error("null part accepted")
	}
	node, _ := v.Heap.AllocClass(mt)
	if _, err := NewStreamWriterPart(v.Heap, node, 0, 0, Options{}, 0); err == nil {
		t.Error("class part accepted")
	}
	arr, _ := v.Heap.NewInt32Array([]int32{1, 2})
	if _, err := NewStreamWriterPart(v.Heap, arr, 1, 5, Options{}, 0); err == nil {
		t.Error("out-of-range part accepted")
	}
}

func TestStreamTruncationErrors(t *testing.T) {
	src := newVM(t)
	mt := linkedArrayTypes(src)
	head := buildList(src, mt, 4, 4)
	data, err := SerializeStream(src.Heap, head, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 5, streamHeaderSize, len(data) / 2, len(data) - 1} {
		dst := newVM(t)
		linkedArrayTypes(dst)
		sr := NewStreamReader(dst, nil, nil)
		dst.AddRootProvider(sr)
		copy(sr.Grow(cut), data[:cut])
		err := sr.Commit(cut)
		if err == nil {
			_, err = sr.Finish()
		}
		dst.RemoveRootProvider(sr)
		if err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestStreamRefWithoutMirrorFails(t *testing.T) {
	// A cached stream read through the mirror-less one-shot path must
	// fail typed, not panic or fabricate types.
	src := newVM(t)
	mt := linkedArrayTypes(src)
	head := buildList(src, mt, 3, 2)
	cache := NewPeerCache(src.TypeGen())
	collectStream(t, NewStreamWriter(src.Heap, head, Options{}, 0, cache))
	data := concatChunks(collectStream(t, NewStreamWriter(src.Heap, head, Options{}, 0, cache)))

	dst := newVM(t)
	linkedArrayTypes(dst)
	if _, err := DeserializeStream(dst, data); !errors.Is(err, ErrTypeless) {
		t.Fatalf("err %v, want ErrTypeless", err)
	}
}

func TestStreamBlobEpochMismatchRejected(t *testing.T) {
	src := newVM(t)
	mt := linkedArrayTypes(src)
	head := buildList(src, mt, 2, 2)
	cache := NewPeerCache(src.TypeGen())
	collectStream(t, NewStreamWriter(src.Heap, head, Options{}, 0, cache))
	sw := NewStreamWriter(src.Heap, head, Options{}, 0, cache)
	chunks := collectStream(t, sw)

	// Blob stamped under a later epoch (as if the sender churned
	// between the stream and the NACK answer).
	cache.Sync(99)
	sw2 := NewStreamWriter(src.Heap, head, Options{}, 0, cache)
	collectStream(t, sw2)
	staleBlob, _ := sw2.TableBlob(nil)

	dst := newVM(t)
	linkedArrayTypes(dst)
	sr, err := feedStream(dst, NewTableMirror(), chunks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.InstallTable(staleBlob); err == nil {
		t.Fatal("stale-epoch blob accepted")
	}
}

// TestQuickStreamRandomChunks is the streaming property test: random
// graphs, random chunk targets, random wire fragmentation — every
// combination must round-trip exactly.
func TestQuickStreamRandomChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 25; iter++ {
		n := 1 + rng.Intn(30)
		payload := rng.Intn(24)
		target := 32 + rng.Intn(4096)
		mode := VisitedMode(rng.Intn(2))

		src := newVM(t)
		mt := linkedArrayTypes(src)
		head := buildList(src, mt, n, payload)
		sw := NewStreamWriter(src.Heap, head, Options{Visited: mode}, target, nil)
		src.AddRootProvider(sw)
		chunks := collectStream(t, sw)
		src.RemoveRootProvider(sw)

		dst := newVM(t)
		dmt := linkedArrayTypes(dst)
		sr, err := feedStream(dst, nil, chunks, 1+rng.Intn(512))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		out, err := sr.Finish()
		if err != nil {
			t.Fatalf("iter %d: Finish: %v", iter, err)
		}
		h := dst.Heap
		count := 0
		for node := out; node != vm.NullRef; node = h.GetRef(node, dmt.FieldByName("next")) {
			if got := int32(uint32(h.GetScalar(node, dmt.FieldByName("id")))); got != int32(count) {
				t.Fatalf("iter %d node %d id %d", iter, count, got)
			}
			arr := h.GetRef(node, dmt.FieldByName("array"))
			vals := h.Int32Slice(arr)
			if len(vals) != payload {
				t.Fatalf("iter %d node %d payload %d", iter, count, len(vals))
			}
			for j, val := range vals {
				if val != int32(count*1000+j) {
					t.Fatalf("iter %d node %d payload[%d]=%d", iter, count, j, val)
				}
			}
			count++
		}
		if count != n {
			t.Fatalf("iter %d: %d nodes, want %d", iter, count, n)
		}
	}
}

// TestStreamNeverPanics: garbage and mutations of a one-chunk stream
// error, never panic (TestDeserializeNeverPanics mutates a
// many-section one).
func TestStreamNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4041))
	src := newVM(t)
	mt := linkedArrayTypes(src)
	head := buildList(src, mt, 5, 3)
	valid, err := SerializeStream(src.Heap, head, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tryOne := func(data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("stream deserialize panicked on %d bytes: %v", len(data), r)
			}
		}()
		dst := newVM(t)
		defer dst.Close()
		linkedArrayTypes(dst)
		_, _ = DeserializeStream(dst, data)
	}
	for i := 0; i < 200; i++ {
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		tryOne(data)
	}
	for i := 0; i < 400; i++ {
		data := append([]byte(nil), valid...)
		switch rng.Intn(3) {
		case 0:
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		case 1:
			data = data[:rng.Intn(len(data)+1)]
		case 2:
			at := rng.Intn(len(data))
			data = append(data[:at], append([]byte{byte(rng.Intn(256))}, data[at:]...)...)
		}
		tryOne(data)
	}
}

// firstRecord returns the offset of the first record of a
// self-describing stream whose first section is one full table entry.
func firstRecord(t testing.TB, data []byte) int {
	t.Helper()
	at := streamHeaderSize
	if data[at] != secTableFull {
		t.Fatalf("section tag %d, want a full table entry", data[at])
	}
	at += 7 + int(binary.LittleEndian.Uint16(data[at+5:]))
	if data[at] != secData {
		t.Fatalf("section tag %d, want data", data[at])
	}
	return at + 5
}

// patchID rewrites the u32 id at off from want to to.
func patchID(t testing.TB, data []byte, off int, want, to uint32) {
	t.Helper()
	if got := binary.LittleEndian.Uint32(data[off:]); got != want {
		t.Fatalf("id at %d is %d, want %d", off, got, want)
	}
	binary.LittleEndian.PutUint32(data[off:], to)
}

// TestStreamRejectsFieldTypeConfusion: a stream whose head cell's next
// field names the head's own int32[] must not decode, since verified
// code reads next as a LinkedArray without a check.
func TestStreamRejectsFieldTypeConfusion(t *testing.T) {
	src := newVM(t)
	mt := linkedArrayTypes(src)
	data, err := SerializeStream(src.Heap, buildList(src, mt, 2, 3), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Head record: u16 type, then array = 2, next = 3, next2, id.
	patchID(t, data, firstRecord(t, data)+6, 3, 2)
	dst := newVM(t)
	linkedArrayTypes(dst)
	if _, err := DeserializeStream(dst, data); !errors.Is(err, ErrShape) {
		t.Fatalf("int32[] in a LinkedArray field: err %v, want ErrShape", err)
	}
}

// TestStreamRejectsElementTypeConfusion: the same for an element of a
// LinkedArray[] that names a cell's int32[].
func TestStreamRejectsElementTypeConfusion(t *testing.T) {
	src := newVM(t)
	mt := linkedArrayTypes(src)
	guard := &refGuard{refs: make([]vm.Ref, 1)}
	src.AddRootProvider(guard)
	defer src.RemoveRootProvider(guard)
	arr, err := src.Heap.AllocArray(src.ArrayType(vm.KindRef, mt, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	guard.refs[0] = arr
	for i := range 2 {
		cell := buildList(src, mt, 1, 3)
		src.Heap.SetElemRef(guard.refs[0], i, cell)
	}
	data, err := SerializeStream(src.Heap, guard.refs[0], Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Root record: u16 type, u32 length, element ids 2 and 3; cell 2's
	// int32[] is id 4.
	patchID(t, data, firstRecord(t, data)+6, 2, 4)
	dst := newVM(t)
	linkedArrayTypes(dst)
	if _, err := DeserializeStream(dst, data); !errors.Is(err, ErrShape) {
		t.Fatalf("int32[] in a LinkedArray[] element: err %v, want ErrShape", err)
	}
}

// TestStreamRewireFollowsCommits: reference slots are rewired as the
// chunks carrying the objects they name are committed, not at Finish.
// A list's cursor trails its last parsed record by at most three; a
// wide object array holds the cursor, wired up to its first element
// not yet parsed, until its last element arrives. Each graph must
// serialize again to the stream it was read from, object arrays of
// several lengths in one stream included.
func TestStreamRewireFollowsCommits(t *testing.T) {
	src := newVM(t)
	mt := linkedArrayTypes(src)
	guard := &refGuard{refs: make([]vm.Ref, 4)} // list, 64 cells, 16 cells, both arrays
	src.AddRootProvider(guard)
	defer src.RemoveRootProvider(guard)
	guard.refs[0] = buildList(src, mt, 64, 16)
	for k, n := range []int{64, 16} {
		arr, err := src.Heap.AllocArray(src.ArrayType(vm.KindRef, mt, 1), n)
		if err != nil {
			t.Fatal(err)
		}
		guard.refs[1+k] = arr
		for i := range n {
			cell := buildList(src, mt, 1, 16)
			src.Heap.SetElemRef(guard.refs[1+k], i, cell)
		}
	}
	both, err := src.Heap.AllocArray(src.ArrayType(vm.KindRef, nil, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	guard.refs[3] = both
	src.Heap.SetElemRef(guard.refs[3], 0, guard.refs[1])
	src.Heap.SetElemRef(guard.refs[3], 1, guard.refs[2])
	for name, root := range map[string]vm.Ref{"list": guard.refs[0], "array": guard.refs[1], "arrays": guard.refs[3]} {
		chunks := collectStream(t, NewStreamWriter(src.Heap, root, Options{}, 0, nil))
		if len(chunks) < 4 {
			t.Fatalf("%s: %d chunks, want the 1 KiB schedule's several", name, len(chunks))
		}
		dst := newVM(t)
		linkedArrayTypes(dst)
		sr := NewStreamReader(dst, nil, nil)
		dst.AddRootProvider(sr)
		for k, chunk := range chunks[:len(chunks)-1] {
			copy(sr.Grow(len(chunk)), chunk)
			if err := sr.Commit(len(chunk)); err != nil {
				t.Fatal(err)
			}
			rd := &sr.rd
			switch {
			case name == "list" && len(rd.records)-rd.rewired > 3:
				t.Fatalf("list, chunk %d: %d of %d records rewired", k, rd.rewired, len(rd.records))
			case name == "array" && len(rd.records) <= 64 && (rd.rewired != 0 || rd.slot != len(rd.records)-1):
				t.Fatalf("array, chunk %d: cursor at record %d slot %d with %d records", k, rd.rewired, rd.slot, len(rd.records))
			}
		}
		last := chunks[len(chunks)-1]
		copy(sr.Grow(len(last)), last)
		var out vm.Ref
		err := sr.Commit(len(last))
		if err == nil {
			out, err = sr.Finish()
		}
		dst.RemoveRootProvider(sr)
		if err != nil {
			t.Fatal(err)
		}
		if sr.rd.rewired != len(sr.rd.records) {
			t.Fatalf("%s: %d of %d records rewired after Finish", name, sr.rd.rewired, len(sr.rd.records))
		}
		again, err := SerializeStream(dst.Heap, out, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(concatChunks(chunks)) {
			t.Fatalf("%s: the decoded graph serializes differently from its stream", name)
		}
	}
}

// TestStreamMultiDimObjectArray: a 2 x 3 LinkedArray[,] (one element
// null) round-trips with its dims, decoded in one commit and in one
// commit per chunk of a 64-byte target, under both visited modes. The
// dims precede the element ids in the record, so rewire must address
// each element id behind them.
func TestStreamMultiDimObjectArray(t *testing.T) {
	src := newVM(t)
	mt := linkedArrayTypes(src)
	guard := &refGuard{refs: make([]vm.Ref, 1)}
	src.AddRootProvider(guard)
	defer src.RemoveRootProvider(guard)
	arr, err := src.Heap.AllocMultiDim(src.ArrayType(vm.KindRef, mt, 2), []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	guard.refs[0] = arr
	fID := mt.FieldByName("id")
	for i := 0; i < 6; i++ {
		if i == 4 {
			continue
		}
		cell := buildList(src, mt, 1, 4)
		src.Heap.SetScalar(cell, fID, uint64(100+i))
		src.Heap.SetElemRef(guard.refs[0], i, cell)
	}
	for _, mode := range []VisitedMode{VisitedMap, VisitedLinear} {
		sw := NewStreamWriter(src.Heap, guard.refs[0], Options{Visited: mode}, 64, nil)
		src.AddRootProvider(sw)
		chunks := collectStream(t, sw)
		src.RemoveRootProvider(sw)
		stream := concatChunks(chunks)
		want, err := SerializeStream(src.Heap, guard.refs[0], Options{Visited: mode}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, perChunk := range []bool{false, true} {
			dst := newVM(t)
			dmt := linkedArrayTypes(dst)
			var out vm.Ref
			if perChunk {
				sr, err := feedStream(dst, nil, chunks, 0)
				if err == nil {
					out, err = sr.Finish()
				}
				if err != nil {
					t.Fatalf("visited %d, per chunk: %v", mode, err)
				}
			} else if out, err = DeserializeStream(dst, stream); err != nil {
				t.Fatalf("visited %d, one commit: %v", mode, err)
			}
			h := dst.Heap
			if dims := h.Dims(out); len(dims) != 2 || dims[0] != 2 || dims[1] != 3 {
				t.Fatalf("visited %d, per chunk %v: dims %v, want [2 3]", mode, perChunk, dims)
			}
			for i := 0; i < 6; i++ {
				cell := h.GetElemRef(out, i)
				switch {
				case i == 4 && cell != vm.NullRef:
					t.Fatalf("visited %d, per chunk %v: element 4 not null", mode, perChunk)
				case i != 4 && (cell == vm.NullRef || h.GetScalar(cell, dmt.FieldByName("id")) != uint64(100+i)):
					t.Fatalf("visited %d, per chunk %v: element %d wired wrong", mode, perChunk, i)
				}
			}
			again, err := SerializeStream(h, out, Options{Visited: mode}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(want) {
				t.Fatalf("visited %d, per chunk %v: the decoded array serializes differently", mode, perChunk)
			}
		}
	}
}
