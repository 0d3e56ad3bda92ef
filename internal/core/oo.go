package core

import (
	"encoding/binary"
	"fmt"

	"motor/internal/mp"
	"motor/internal/obs"
	"motor/internal/serial"
	"motor/internal/vm"
)

// The extended object-oriented operations (paper §4.2.2, §7.5),
// distinguished by the "O" prefix: OSend / ORecv / OBcast / OScatter
// / OGather. They transport arbitrary objects, arrays of objects and
// Transportable-annotated object trees through the custom serializer.
// Serialization buffers come from the runtime-owned buffer stack, so
// — unlike the regular operations — no pinning is ever needed: the
// transport only touches native memory (§7.4).
//
// The representation is a chunked stream (serial/stream.go) and is
// never materialized whole: the sender pipelines — Isend of chunk k
// overlaps serialization of chunk k+1, with the polling-wait / GC-poll
// discipline preserved between chunks — and the receiver sizes its
// buffer per chunk from the probe, never trusting a whole-message size
// claim. Every chunk claim is capped against MaxOOMessage before any
// allocation.
//
// Point-to-point streams run the type-table cache: repeated sends of
// the same class shapes to the same peer transmit 5-byte table
// references; a receiver that cannot resolve one NACKs, and the
// sender answers with the self-describing table blob (serial/cache.go
// documents the epoch protocol). A sender that emitted at least one
// table reference therefore waits for the receiver's single ACK/NACK
// byte — symmetric ref-bearing OSends between two ranks can deadlock,
// exactly like symmetric blocking rendezvous sends.
//
// Every wait here — a chunk, a probe, the ACK — is a request awaited
// in Engine.await, under the op that waits.
//
// The OO message categories travel in reserved tag spaces above
// MaxUserTag (mp/oo.go), so interleaved OO operations on one comm
// never cross-match each other or regular user-tag traffic.

// ooChunkTarget returns the stream chunk target for point-to-point
// streams.
func (e *Engine) ooChunkTarget() int { return e.ooChunk }

// OO stream state comes from the engine's free lists (DESIGN.md, "OO
// stream state"): a stream takes a writer or reader when it starts,
// and drop unroots it before giving it back, unless it outgrew the
// retention bound. Each stream takes its own, so threads that yield
// inside OO ops never share one.

func (e *Engine) startWriter(root vm.Ref, target int, cache *serial.PeerCache) *serial.StreamWriter {
	sw := e.writers.take()
	sw.Reset(e.VM.Heap, root, e.serOpts, target, cache)
	e.VM.AddRootProvider(sw)
	return sw
}

// startPart starts a writer on the split part [lo,hi) of arr.
func (e *Engine) startPart(arr vm.Ref, lo, hi int) (*serial.StreamWriter, error) {
	sw := e.writers.take()
	if err := sw.ResetPart(e.VM.Heap, arr, lo, hi, e.serOpts, e.ooChunk); err != nil {
		return nil, err
	}
	e.VM.AddRootProvider(sw)
	return sw, nil
}

func (e *Engine) dropWriter(sw *serial.StreamWriter) {
	e.VM.RemoveRootProvider(sw)
	e.writers.put(sw, sw.Reusable())
}

// startReader starts a reader accumulating into a pooled buffer of at
// least bufCap bytes.
func (e *Engine) startReader(mirror *serial.TableMirror, bufCap int) *serial.StreamReader {
	sr := e.readers.take()
	sr.Reset(e.VM, mirror, e.bufs.get(bufCap, &e.Stats))
	e.VM.AddRootProvider(sr)
	return sr
}

func (e *Engine) dropReader(sr *serial.StreamReader) {
	e.VM.RemoveRootProvider(sr)
	e.bufs.put(sr.Buffer())
	e.readers.put(sr, sr.Reusable())
}

// freeList is a LIFO free list of OO stream writers or readers.
type freeList[T any] []*T

func (l *freeList[T]) take() *T {
	n := len(*l)
	if n == 0 {
		return new(T)
	}
	x := (*l)[n-1]
	*l = (*l)[:n-1]
	return x
}

func (l *freeList[T]) put(x *T, keep bool) {
	if keep {
		*l = append(*l, x)
	}
}

// chunkSpan records one explicit-identity KChunk span (chunk work
// overlaps other chunk work, so Begin/End stack nesting cannot hold).
func (e *Engine) chunkSpan(dir uint64, idx int, start int64, bytes int) {
	tr := obs.Active()
	if tr == nil {
		return
	}
	tr.Span(e.lane, obs.KChunk, tr.NewSpanID(), tr.Current(e.lane), start, dir, uint64(idx), uint64(bytes))
}

func spanStart() int64 {
	if tr := obs.Active(); tr != nil {
		return tr.Now()
	}
	return 0
}

// probe waits for the next OO message in a space and returns its
// status. A dead peer completes the probe with a typed error — never a
// hang.
func (e *Engine) probe(t *vm.Thread, source int, sp mp.OOSpace, tag int, op obs.OpCode) (mp.Status, error) {
	req, err := e.Comm.ProbeOO(source, sp, tag)
	if err != nil {
		return mp.Status{}, err
	}
	st, err := e.await(t, req, op)
	req.Recycle()
	st.Tag = tag // the wire tag, less its space
	return st, err
}

// streamOut pipelines one serialization stream to dest: two pooled
// chunk buffers rotate so chunk k is on the wire while chunk k+1 is
// serialized. On error the in-flight request is always drained, so no
// pooled buffer leaks.
func (e *Engine) streamOut(t *vm.Thread, sw *serial.StreamWriter, dest, tag int, sp mp.OOSpace, op obs.OpCode) error {
	var bufs [2][]byte
	bufs[0] = e.bufs.get(e.ooChunk+512, &e.Stats)
	bufs[1] = e.bufs.get(e.ooChunk+512, &e.Stats)
	defer func() {
		e.bufs.put(bufs[0])
		e.bufs.put(bufs[1])
	}()
	var inflight mp.Request
	var sendStart int64
	idx := 0
	total := 0
	for !sw.Done() {
		serStart := spanStart()
		chunk, err := sw.Next(bufs[idx%2][:0])
		if err != nil {
			if inflight.Valid() {
				_, _ = e.await(t, inflight, op) // drain; serializer error wins
			}
			return err
		}
		bufs[idx%2] = chunk
		e.chunkSpan(0, idx, serStart, len(chunk))
		if inflight.Valid() {
			if _, err := e.await(t, inflight, op); err != nil {
				return err
			}
			inflight.Recycle()
			e.chunkSpan(1, idx-1, sendStart, 0)
		}
		sendStart = spanStart()
		req, err := e.Comm.IsendOO(chunk, dest, sp, tag)
		if err != nil {
			return err
		}
		bump(&e.Stats.OOChunksSent, 1)
		total += len(chunk)
		inflight = req
		idx++
		if !sw.Done() {
			req.Detach() // in flight while the next chunk is serialized
		}
	}
	bump(&e.Stats.SerializedBytes, uint64(total))
	if inflight.Valid() {
		if _, err := e.await(t, inflight, op); err != nil {
			return err
		}
		inflight.Recycle()
		e.chunkSpan(1, idx-1, sendStart, 0)
	}
	return nil
}

// mergeTTStats folds one stream's table-cache activity into the
// engine's serial.ttcache counters.
func (e *Engine) mergeTTStats(sw *serial.StreamWriter) {
	bump(&e.TTCache.Hits, uint64(sw.TableRefs))
	bump(&e.TTCache.Misses, uint64(sw.TableFulls))
	bump(&e.TTCache.TableBytes, uint64(sw.TableBytes))
}

// OSend transports an object tree to dest (blocking).
func (e *Engine) OSend(t *vm.Thread, obj vm.Ref, dest, tag int) error {
	f := t.PushFrame(obj)
	defer f.Pop()
	t.PollGC()
	defer t.PollGC()
	bump(&e.Stats.OOSends, 1)
	tr := e.opBegin(obs.OpOSend, 0, dest)
	defer e.opEnd(tr)
	sw := e.startWriter(f.Ref(0), e.ooChunkTarget(), e.peerCache(dest))
	defer e.dropWriter(sw)
	err := e.streamOut(t, sw, dest, tag, mp.OOSpaceData, obs.OpOSend)
	e.mergeTTStats(sw)
	if err != nil {
		return e.noteErr(err)
	}
	if sw.TableRefs > 0 {
		if err := e.awaitTableAck(t, sw, dest, tag); err != nil {
			return e.noteErr(err)
		}
	}
	return nil
}

// streamIn receives one stream: per-chunk probe (size from the probe,
// capped against MaxOOMessage before any allocation), receive directly
// into the reader's accumulation buffer, incremental parse. useCache
// engages the receiver side of the type-table cache protocol.
func (e *Engine) streamIn(t *vm.Thread, source, tag int, sp mp.OOSpace, op obs.OpCode, useCache bool) (vm.Ref, mp.Status, error) {
	st, err := e.probe(t, source, sp, tag, op)
	if err != nil {
		return vm.NullRef, st, err
	}
	src := st.Source // locks an AnySource receive to one stream
	if st.Count < 0 || st.Count > e.maxOO {
		return vm.NullRef, st, fmt.Errorf("%w: %d claimed, cap %d", ErrOversize, st.Count, e.maxOO)
	}
	var mirror *serial.TableMirror
	if useCache {
		mirror = e.mirror(src)
	}
	sr := e.startReader(mirror, st.Count)
	defer e.dropReader(sr)
	total := 0
	idx := 0
	for {
		if st.Count < 0 || st.Count > e.maxOO-total {
			return vm.NullRef, st, fmt.Errorf("%w: %d accumulated + %d claimed, cap %d", ErrOversize, total, st.Count, e.maxOO)
		}
		recvStart := spanStart()
		req, err := e.Comm.IrecvOO(sr.Grow(st.Count), src, sp, tag)
		if err != nil {
			return vm.NullRef, st, err
		}
		if _, err := e.await(t, req, op); err != nil {
			return vm.NullRef, st, err
		}
		req.Recycle()
		bump(&e.Stats.OOChunksRecvd, 1)
		e.chunkSpan(2, idx, recvStart, st.Count)
		idx++
		total += st.Count
		if err := sr.Commit(st.Count); err != nil {
			return vm.NullRef, st, err
		}
		if sr.Ended() {
			break
		}
		st, err = e.probe(t, src, sp, tag, op)
		if err != nil {
			return vm.NullRef, st, err
		}
	}
	if useCache && sr.SawRefs() {
		if err := e.answerTables(t, sr, src, tag, op); err != nil {
			return vm.NullRef, st, err
		}
	}
	ref, err := sr.Finish()
	return ref, st, err
}

// ackBytes are the receiver's two answers in OOSpaceAck: ACK (0, every
// table reference resolved) and NACK (1, send the table blob). They
// are sent from here: an eager send copies its payload when it posts.
var ackBytes = [2]byte{0, 1}

// awaitTableAck is the sender's tail of the cache protocol: having
// emitted at least one table reference, wait for the receiver's one
// byte in OOSpaceAck — ACK completes the operation; NACK is answered
// with the stream's full table blob.
func (e *Engine) awaitTableAck(t *vm.Thread, sw *serial.StreamWriter, dest, tag int) error {
	answer := e.bufs.get(1, &e.Stats)[:1]
	defer e.bufs.put(answer)
	req, err := e.Comm.IrecvOO(answer, dest, mp.OOSpaceAck, tag)
	if err != nil {
		return err
	}
	_, err = e.await(t, req, obs.OpOSend)
	req.Recycle()
	if err != nil || answer[0] == 0 {
		return err
	}
	bump(&e.TTCache.Nacks, 1)
	blobBuf := e.bufs.get(1024, &e.Stats)
	blob, err := sw.TableBlob(blobBuf)
	if err != nil {
		e.bufs.put(blobBuf)
		return err
	}
	req, err = e.Comm.IsendOO(blob, dest, mp.OOSpaceTable, tag)
	if err != nil {
		e.bufs.put(blob)
		return err
	}
	_, err = e.await(t, req, obs.OpOSend)
	e.bufs.put(blob)
	return err
}

// answerTables is the receiver's side of the cache protocol: one byte
// in OOSpaceAck, ACK if every table reference resolved; otherwise NACK,
// then receive the sender's full table blob and install it, unstalling
// the parse.
func (e *Engine) answerTables(t *vm.Thread, sr *serial.StreamReader, src, tag int, op obs.OpCode) error {
	missing := sr.MissingTables() > 0
	answer := ackBytes[:1]
	if missing {
		answer = ackBytes[1:]
	}
	req, err := e.Comm.IsendOO(answer, src, mp.OOSpaceAck, tag)
	if err != nil {
		return err
	}
	_, err = e.await(t, req, op)
	req.Recycle()
	if err != nil || !missing {
		return err
	}
	bst, err := e.probe(t, src, mp.OOSpaceTable, tag, op)
	if err != nil {
		return err
	}
	if bst.Count < 0 || bst.Count > e.maxOO {
		return fmt.Errorf("%w: table blob of %d, cap %d", ErrOversize, bst.Count, e.maxOO)
	}
	blob := e.bufs.get(bst.Count, &e.Stats)[:bst.Count]
	defer e.bufs.put(blob)
	req, err = e.Comm.IrecvOO(blob, src, mp.OOSpaceTable, tag)
	if err != nil {
		return err
	}
	_, err = e.await(t, req, op)
	req.Recycle()
	if err != nil {
		return err
	}
	return sr.InstallTable(blob)
}

// pollRooted is the exit safepoint of an op that returns a reference:
// ref stays rooted across the poll, where a sibling thread may collect.
func pollRooted(t *vm.Thread, ref vm.Ref) vm.Ref {
	f := t.PushFrame(ref)
	t.PollGC()
	ref = f.Ref(0)
	f.Pop()
	return ref
}

// ORecv receives an object tree, reconstructing it on this rank's
// heap. It returns the new root object.
func (e *Engine) ORecv(t *vm.Thread, source, tag int) (vm.Ref, mp.Status, error) {
	t.PollGC()
	bump(&e.Stats.OORecvs, 1)
	tr := e.opBegin(obs.OpORecv, 0, source)
	defer e.opEnd(tr)
	ref, st, err := e.streamIn(t, source, tag, mp.OOSpaceData, obs.OpORecv, true)
	return pollRooted(t, ref), st, e.noteErr(err)
}

// OBcast broadcasts the root's object tree; non-roots receive and
// return the reconstructed tree (the root returns obj unchanged).
// Chunks ride the buffered Bcast under a 5-byte [len,last] header per
// round; chunk targets stay below the eager threshold so a rank that
// bails (oversize cap) cannot strand the root in a rendezvous.
func (e *Engine) OBcast(t *vm.Thread, obj vm.Ref, root int) (res vm.Ref, err error) {
	f := t.PushFrame(obj)
	defer f.Pop()
	t.PollGC()
	defer func() { res = pollRooted(t, res) }()
	tr := e.opBegin(obs.OpOBcast, 0, root)
	defer e.opEnd(tr)
	target := e.ooChunk
	if em := e.Comm.EagerMax() - 64; em > 0 && target > em {
		target = em
	}
	hdr := make([]byte, 5)
	if e.Comm.Rank() == root {
		bump(&e.Stats.OOSends, 1)
		sw := e.startWriter(f.Ref(0), target, nil)
		defer e.dropWriter(sw)
		buf := e.bufs.get(target+512, &e.Stats)
		defer func() { e.bufs.put(buf) }()
		idx := 0
		total := 0
		for !sw.Done() {
			serStart := spanStart()
			chunk, err := sw.Next(buf[:0])
			if err != nil {
				return vm.NullRef, err
			}
			buf = chunk
			e.chunkSpan(0, idx, serStart, len(chunk))
			binary.LittleEndian.PutUint32(hdr, uint32(len(chunk)))
			hdr[4] = 0
			if sw.Done() {
				hdr[4] = 1
			}
			if err := e.Comm.Bcast(hdr, root); err != nil {
				return vm.NullRef, e.noteErr(err)
			}
			sendStart := spanStart()
			if err := e.Comm.Bcast(chunk, root); err != nil {
				return vm.NullRef, e.noteErr(err)
			}
			bump(&e.Stats.OOChunksSent, 1)
			e.chunkSpan(1, idx, sendStart, len(chunk))
			idx++
			total += len(chunk)
		}
		bump(&e.Stats.SerializedBytes, uint64(total))
		return f.Ref(0), nil
	}
	bump(&e.Stats.OORecvs, 1)
	sr := e.startReader(nil, target)
	defer e.dropReader(sr)
	total := 0
	idx := 0
	for {
		if err := e.Comm.Bcast(hdr, root); err != nil {
			return vm.NullRef, e.noteErr(err)
		}
		n := int(binary.LittleEndian.Uint32(hdr))
		last := hdr[4] != 0
		if n < 0 || n > e.maxOO-total {
			return vm.NullRef, fmt.Errorf("%w: %d accumulated + %d claimed, cap %d", ErrOversize, total, n, e.maxOO)
		}
		recvStart := spanStart()
		if err := e.Comm.Bcast(sr.Grow(n), root); err != nil {
			return vm.NullRef, e.noteErr(err)
		}
		bump(&e.Stats.OOChunksRecvd, 1)
		e.chunkSpan(2, idx, recvStart, n)
		idx++
		total += n
		if err := sr.Commit(n); err != nil {
			return vm.NullRef, err
		}
		if last {
			break
		}
	}
	return sr.Finish()
}

// loopback runs one stream writer straight into a local stream reader
// — the root's own part of an OO collective, taking the same
// serialize/deserialize copy semantics as the transported parts.
func (e *Engine) loopback(t *vm.Thread, sw *serial.StreamWriter) (vm.Ref, error) {
	sr := e.startReader(nil, e.ooChunk)
	defer e.dropReader(sr)
	scratch := e.bufs.get(e.ooChunk+512, &e.Stats)
	defer func() { e.bufs.put(scratch) }()
	for !sw.Done() {
		chunk, err := sw.Next(scratch[:0])
		if err != nil {
			return vm.NullRef, err
		}
		scratch = chunk
		copy(sr.Grow(len(chunk)), chunk)
		if err := sr.Commit(len(chunk)); err != nil {
			return vm.NullRef, err
		}
		t.PollGC()
	}
	return sr.Finish()
}

// OScatter splits the root's object array across ranks: each rank
// (including the root) receives its contiguous sub-array as a fresh
// array object. Parts are streamed point-to-point in rank order under
// the OO collective tag space; the split representation (§7.5) makes
// each part independently deserializable — the capability the paper
// highlights as impossible with standard Java/CLI serialization.
func (e *Engine) OScatter(t *vm.Thread, arr vm.Ref, root int) (res vm.Ref, err error) {
	f := t.PushFrame(arr)
	defer f.Pop()
	t.PollGC()
	defer func() { res = pollRooted(t, res) }()
	tr := e.opBegin(obs.OpOScatter, 0, root)
	defer e.opEnd(tr)
	seq := e.Comm.NextOOSeq()
	if e.Comm.Rank() != root {
		bump(&e.Stats.OORecvs, 1)
		ref, _, err := e.streamIn(t, root, seq, mp.OOSpaceColl, obs.OpOScatter, false)
		return ref, e.noteErr(err)
	}
	bump(&e.Stats.OOSends, 1)
	h := e.VM.Heap
	if f.Ref(0) == vm.NullRef {
		return vm.NullRef, fmt.Errorf("serial: split of null array")
	}
	if mt := h.MT(f.Ref(0)); mt.Kind != vm.TKArray || mt.Rank != 1 {
		return vm.NullRef, fmt.Errorf("serial: split requires a rank-1 array, got %s", mt)
	}
	n := h.Length(f.Ref(0))
	size := e.Comm.Size()
	var firstErr error
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		lo, hi := serial.PartRange(n, size, r)
		sw, err := e.startPart(f.Ref(0), lo, hi)
		if err != nil {
			return vm.NullRef, err // arr is invalid: no part can be produced
		}
		err = e.streamOut(t, sw, r, seq, mp.OOSpaceColl, obs.OpOScatter)
		e.dropWriter(sw)
		if err != nil && firstErr == nil {
			// Keep streaming to the remaining ranks so one dead peer
			// does not strand the others mid-collective.
			firstErr = err
		}
	}
	if firstErr != nil {
		return vm.NullRef, e.noteErr(firstErr)
	}
	lo, hi := serial.PartRange(n, size, root)
	sw, err := e.startPart(f.Ref(0), lo, hi)
	if err != nil {
		return vm.NullRef, err
	}
	defer e.dropWriter(sw)
	bump(&e.Stats.OORecvs, 1)
	return e.loopback(t, sw)
}

// OGather reassembles per-rank object arrays into one array at the
// root ("the deserialization mechanism takes many split
// representations and reconstructs them into a single array", §7.5).
// Every rank streams its whole array to the root under the OO
// collective tag space; non-roots return the null reference.
func (e *Engine) OGather(t *vm.Thread, arr vm.Ref, root int) (res vm.Ref, err error) {
	f := t.PushFrame(arr)
	defer f.Pop()
	t.PollGC()
	defer func() { res = pollRooted(t, res) }()
	if f.Ref(0) == vm.NullRef {
		return vm.NullRef, ErrNullObject
	}
	mt := e.VM.Heap.MT(f.Ref(0))
	if mt.Kind != vm.TKArray {
		return vm.NullRef, fmt.Errorf("%w: OGather of %s", ErrNotArray, mt)
	}
	bump(&e.Stats.OOSends, 1)
	tr := e.opBegin(obs.OpOGather, 0, root)
	defer e.opEnd(tr)
	seq := e.Comm.NextOOSeq()
	if e.Comm.Rank() != root {
		sw := e.startWriter(f.Ref(0), e.ooChunkTarget(), nil)
		defer e.dropWriter(sw)
		if err := e.streamOut(t, sw, root, seq, mp.OOSpaceColl, obs.OpOGather); err != nil {
			return vm.NullRef, e.noteErr(err)
		}
		return vm.NullRef, nil
	}
	bump(&e.Stats.OORecvs, 1)
	size := e.Comm.Size()
	guard := &vm.RefRoots{Refs: make([]vm.Ref, size)}
	e.VM.AddRootProvider(guard)
	defer e.VM.RemoveRootProvider(guard)
	var firstErr error
	for r := 0; r < size; r++ {
		if r == root {
			sw := e.startWriter(f.Ref(0), e.ooChunkTarget(), nil)
			ref, err := e.loopback(t, sw)
			e.dropWriter(sw)
			if err != nil {
				return vm.NullRef, err
			}
			guard.Refs[r] = ref
			continue
		}
		ref, _, err := e.streamIn(t, r, seq, mp.OOSpaceColl, obs.OpOGather, false)
		if err != nil && firstErr == nil {
			// Keep draining the remaining senders so their streams
			// complete; the first error is reported after.
			firstErr = err
			continue
		}
		guard.Refs[r] = ref
	}
	if firstErr != nil {
		return vm.NullRef, e.noteErr(firstErr)
	}
	return serial.GatherRefs(e.VM, guard.Refs)
}
