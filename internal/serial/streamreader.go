package serial

import (
	"encoding/binary"
	"fmt"

	"motor/internal/vm"
)

// StreamReader consumes a v2 stream incrementally: transport appends
// chunk bytes with Grow/Commit, and the reader scans sections and
// parses (allocates + fills) object records as soon as their bytes are
// complete — so deserialization overlaps the wire just like the
// writer side. Each parse is followed by rewiring reference slots in
// record order while the objects they name are allocated; ids can
// point forward across chunks, so Finish rewires what is left.
//
// When a table reference cannot be resolved against the mirror the
// reader stalls record parsing (sections are still scanned, so the
// stream always drains); the caller NACKs the sender, feeds the
// TableBlob to InstallTable, and Finish completes the parse.
//
// Register the reader as a vm.RootProvider while it runs: record
// parsing allocates, and the already-allocated objects live in refs.
type StreamReader struct {
	rd     reader
	mirror *TableMirror
	own    TableMirror // the mirror of a reader given none

	scan      int // section-scan cursor into rd.data
	gotHeader bool
	epoch     uint32
	rootID    uint32
	ended     bool
	endCount  uint32
	sawRef    bool

	meta       []streamTypeMeta // parallel to rd.types
	unresolved int

	runs   [][2]int // completed data-section payload ranges
	curRun int
}

type streamTypeMeta struct {
	id uint32 // cache id (ordinal when self-describing)
	ok bool   // resolved against the local registry
}

// NewStreamReader builds a reader accumulating into buf (pass a
// recycled zero-length buffer; it grows as needed — reclaim it with
// Buffer after Finish). mirror may be nil for self-describing streams;
// a stream that then carries table references fails at Finish.
func NewStreamReader(v *vm.VM, mirror *TableMirror, buf []byte) *StreamReader {
	sr := new(StreamReader)
	sr.Reset(v, mirror, buf)
	return sr
}

// Reset starts a new stream on sr, as NewStreamReader does, reusing
// the storage of its previous stream (which may have failed). sr must
// not be registered as a root provider while it is reset.
func (sr *StreamReader) Reset(v *vm.VM, mirror *TableMirror, buf []byte) {
	if mirror == nil {
		mirror = &sr.own
		mirror.Epoch = 0
		clear(mirror.entries)
	}
	rd := &sr.rd
	*sr = StreamReader{
		rd:     reader{v: v, data: buf[:0], types: rd.types[:0], refs: rd.refs[:0], records: rd.records[:0]},
		mirror: mirror, own: sr.own, meta: sr.meta[:0], runs: sr.runs[:0],
	}
}

// Reusable reports whether sr's last stream was small enough for its
// storage to be kept for another (see retainLimit).
func (sr *StreamReader) Reusable() bool {
	return len(sr.rd.refs)+len(sr.rd.types)+len(sr.runs) <= retainLimit
}

// VisitRoots implements vm.RootProvider.
func (sr *StreamReader) VisitRoots(visit func(vm.Ref) vm.Ref) { sr.rd.VisitRoots(visit) }

// Grow returns a length-n slice at the accumulation buffer's tail for
// transport to receive the next chunk into directly (no staging copy);
// call Commit with the byte count actually received.
func (sr *StreamReader) Grow(n int) []byte {
	d := sr.rd.data
	need := len(d) + n
	if cap(d) < need {
		nc := 2 * cap(d)
		if nc < need {
			nc = need
		}
		if nc < 1024 {
			nc = 1024
		}
		nd := make([]byte, len(d), nc)
		copy(nd, d)
		sr.rd.data = nd
		d = nd
	}
	return d[len(d):need]
}

// Commit appends n received bytes (previously handed out by Grow) to
// the stream and advances scanning and record parsing as far as the
// committed bytes allow.
func (sr *StreamReader) Commit(n int) error {
	sr.rd.data = sr.rd.data[:len(sr.rd.data)+n]
	return sr.drain()
}

// Buffer returns the accumulation buffer so the caller can recycle it
// once the reader is finished.
func (sr *StreamReader) Buffer() []byte { return sr.rd.data }

// Ended reports whether the end section has been scanned — the stream
// is complete on the wire and no further chunks should be expected.
func (sr *StreamReader) Ended() bool { return sr.ended }

// SawRefs reports whether the stream used any table references (the
// sender awaits an ACK/NACK exactly when it emitted one).
func (sr *StreamReader) SawRefs() bool { return sr.sawRef }

// MissingTables reports how many table references remain unresolved.
func (sr *StreamReader) MissingTables() int { return sr.unresolved }

// drain scans complete sections out of the committed bytes, then
// parses records unless a table reference is unresolved. An incomplete
// trailing section simply waits for more bytes (Finish turns that into
// a truncation error if the stream ends there).
func (sr *StreamReader) drain() error {
	d := sr.rd.data
	if !sr.gotHeader {
		if len(d)-sr.scan < streamHeaderSize {
			return nil
		}
		if m := binary.LittleEndian.Uint32(d[sr.scan:]); m != streamMagic {
			return sr.rd.fail("bad stream magic %#x", m)
		}
		if v := d[sr.scan+4]; v != streamVersion {
			return sr.rd.fail("stream version %d", v)
		}
		sr.epoch = binary.LittleEndian.Uint32(d[sr.scan+8:])
		sr.rootID = binary.LittleEndian.Uint32(d[sr.scan+12:])
		sr.scan += streamHeaderSize
		sr.gotHeader = true
		if sr.epoch != 0 {
			sr.mirror.sync(sr.epoch)
		}
	}
scan:
	for {
		rem := len(d) - sr.scan
		if sr.ended {
			if rem > 0 {
				return sr.rd.fail("%d trailing bytes after end section", rem)
			}
			break
		}
		if rem < 1 {
			break
		}
		switch d[sr.scan] {
		case secTableFull:
			if rem < 7 {
				break scan
			}
			id := binary.LittleEndian.Uint32(d[sr.scan+1:])
			elen := int(binary.LittleEndian.Uint16(d[sr.scan+5:]))
			if rem < 7+elen {
				break scan
			}
			raw := d[sr.scan+7 : sr.scan+7+elen]
			wt, err := parseEntry(sr.rd.v, raw)
			if err != nil {
				return err
			}
			sr.rd.types = append(sr.rd.types, wt)
			sr.meta = append(sr.meta, streamTypeMeta{id: id, ok: true})
			if sr.epoch != 0 && id != 0 {
				// The mirror outlives this stream's buffer: copy.
				sr.mirror.install(id, append([]byte(nil), raw...))
			}
			sr.scan += 7 + elen
		case secTableRef:
			if rem < 5 {
				break scan
			}
			if sr.epoch == 0 {
				return sr.rd.fail("table reference in self-describing stream")
			}
			id := binary.LittleEndian.Uint32(d[sr.scan+1:])
			sr.sawRef = true
			wt, ok, err := sr.mirror.resolve(sr.rd.v, id)
			if err != nil {
				return err
			}
			if !ok {
				sr.unresolved++
			}
			sr.rd.types = append(sr.rd.types, wt)
			sr.meta = append(sr.meta, streamTypeMeta{id: id, ok: ok})
			sr.scan += 5
		case secData:
			if rem < 5 {
				break scan
			}
			dlen := binary.LittleEndian.Uint32(d[sr.scan+1:])
			if uint64(rem) < 5+uint64(dlen) {
				break scan
			}
			start := sr.scan + 5
			sr.runs = append(sr.runs, [2]int{start, start + int(dlen)})
			sr.scan = start + int(dlen)
		case secEnd:
			if rem < 5 {
				break scan
			}
			sr.endCount = binary.LittleEndian.Uint32(d[sr.scan+1:])
			sr.ended = true
			sr.scan += 5
		default:
			return sr.rd.fail("section tag %d", d[sr.scan])
		}
	}
	if sr.unresolved > 0 {
		return nil // stalled: keep draining the wire, parse at Finish
	}
	if err := sr.parseRuns(); err != nil {
		return err
	}
	return sr.rd.rewire(false)
}

// parseRuns consumes records out of every completed data section.
// Records never straddle sections, so each run must end exactly on a
// record boundary.
func (sr *StreamReader) parseRuns() error {
	for sr.curRun < len(sr.runs) {
		run := sr.runs[sr.curRun]
		if sr.rd.pos < run[0] {
			sr.rd.pos = run[0]
		}
		sr.rd.limit = run[1]
		for sr.rd.pos < run[1] {
			if err := sr.rd.allocRecord(); err != nil {
				return err
			}
		}
		sr.curRun++
	}
	return nil
}

// InstallTable feeds a sender's TableBlob (the NACK answer) into the
// mirror and resolves the stalled table references.
func (sr *StreamReader) InstallTable(blob []byte) error {
	br := &reader{v: sr.rd.v, data: blob, limit: len(blob)}
	epoch, err := br.u32()
	if err != nil {
		return err
	}
	if epoch != sr.epoch {
		return sr.rd.fail("table blob epoch %d != stream epoch %d", epoch, sr.epoch)
	}
	count, err := br.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < count; i++ {
		id, err := br.u32()
		if err != nil {
			return err
		}
		elen, err := br.u16()
		if err != nil {
			return err
		}
		if err := br.need(int(elen)); err != nil {
			return err
		}
		raw := append([]byte(nil), blob[br.pos:br.pos+int(elen)]...)
		br.pos += int(elen)
		sr.mirror.install(id, raw)
	}
	for i := range sr.meta {
		m := &sr.meta[i]
		if m.ok {
			continue
		}
		wt, hit, err := sr.mirror.resolve(sr.rd.v, m.id)
		if err != nil {
			return err
		}
		if !hit {
			continue
		}
		sr.rd.types[i] = wt
		m.ok = true
		sr.unresolved--
	}
	return nil
}

// Finish completes the stream: any stalled records are parsed, the
// record count is checked against the end section, and the references
// not yet rewired are. Returns the root.
func (sr *StreamReader) Finish() (vm.Ref, error) {
	if !sr.ended {
		return vm.NullRef, sr.rd.fail("stream truncated (no end section)")
	}
	if sr.unresolved > 0 {
		return vm.NullRef, fmt.Errorf("%w: %d unresolved table references", ErrTypeless, sr.unresolved)
	}
	if err := sr.parseRuns(); err != nil {
		return vm.NullRef, err
	}
	if uint32(len(sr.rd.refs)) != sr.endCount {
		return vm.NullRef, sr.rd.fail("object count %d != %d records", sr.endCount, len(sr.rd.refs))
	}
	if err := sr.rd.rewire(true); err != nil {
		return vm.NullRef, err
	}
	return sr.rd.resolve(sr.rootID)
}

// DeserializeStream reconstructs an object tree from a complete stream
// (the self-describing form; cached table references need a live
// mirror and go through StreamReader directly).
func DeserializeStream(v *vm.VM, data []byte) (vm.Ref, error) {
	sr := NewStreamReader(v, nil, nil)
	copy(sr.Grow(len(data)), data)
	v.AddRootProvider(sr)
	defer v.RemoveRootProvider(sr)
	if err := sr.Commit(len(data)); err != nil {
		return vm.NullRef, err
	}
	return sr.Finish()
}
