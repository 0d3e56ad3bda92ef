package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Name tables for the export layer. These are display-layer
// duplicates of subsystem enums — obs is a leaf package and cannot
// import the types that own them.

var opNames = map[OpCode]string{
	OpSend: "Send", OpRecv: "Recv", OpIsend: "Isend", OpIrecv: "Irecv",
	OpWait: "Wait", OpBarrier: "Barrier", OpBcast: "Bcast",
	OpScatter: "Scatter", OpGather: "Gather", OpAllgather: "Allgather",
	OpAlltoall: "Alltoall", OpAllreduce: "Allreduce", OpReduce: "Reduce",
	OpSendrecv: "Sendrecv", OpOSend: "OSend", OpORecv: "ORecv",
	OpOBcast: "OBcast", OpOScatter: "OScatter", OpOGather: "OGather",
	OpDevWait: "devwait",
}

// OpName returns the display name for an engine op code.
func OpName(op OpCode) string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return "op" + strconv.FormatUint(uint64(op), 10)
}

var pinNames = map[PinDecision]string{
	PinSkippedElder: "skipped-elder",
	PinAvoidedFast:  "avoided-fast",
	PinDeferred:     "deferred",
	PinEager:        "eager",
	PinCond:         "cond-pin",
	PinHeldMoved:    "held-moved",
}

// PinName returns the display name for a pin decision.
func PinName(d PinDecision) string {
	if s, ok := pinNames[d]; ok {
		return s
	}
	return "pin" + strconv.FormatUint(uint64(d), 10)
}

var phaseNames = map[GCPhase]string{
	PhaseHooks:    "hooks",
	PhaseCondPins: "cond-pins",
	PhaseScavenge: "scavenge",
	PhaseMark:     "mark",
	PhaseSweep:    "sweep",
	PhaseRoots:    "roots",
	PhaseCompact:  "compact",
}

var pktNames = map[uint64]string{
	1: "EAGER", 2: "RTS", 3: "CTS", 4: "DATA", 5: "CTRL",
}

// CollAlgoName is set by the mp package at init time so collective
// spans export the selector's algorithm names without an import
// cycle. Nil until a world is built; the export falls back to the
// numeric code.
var CollAlgoName func(code uint64) string

func collAlgo(code uint64) string {
	if CollAlgoName != nil {
		return CollAlgoName(code)
	}
	return "algo" + strconv.FormatUint(code, 10)
}

// traceEvent is one Chrome trace_event record (the subset of the
// format Perfetto and about:tracing load: "X" complete events, "b"/"e"
// async pairs, "i" instants, and "M" metadata).
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   *float64       `json:"dur,omitempty"`
	PID   int32          `json:"pid"`
	TID   int32          `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	BP    string         `json:"bp,omitempty"` // flow-finish binding ("e"), merge pass only
	Args  map[string]any `json:"args,omitempty"`
}

const (
	tidMain  = 1 // rank's managed thread: ops, waits, GC, collectives
	tidAsync = 2 // async ADI request track
)

// renderEvent converts one ring event to its trace_event records.
// Span-carrying events also expose their span/parent ids in args so
// the correlation survives the export.
func renderEvent(ev Event) []traceEvent {
	us := float64(ev.TS) / 1e3
	dur := float64(ev.Dur) / 1e3
	base := map[string]any{}
	if ev.Span != 0 {
		base["span"] = ev.Span
	}
	if ev.Parent != 0 {
		base["parent"] = ev.Parent
	}
	complete := func(name, cat string, args map[string]any) []traceEvent {
		d := dur
		return []traceEvent{{Name: name, Cat: cat, Phase: "X", TS: us, Dur: &d,
			PID: ev.Lane, TID: tidMain, Args: args}}
	}
	instant := func(name, cat string, args map[string]any) []traceEvent {
		return []traceEvent{{Name: name, Cat: cat, Phase: "i", TS: us, Scope: "t",
			PID: ev.Lane, TID: tidMain, Args: args}}
	}

	switch ev.Kind {
	case KOp:
		base["bytes"] = ev.Arg1
		if ev.Arg2 != ^uint64(0) {
			base["peer"] = ev.Arg2
		}
		return complete(OpName(OpCode(ev.Arg0)), "op", base)
	case KWait:
		return complete("wait:"+OpName(OpCode(ev.Arg0)), "op", base)
	case KPin:
		base["ref"] = fmt.Sprintf("0x%x", ev.Arg1)
		return instant("pin:"+PinName(PinDecision(ev.Arg0)), "pin", base)
	case KADIReq:
		// Async span on its own track: request lifetime doesn't nest
		// inside the posting op (completion can happen under a later
		// op's progress loop).
		dir := "send"
		if ReqDir(ev.Arg0) == ReqRecv {
			dir = "recv"
		}
		name := "req:" + dir
		id := strconv.FormatUint(ev.Span, 16)
		base["peer"] = ev.Arg1
		base["bytes"] = ev.Arg2
		return []traceEvent{
			{Name: name, Cat: "adi", Phase: "b", TS: us, PID: ev.Lane, TID: tidAsync, ID: id, Args: base},
			{Name: name, Cat: "adi", Phase: "e", TS: us + dur, PID: ev.Lane, TID: tidAsync, ID: id},
		}
	case KFrame:
		dir := "out"
		if FrameDir(ev.Arg0) == FrameIn {
			dir = "in"
		}
		pkt := pktNames[ev.Arg1]
		if pkt == "" {
			pkt = "PKT" + strconv.FormatUint(ev.Arg1, 10)
		}
		base["peer"] = ev.Arg2
		base["bytes"] = ev.Arg3
		return instant("frame:"+dir+":"+pkt, "channel", base)
	case KGC:
		name := "gc:scavenge"
		if GCKind(ev.Arg0) == GCFull {
			name = "gc:full"
		}
		return complete(name, "gc", base)
	case KGCPhase:
		ph := phaseNames[GCPhase(ev.Arg0)]
		if ph == "" {
			ph = "phase" + strconv.FormatUint(ev.Arg0, 10)
		}
		return complete("gc:"+ph, "gc", base)
	case KCondPin:
		name := "condpin:dropped"
		if ev.Arg0 != 0 {
			name = "condpin:held"
		}
		base["ref"] = fmt.Sprintf("0x%x", ev.Arg1)
		return instant(name, "gc", base)
	case KColl:
		base["algo"] = collAlgo(ev.Arg1)
		base["bytes"] = ev.Arg2
		if ev.Arg3 != 0 {
			// Cross-rank alignment key: every rank of a communicator
			// advances the collective seq identically, so (cctx, seq)
			// names the same collective instance on every rank.
			base["cctx"] = ev.Arg3 >> 32
			base["seq"] = ev.Arg3 & 0xffffffff
		}
		return complete("coll:"+OpName(OpCode(ev.Arg0)), "coll", base)
	case KCollStep:
		base["step"] = ev.Arg0
		base["bytes"] = ev.Arg1
		return complete("coll:step", "coll", base)
	case KSerial:
		name := "serialize"
		if ev.Arg0 != 0 {
			name = "deserialize"
		}
		base["bytes"] = ev.Arg1
		return complete(name, "oo", base)
	case KChunk:
		name := "chunk:serialize"
		switch ev.Arg0 {
		case 1:
			name = "chunk:send"
		case 2:
			name = "chunk:recv"
		}
		base["chunk"] = ev.Arg1
		base["bytes"] = ev.Arg2
		return complete(name, "oo", base)
	case KEdge:
		// One half of a cross-rank message edge. The corr id is what
		// the merge pass keys flow events on; src/dst/seq make the
		// raw trace greppable without unpacking.
		dir := "send"
		if EdgeDir(ev.Arg0) == EdgeRecv {
			dir = "recv"
		}
		src, dst, seq := CorrParts(ev.Arg1)
		base["corr"] = fmt.Sprintf("%016x", ev.Arg1)
		base["src"] = src
		base["dst"] = dst
		base["seq"] = seq
		base["ctx"] = ev.Arg2 >> 32
		base["tag"] = ev.Arg2 & 0xffffffff
		base["bytes"] = ev.Arg3
		return instant("edge:"+dir, "edge", base)
	case KProgress:
		// Async track: the progress engine runs outside any op span.
		base["passes"] = ev.Arg0
		id := strconv.FormatUint(ev.Span, 16)
		return []traceEvent{
			{Name: "progress", Cat: "progress", Phase: "b", TS: us, PID: ev.Lane, TID: tidAsync, ID: id, Args: base},
			{Name: "progress", Cat: "progress", Phase: "e", TS: us + dur, PID: ev.Lane, TID: tidAsync, ID: id},
		}
	default:
		return instant("event:"+strconv.Itoa(int(ev.Kind)), "misc", base)
	}
}

// WriteChromeTrace exports the tracer's events as Chrome trace_event
// JSON (the {"traceEvents": [...]} object form, loadable in
// about:tracing and Perfetto). Events are written in timestamp order;
// each rank becomes a process, with the managed thread and the async
// ADI-request track as its two threads.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	evs := t.Events()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })

	lanes := map[int32]bool{}
	var out []traceEvent
	for _, ev := range evs {
		lanes[ev.Lane] = true
		out = append(out, renderEvent(ev)...)
	}
	var meta []traceEvent
	for lane := range lanes {
		meta = append(meta,
			traceEvent{Name: "process_name", Phase: "M", PID: lane, TID: 0,
				Args: map[string]any{"name": "rank " + strconv.Itoa(int(lane))}},
			traceEvent{Name: "thread_name", Phase: "M", PID: lane, TID: tidMain,
				Args: map[string]any{"name": "managed thread"}},
			traceEvent{Name: "thread_name", Phase: "M", PID: lane, TID: tidAsync,
				Args: map[string]any{"name": "adi requests"}},
		)
	}
	sort.SliceStable(meta, func(i, j int) bool {
		if meta[i].PID != meta[j].PID {
			return meta[i].PID < meta[j].PID
		}
		return meta[i].TID < meta[j].TID
	})

	doc := struct {
		TraceEvents []traceEvent   `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata,omitempty"`
	}{
		TraceEvents: append(meta, out...),
		Metadata: map[string]any{
			"motor-trace-version": SnapshotVersion,
			"dropped-events":      t.Dropped(),
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteMetricsJSON exports a registry snapshot as flat JSON.
func WriteMetricsJSON(w io.Writer, snap Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// WriteMetricsText exports a registry snapshot as sorted
// "group.field value" lines — easy to diff and grep.
func WriteMetricsText(w io.Writer, snap Snapshot) error {
	if _, err := fmt.Fprintf(w, "# motor metrics v%d seq=%d\n", snap.Version, snap.Seq); err != nil {
		return err
	}
	for _, g := range snap.Groups {
		for _, f := range g.Fields {
			if _, err := fmt.Fprintf(w, "%s.%s %d\n", g.Name, f.Name, f.Value); err != nil {
				return err
			}
		}
	}
	if len(snap.Hists) > 0 {
		names := make([]string, 0, len(snap.Hists))
		for n := range snap.Hists {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h := snap.Hists[n]
			if _, err := fmt.Fprintf(w, "hist.%s count=%d mean=%.0f p50=%d p95=%d p99=%d max=%d\n",
				n, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max); err != nil {
				return err
			}
		}
	}
	return nil
}
