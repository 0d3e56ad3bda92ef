package core

import "motor/internal/obs"

// Tracing hooks for the engine layer. Every helper starts with the
// one-atomic-load gate (obs.Active); with tracing off they cost one
// predictable branch.

// opBegin opens a KOp span for an engine operation. peer < 0 (any-
// source receives, peerless collectives) encodes as ^0 so the export
// layer can omit it.
func (e *Engine) opBegin(op obs.OpCode, bytes, peer int) *obs.Tracer {
	tr := obs.Active()
	if tr != nil {
		p := ^uint64(0)
		if peer >= 0 {
			p = uint64(peer)
		}
		tr.Begin(e.lane, obs.KOp, uint64(op), uint64(bytes), p)
	}
	return tr
}

// opEnd closes a blocking operation's span and feeds the blocking-op
// latency histogram. A zero duration means the span overflowed the
// lane stack — no sample, not a zero-latency op.
func (e *Engine) opEnd(tr *obs.Tracer) {
	if tr != nil {
		if d := tr.End(e.lane); d > 0 {
			tr.Record(obs.HistBlockingOp, d)
		}
	}
}

// opEndQuick closes a non-blocking operation's posting span without a
// histogram sample (post cost is not an operation latency).
func (e *Engine) opEndQuick(tr *obs.Tracer) {
	if tr != nil {
		tr.End(e.lane)
	}
}
