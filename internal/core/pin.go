package core

import (
	"motor/internal/mp"
	"motor/internal/obs"
	"motor/internal/vm"
)

// The pinning policy (§4.3, §7.4) as one table: every buffer the
// engine hands the transport is decided by pinFor.

// pinShape is the point of an operation at which a buffer is decided.
type pinShape uint8

const (
	shapeEntry       pinShape = iota // blocking op, before it posts
	shapeWait                        // blocking op: a done request is the fast path, nil the wait's entry
	shapePending                     // blocking op, request posted
	shapeNonblocking                 // immediate op, request posted
	shapeCollective                  // collective buffer, for the whole call
	numShapes
)

// pinAct is what a cell holds on the buffer.
type pinAct uint8

const (
	holdNone    pinAct = iota
	holdPin            // explicit pin
	holdPending        // explicit pin, while the request is pending
	holdMoved          // explicit pin, while pending, if the collector moves elder objects
	holdCond           // conditional pin request, resolved by the mark phase
)

// pinCell is one decision: what to hold and which obs.PinDecision (and
// Stats counter) to record; 0 records nothing.
type pinCell struct {
	d    obs.PinDecision
	hold pinAct
}

// pinTable[policy][shape] is the {young, elder} pair of cells; a cell
// left out holds and records nothing (all of PolicyNever). An elder
// buffer never needs the §7.4 pin, but while a compacting collector
// could slide it the transport's fixed offsets still need it held:
// holdMoved, recorded as held-moved, or as skipped-elder where nothing
// is held after all (a collector that never moves elder objects, or a
// request already done). A request already done when decided lapses
// every hold but holdPin, and a deferred pin is then recorded as
// avoided-fast (the blocking fast path), a conditional pin as nothing.
var pinTable = [...][numShapes][2]pinCell{
	PolicyMotor: {
		shapeWait:        {{obs.PinDeferred, holdPending}, {obs.PinSkippedElder, holdNone}},
		shapePending:     {{}, {0, holdMoved}},
		shapeNonblocking: {{obs.PinCond, holdCond}, {obs.PinHeldMoved, holdMoved}},
		shapeCollective:  {{obs.PinDeferred, holdPending}, {obs.PinHeldMoved, holdMoved}},
	},
	PolicyAlwaysPin: {
		shapeEntry:       {{obs.PinEager, holdPin}, {obs.PinEager, holdPin}},
		shapeNonblocking: {{obs.PinEager, holdPin}, {obs.PinEager, holdPin}},
		shapeCollective:  {{obs.PinEager, holdPin}, {obs.PinEager, holdPin}},
	},
	PolicyNever: {},
}

// pinFor decides obj at one point of an operation, records the
// decision, and returns what it holds. req is the operation's request,
// the zero Request where there is none yet.
func (e *Engine) pinFor(obj vm.Ref, shape pinShape, req mp.Request) pinHold {
	h := e.VM.Heap
	gen := 0
	if !h.IsYoung(obj) {
		gen = 1
	}
	c := pinTable[e.policy][shape][gen]
	if c.hold != holdPin && req.Valid() && req.Done() {
		switch c.d {
		case obs.PinDeferred:
			c.d = obs.PinAvoidedFast
		case obs.PinCond:
			c.d = 0
		}
		c.hold = holdNone
	}
	if c.hold == holdMoved && !h.MovesElder() {
		c.hold = holdNone
	}
	if c.d == obs.PinHeldMoved && c.hold == holdNone {
		c.d = obs.PinSkippedElder
	}
	if c.d != 0 {
		s := &e.Stats
		bump([...]*uint64{obs.PinSkippedElder: &s.PinSkippedElder, obs.PinAvoidedFast: &s.PinAvoidedFast,
			obs.PinDeferred: &s.PinDeferred, obs.PinEager: &s.PinEager, obs.PinCond: &s.CondPins,
			obs.PinHeldMoved: &s.PinHeldMoved}[c.d], 1)
		if tr := obs.Active(); tr != nil {
			tr.Instant(e.lane, obs.KPin, uint64(c.d), uint64(obj))
		}
	}
	switch c.hold {
	case holdNone:
		return pinHold{}
	case holdCond:
		// The handle's id outlives a recycled request: a stale
		// handle reports done, and the mark phase drops the pin.
		r := req
		h.AddCondPin(obj, func() bool { return !r.Done() })
		return pinHold{}
	}
	h.Pin(obj)
	return pinHold{h: h, obj: obj}
}

// pinHold is what one pinFor call holds; release gives it back and is
// the engine's only unpin. The zero value holds nothing.
type pinHold struct {
	h   *vm.Heap
	obj vm.Ref // explicitly pinned, or NullRef
}

func (p pinHold) release() {
	if p.obj != vm.NullRef {
		p.h.Unpin(p.obj)
	}
}
