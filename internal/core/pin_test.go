package core

import (
	"fmt"
	"testing"

	"motor/internal/mp"
	"motor/internal/mp/adi"
	"motor/internal/obs"
	"motor/internal/vm"
)

// pinWant is one cell's expected outcome: the decision recorded (0:
// none) and the explicit and conditional pins taken.
type pinWant struct {
	d          obs.PinDecision
	pins, cond uint64
}

// The state of the request handed to pinFor.
const (
	noReq = iota
	reqPending
	reqDone
)

// TestPinTableGrid drives pinFor through every cell of the §7.4 table:
// policy × generation × whether the collector moves elder objects ×
// shape, each request-taking shape with its request pending and done.
// Each cell must record its decision once (counter and trace instant),
// take its explicit and conditional pins, and leave a zero balance
// once its hold is released and its request has completed.
func TestPinTableGrid(t *testing.T) {
	var (
		none     = pinWant{}
		skipped  = pinWant{obs.PinSkippedElder, 0, 0}
		held     = pinWant{obs.PinHeldMoved, 1, 0} // held while pending: the collector could move it
		pinned   = pinWant{0, 1, 0}                // held, and the wait records the decision
		deferred = pinWant{obs.PinDeferred, 1, 0}
		fast     = pinWant{obs.PinAvoidedFast, 0, 0}
		cond     = pinWant{obs.PinCond, 0, 1}
		eager    = pinWant{obs.PinEager, 1, 0}
	)
	// want is {young, elder, elder under a collector that moves it}.
	type cell struct {
		policy PinPolicy
		shape  pinShape
		req    int
		want   [3]pinWant
	}
	cells := []cell{
		{PolicyMotor, shapeEntry, noReq, [3]pinWant{none, none, none}},
		{PolicyMotor, shapeWait, noReq, [3]pinWant{deferred, skipped, skipped}},
		{PolicyMotor, shapeWait, reqDone, [3]pinWant{fast, skipped, skipped}},
		{PolicyMotor, shapePending, reqPending, [3]pinWant{none, none, pinned}},
		{PolicyMotor, shapePending, reqDone, [3]pinWant{none, none, none}},
		{PolicyMotor, shapeNonblocking, reqPending, [3]pinWant{cond, skipped, held}},
		{PolicyMotor, shapeNonblocking, reqDone, [3]pinWant{none, skipped, skipped}},
		{PolicyMotor, shapeCollective, noReq, [3]pinWant{deferred, skipped, held}},

		{PolicyAlwaysPin, shapeEntry, noReq, [3]pinWant{eager, eager, eager}},
		{PolicyAlwaysPin, shapeWait, noReq, [3]pinWant{none, none, none}},
		{PolicyAlwaysPin, shapeWait, reqDone, [3]pinWant{none, none, none}},
		{PolicyAlwaysPin, shapePending, reqPending, [3]pinWant{none, none, none}},
		{PolicyAlwaysPin, shapePending, reqDone, [3]pinWant{none, none, none}},
		{PolicyAlwaysPin, shapeNonblocking, reqPending, [3]pinWant{eager, eager, eager}},
		{PolicyAlwaysPin, shapeNonblocking, reqDone, [3]pinWant{eager, eager, eager}},
		{PolicyAlwaysPin, shapeCollective, noReq, [3]pinWant{eager, eager, eager}},
	}
	// PolicyNever takes and records nothing, wherever it is asked.
	for _, c := range cells[:8] {
		cells = append(cells, cell{PolicyNever, c.shape, c.req, [3]pinWant{}})
	}

	ws, err := mp.NewLocalWorlds(mp.ChannelShm, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	comm := ws[0].Comm
	defer ws[0].Close()
	tag := 0
	// request returns a receive from self in the given state, and a
	// function that completes it.
	request := func(state int) (mp.Request, func()) {
		if state == noReq {
			return mp.Request{}, func() {}
		}
		tag++
		k := tag
		send := func() {
			if err := comm.Send(make([]byte, 4), 0, k); err != nil {
				t.Fatal(err)
			}
		}
		if state == reqDone {
			send()
		}
		req, err := comm.IrecvBuffer(adi.SliceBuf(make([]byte, 4)), 0, tag)
		if err != nil {
			t.Fatal(err)
		}
		complete := func() {
			for {
				if done, _, err := comm.Test(req); err != nil {
					t.Fatal(err)
				} else if done {
					return
				}
			}
		}
		if state == reqDone {
			complete()
			return req, func() {}
		}
		return req, func() { send(); complete() }
	}

	tr := obs.Start(obs.Options{})
	if tr == nil {
		t.Fatal("obs.Start refused")
	}
	defer obs.Stop(tr)
	seen := 0
	newPins := func() []obs.Event {
		var pins []obs.Event
		for _, ev := range tr.Events() {
			if ev.Kind == obs.KPin {
				pins = append(pins, ev)
			}
		}
		pins, seen = pins[seen:], len(pins)
		return pins
	}

	policies := [...]string{PolicyMotor: "motor", PolicyAlwaysPin: "always-pin", PolicyNever: "never"}
	shapes := [...]string{"entry", "wait", "pending", "nonblocking", "collective"}
	reqs := [...]string{"none", "pending", "done"}
	for _, workers := range []int{1, 2} {
		hc := vm.HeapConfig{YoungSize: 64 << 10, InitialElder: 512 << 10, ArenaMax: 64 << 20, GCWorkers: workers}
		v := vm.New(vm.Config{Name: "pin", Heap: hc})
		defer v.Close()
		th := v.StartThread("main")
		h := v.Heap
		if h.MovesElder() != (workers > 1) {
			t.Fatalf("gcworkers=%d: MovesElder %v", workers, h.MovesElder())
		}
		i32 := v.ArrayType(vm.KindInt32, nil, 1)
		for _, c := range cells {
			for _, col := range []int{0, workers} { // young, then elder under this collector
				want := c.want[col]
				gen, n := "young", 4
				if col > 0 {
					gen, n = "elder", 16<<10 // over half the nursery: allocated elder
				}
				name := fmt.Sprintf("%s/%s/req=%s/%s/gcworkers=%d",
					policies[c.policy], shapes[c.shape], reqs[c.req], gen, workers)
				obj, err := h.AllocArray(i32, n)
				if err != nil {
					t.Fatal(err)
				}
				if h.IsYoung(obj) != (col == 0) {
					t.Fatalf("%s: wrong generation", name)
				}
				e := &Engine{VM: v, policy: c.policy}
				req, complete := request(c.req)
				before := h.Stats.Snapshot()

				hold := e.pinFor(obj, c.shape, req)

				st := h.Stats.Snapshot()
				if pins, conds := st.Pins-before.Pins, st.CondPinsAdded-before.CondPinsAdded; pins != want.pins || conds != want.cond {
					t.Errorf("%s: %d pins, %d conditional pins; want %d, %d", name, pins, conds, want.pins, want.cond)
				}
				// Indexed by decision: obs numbers them from 1.
				counts := [...]uint64{0, e.Stats.PinSkippedElder, e.Stats.PinAvoidedFast, e.Stats.PinDeferred, e.Stats.PinEager, e.Stats.CondPins, e.Stats.PinHeldMoved}
				for d := obs.PinSkippedElder; d <= obs.PinHeldMoved; d++ {
					w := uint64(0)
					if d == want.d {
						w = 1
					}
					if counts[d] != w {
						t.Errorf("%s: %s counted %d times, want %d", name, obs.PinName(d), counts[d], w)
					}
				}
				ev := newPins()
				switch {
				case want.d == 0 && len(ev) != 0:
					t.Errorf("%s: traced %d pin decisions, want none", name, len(ev))
				case want.d != 0 && (len(ev) != 1 || ev[0].Arg0 != uint64(want.d) || ev[0].Arg1 != uint64(obj)):
					t.Errorf("%s: traced %+v, want one %s on %#x", name, ev, obs.PinName(want.d), obj)
				}

				hold.release()
				st = h.Stats.Snapshot()
				if st.Pins != st.Unpins || h.Pinned(obj) {
					t.Errorf("%s: after release: pins %d, unpins %d, pinned %v", name, st.Pins, st.Unpins, h.Pinned(obj))
				}
				complete()
				th.CollectYoung() // drops the conditional pins of completed requests
				if n := h.CondPinCount(); n != 0 {
					t.Errorf("%s: %d conditional pins left after completion", name, n)
				}
			}
		}
		th.End()
	}
}
