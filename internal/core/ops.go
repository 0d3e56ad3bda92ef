package core

import (
	"errors"
	"fmt"
	"time"

	"motor/internal/mp"
	"motor/internal/mp/adi"
	"motor/internal/obs"
	"motor/internal/vm"
)

// Regular MPI operations (paper §4.2.1): efficient object-to-object
// transport for objects without references and arrays of simple
// types. The count and datatype parameters of classic MPI are gone —
// message length is derived from the object — and sub-ranges are only
// available on arrays, where bounds are checkable.
//
// Every blocking operation follows the paper's FCall discipline
// (§7.4): GC poll on entry, quick completion test (fast operations
// never pin), pinning policy applied only when the operation actually
// enters its polling-wait, poll on exit.

// waitBlocking is a blocking operation's polling-wait (§7.4's three
// polling points are entry — in the callers —, this wait, and the exit
// poll): a quick completion test, then the pin decision and await.
func (e *Engine) waitBlocking(t *vm.Thread, obj vm.Ref, req mp.Request, op obs.OpCode) (mp.Status, error) {
	done, st, err := req.Test()
	if done {
		e.pinFor(obj, shapeWait, req) // the fast path: records the pin avoided
		return st, e.noteErr(err)
	}
	// The operation enters its polling-wait: open the wait span first
	// so the pin decision below lands inside it — that nesting is the
	// §7.4 claim ("the pin is taken only when the wait is entered")
	// made visible in the trace.
	tr := obs.Active()
	if tr != nil {
		tr.Begin(e.lane, obs.KWait, uint64(op))
	}
	hold := e.pinFor(obj, shapeWait, mp.Request{})
	defer hold.release()
	defer func() {
		if tr != nil {
			if d := tr.End(e.lane); d > 0 {
				tr.Record(obs.HistRequestWait, d)
			}
		}
	}()
	st, err = e.await(t, req, op)
	return st, e.noteErr(err)
}

// spinBudget bounds how long a wait drives progress itself before it
// parks for the background progress engine: about one park/unpark
// round trip, so a reply that lands within it never pays a wakeup.
const spinBudget = 50 * time.Microsecond

// await drives req to completion: every core request wait is this
// loop. The caller drives progress itself (§7.1's polling-wait): Test,
// then the device's idle step, until done. With a background progress
// engine the spin lasts about spinBudget, then the thread parks; the
// clock is read only at the idle steps that yield the processor.
// Inline there is no one to park for, and the loop never reads it.
// A request that is not done at the first Test opens the watchdog
// heartbeat for op, so the fast path reads no clock either. A parked
// thread stops pulsing, but the watchdog keys on wait-entry age, so a
// lost completion still trips it.
func (e *Engine) await(t *vm.Thread, req mp.Request, op obs.OpCode) (mp.Status, error) {
	done, st, err := req.Test()
	if done {
		return st, err
	}
	obs.BeatEnter(e.lane, op, req.Peer())
	defer obs.BeatExit(e.lane)
	var spin adi.Spin
	var spinStart time.Time
	for {
		obs.BeatPulse(e.lane)
		if e.World.Dev.Idle(&spin) && e.progress != nil {
			if spinStart.IsZero() {
				spinStart = time.Now()
			} else if time.Since(spinStart) >= spinBudget {
				e.park(t, req)
			}
		}
		if done, st, err := req.Test(); done {
			return st, err
		}
	}
}

// park sleeps until req completes, with the execution token released,
// so a long wait burns no CPU and steals no token time from siblings
// or the progress engine. The parked count goes up before the last
// Test: a peer frame published after that Test rings the engine
// (channel.Doorbell). The engine is rung once here as well, to drain
// frames that landed before the count went up.
func (e *Engine) park(t *vm.Thread, req mp.Request) {
	dev := e.World.Dev
	dev.AddParked(1)
	defer dev.AddParked(-1)
	if done, _, _ := req.Test(); done {
		return
	}
	bump(&e.Stats.WaitsParked, 1)
	ch := make(chan struct{})
	req.OnComplete(func() { close(ch) })
	e.progress.Wake()
	t.Park(func() { <-ch })
}

// Send transports a whole object (blocking, standard mode).
func (e *Engine) Send(t *vm.Thread, obj vm.Ref, dest, tag int) error {
	return e.sendCommon(t, obj, dest, tag, false, -1, -1)
}

// Ssend transports a whole object (blocking, synchronous mode).
func (e *Engine) Ssend(t *vm.Thread, obj vm.Ref, dest, tag int) error {
	return e.sendCommon(t, obj, dest, tag, true, -1, -1)
}

// SendRange transports array elements [offset, offset+count).
func (e *Engine) SendRange(t *vm.Thread, obj vm.Ref, offset, count, dest, tag int) error {
	return e.sendCommon(t, obj, dest, tag, false, offset, count)
}

func (e *Engine) sendCommon(t *vm.Thread, obj vm.Ref, dest, tag int, sync bool, offset, count int) error {
	return e.sendCommonOn(t, e.Comm, obj, dest, tag, sync, offset, count)
}

func (e *Engine) sendCommonOn(t *vm.Thread, c *mp.Comm, obj vm.Ref, dest, tag int, sync bool, offset, count int) error {
	// Root the ref argument for the whole operation: the entry poll
	// below is a safepoint, and with several VM threads sharing the
	// rank a sibling's collection can move the object before the
	// buffer is derived (the pin policy only takes over at wait
	// entry). Every Ref-taking entry point follows this discipline,
	// and reads the ref back through its frame after the poll.
	f := t.PushFrame(obj)
	defer f.Pop()
	t.PollGC()
	defer t.PollGC()
	var buf adi.Buffer
	var err error
	if offset >= 0 {
		buf, err = e.rangeBuf(t, f.Ref(0), offset, count)
	} else {
		buf, err = e.wholeBuf(t, f.Ref(0))
	}
	if err != nil {
		return err
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpSend, len(buf), dest)
	defer e.opEnd(tr)
	entry := e.pinFor(f.Ref(0), shapeEntry, mp.Request{})
	defer entry.release()
	req, err := c.IsendBuffer(buf, dest, tag, sync)
	if err != nil {
		return err
	}
	pending := e.pinFor(f.Ref(0), shapePending, req)
	defer pending.release()
	_, err = e.waitBlocking(t, f.Ref(0), req, obs.OpSend)
	req.Recycle()
	return err
}

// Recv receives into a whole object (blocking). It returns the
// source rank and delivered byte count.
func (e *Engine) Recv(t *vm.Thread, obj vm.Ref, source, tag int) (mp.Status, error) {
	return e.recvCommon(t, obj, source, tag, -1, -1)
}

// RecvRange receives into array elements [offset, offset+count).
func (e *Engine) RecvRange(t *vm.Thread, obj vm.Ref, offset, count, source, tag int) (mp.Status, error) {
	return e.recvCommon(t, obj, source, tag, offset, count)
}

func (e *Engine) recvCommon(t *vm.Thread, obj vm.Ref, source, tag int, offset, count int) (mp.Status, error) {
	return e.recvCommonOn(t, e.Comm, obj, source, tag, offset, count)
}

func (e *Engine) recvCommonOn(t *vm.Thread, c *mp.Comm, obj vm.Ref, source, tag int, offset, count int) (mp.Status, error) {
	f := t.PushFrame(obj)
	defer f.Pop()
	t.PollGC()
	defer t.PollGC()
	var buf adi.Buffer
	var err error
	if offset >= 0 {
		buf, err = e.rangeBuf(t, f.Ref(0), offset, count)
	} else {
		buf, err = e.wholeBuf(t, f.Ref(0))
	}
	if err != nil {
		return mp.Status{}, err
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpRecv, len(buf), source)
	defer e.opEnd(tr)
	entry := e.pinFor(f.Ref(0), shapeEntry, mp.Request{})
	defer entry.release()
	req, err := c.IrecvBuffer(buf, source, tag)
	if err != nil {
		return mp.Status{}, err
	}
	pending := e.pinFor(f.Ref(0), shapePending, req)
	defer pending.release()
	st, err := e.waitBlocking(t, f.Ref(0), req, obs.OpRecv)
	req.Recycle()
	return st, err
}

// --- immediate (non-blocking) operations --------------------------------------

// register assigns a managed request id. Ids are never reused, so a
// retired id stays unknown (ErrBadRequest) even after its request has
// been recycled for another operation.
func (e *Engine) register(req mp.Request, hold pinHold) int32 {
	e.nextReq++
	id := e.nextReq
	e.requests[id] = mpReq{id: id, req: req, hold: hold}
	return id
}

// Isend starts an immediate send and returns a request id for Wait /
// Test.
func (e *Engine) Isend(t *vm.Thread, obj vm.Ref, dest, tag int) (int32, error) {
	f := t.PushFrame(obj)
	defer f.Pop()
	t.PollGC()
	buf, err := e.wholeBuf(t, f.Ref(0))
	if err != nil {
		return 0, err
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpIsend, len(buf), dest)
	defer e.opEndQuick(tr)
	req, err := e.Comm.IsendBuffer(buf, dest, tag, false)
	if err != nil {
		return 0, err
	}
	id := e.register(req, e.pinFor(f.Ref(0), shapeNonblocking, req))
	req.Detach() // nobody drives it until Wait or Test
	return id, nil
}

// Irecv starts an immediate receive.
func (e *Engine) Irecv(t *vm.Thread, obj vm.Ref, source, tag int) (int32, error) {
	f := t.PushFrame(obj)
	defer f.Pop()
	t.PollGC()
	buf, err := e.wholeBuf(t, f.Ref(0))
	if err != nil {
		return 0, err
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpIrecv, len(buf), source)
	defer e.opEndQuick(tr)
	req, err := e.Comm.IrecvBuffer(buf, source, tag)
	if err != nil {
		return 0, err
	}
	id := e.register(req, e.pinFor(f.Ref(0), shapeNonblocking, req))
	req.Detach() // nobody drives it until Wait or Test
	return id, nil
}

func (e *Engine) lookup(id int32) (mpReq, error) {
	r, ok := e.requests[id]
	if !ok {
		return mpReq{}, fmt.Errorf("%w: %d", ErrBadRequest, id)
	}
	return r, nil
}

// finish retires a managed request id whose wait or test has read the
// final status, and recycles its request (a no-op if it is incomplete).
func (e *Engine) finish(r mpReq) {
	r.hold.release()
	delete(e.requests, r.id)
	r.req.Recycle()
}

// Wait blocks until the identified request completes.
func (e *Engine) Wait(t *vm.Thread, id int32) (mp.Status, error) {
	r, err := e.lookup(id)
	if err != nil {
		return mp.Status{}, err
	}
	tr := obs.Active()
	if tr != nil {
		tr.Begin(e.lane, obs.KWait, uint64(obs.OpWait))
	}
	st, err := e.await(t, r.req, obs.OpWait)
	if tr != nil {
		if d := tr.End(e.lane); d > 0 {
			tr.Record(obs.HistRequestWait, d)
		}
	}
	e.finish(r)
	return st, e.noteErr(err)
}

// Test makes one progress pass; on completion the request id is
// retired.
func (e *Engine) Test(t *vm.Thread, id int32) (bool, mp.Status, error) {
	r, err := e.lookup(id)
	if err != nil {
		return false, mp.Status{}, err
	}
	done, st, err := e.Comm.Test(r.req)
	if !done {
		t.PollGC()
		return false, mp.Status{}, err
	}
	e.finish(r)
	return true, st, e.noteErr(err)
}

// PendingRequests reports outstanding immediate operations (tests,
// mpstat).
func (e *Engine) PendingRequests() int { return len(e.requests) }

// --- collectives over simple objects -------------------------------------------

// Barrier blocks until all ranks enter it.
func (e *Engine) Barrier(t *vm.Thread) error { return e.barrierOn(t, e.Comm) }

func (e *Engine) barrierOn(t *vm.Thread, c *mp.Comm) error {
	t.PollGC()
	defer t.PollGC()
	tr := e.opBegin(obs.OpBarrier, 0, -1)
	defer e.opEnd(tr)
	return e.noteErr(c.Barrier())
}

// collective is the one prologue of every array collective. In order:
// it roots both arrays, polls at entry, derives the buffers this rank
// takes part with (send, recv), runs the optional local check, counts
// the op and opens its span, takes each buffer's collective cell
// (§7.4), then runs the mp call. The object-model and shape checks run
// on every rank before any collective traffic, so an erroneous program
// fails consistently instead of deadlocking mid-collective, and counts
// no op. check and run get the rooted arrays and the resolved buffers
// as parameters: a vm.Ref they captured would be stale after the entry
// poll.
func (e *Engine) collective(t *vm.Thread, op obs.OpCode, peer int, sendArr, recvArr vm.Ref, send, recv bool,
	check func(sendArr, recvArr vm.Ref, sb, rb adi.Buffer) error, run func(send, recv []byte) error) error {
	f := t.PushFrame(sendArr, recvArr)
	defer f.Pop()
	t.PollGC()
	defer t.PollGC()
	var sb, rb adi.Buffer
	var err error
	if send {
		if sb, err = e.wholeBuf(t, f.Ref(0)); err != nil {
			return err
		}
	}
	if recv {
		if rb, err = e.wholeBuf(t, f.Ref(1)); err != nil {
			return err
		}
	}
	if check != nil {
		if err = check(f.Ref(0), f.Ref(1), sb, rb); err != nil {
			return err
		}
	}
	bump(&e.Stats.Ops, 1)
	// The span records this rank's payload: what it sends, or its
	// share of a broadcast or scatter.
	n := len(sb)
	if !send || op == obs.OpScatter {
		n = len(rb)
	}
	tr := e.opBegin(op, n, peer)
	defer e.opEnd(tr)
	if send {
		defer e.pinFor(f.Ref(0), shapeCollective, mp.Request{}).release()
	}
	if recv {
		defer e.pinFor(f.Ref(1), shapeCollective, mp.Request{}).release()
	}
	return e.noteErr(run(sb, rb))
}

// Bcast broadcasts the root's object contents into every rank's
// object (equal sizes required, as in MPI).
func (e *Engine) Bcast(t *vm.Thread, obj vm.Ref, root int) error {
	return e.bcastOn(t, e.Comm, obj, root)
}

func (e *Engine) bcastOn(t *vm.Thread, c *mp.Comm, obj vm.Ref, root int) error {
	return e.collective(t, obs.OpBcast, root, vm.NullRef, obj, false, true, nil,
		func(_, buf []byte) error { return c.Bcast(buf, root) })
}

// Scatter splits the root's simple array equally across ranks into
// each rank's recv array (sendArr is ignored on non-roots).
func (e *Engine) Scatter(t *vm.Thread, sendArr, recvArr vm.Ref, root int) error {
	c := e.Comm
	return e.collective(t, obs.OpScatter, root, sendArr, recvArr, c.Rank() == root, true, nil,
		func(send, recv []byte) error { return c.Scatter(send, recv, root) })
}

// Gather collects every rank's simple array into the root's recv
// array (recvArr is ignored on non-roots).
func (e *Engine) Gather(t *vm.Thread, sendArr, recvArr vm.Ref, root int) error {
	c := e.Comm
	return e.collective(t, obs.OpGather, root, sendArr, recvArr, true, c.Rank() == root, nil,
		func(send, recv []byte) error { return c.Gather(send, recv, root) })
}

// Allgather collects every rank's simple array into every rank's
// recv array (recv must hold Size() times the send array's bytes).
func (e *Engine) Allgather(t *vm.Thread, sendArr, recvArr vm.Ref) error {
	return e.allgatherOn(t, e.Comm, sendArr, recvArr)
}

func (e *Engine) allgatherOn(t *vm.Thread, c *mp.Comm, sendArr, recvArr vm.Ref) error {
	return e.collective(t, obs.OpAllgather, -1, sendArr, recvArr, true, true,
		func(_, _ vm.Ref, sb, rb adi.Buffer) error {
			if len(rb) != len(sb)*c.Size() {
				return fmt.Errorf("core: allgather recv %d bytes, want %d (send %d × %d ranks)",
					len(rb), len(sb)*c.Size(), len(sb), c.Size())
			}
			return nil
		},
		func(send, recv []byte) error { return c.Allgather(send, recv) })
}

// Alltoall exchanges equal chunks of every rank's simple send array:
// rank j's chunk i lands in rank i's recv array at chunk j. Both
// arrays must hold Size() equal chunks.
func (e *Engine) Alltoall(t *vm.Thread, sendArr, recvArr vm.Ref) error {
	return e.alltoallOn(t, e.Comm, sendArr, recvArr)
}

func (e *Engine) alltoallOn(t *vm.Thread, c *mp.Comm, sendArr, recvArr vm.Ref) error {
	return e.collective(t, obs.OpAlltoall, -1, sendArr, recvArr, true, true,
		func(_, _ vm.Ref, sb, rb adi.Buffer) error {
			if len(rb) != len(sb) || len(sb)%c.Size() != 0 {
				return fmt.Errorf("core: alltoall buffers %d/%d bytes for %d ranks",
					len(sb), len(rb), c.Size())
			}
			return nil
		},
		func(send, recv []byte) error { return c.Alltoall(send, recv) })
}

// Sendrecv performs the classic combined exchange: send sendObj to
// dest while receiving into recvObj from source, deadlock-free even
// when every rank calls it simultaneously.
func (e *Engine) Sendrecv(t *vm.Thread, sendObj vm.Ref, dest, sendTag int, recvObj vm.Ref, source, recvTag int) (mp.Status, error) {
	f := t.PushFrame(sendObj, recvObj)
	defer f.Pop()
	t.PollGC()
	defer t.PollGC()
	sendBuf, err := e.wholeBuf(t, f.Ref(0))
	if err != nil {
		return mp.Status{}, err
	}
	recvBuf, err := e.wholeBuf(t, f.Ref(1))
	if err != nil {
		return mp.Status{}, err
	}
	bump(&e.Stats.Ops, 2)
	tr := e.opBegin(obs.OpSendrecv, len(sendBuf), dest)
	defer e.opEnd(tr)
	sendHold := e.pinFor(f.Ref(0), shapeCollective, mp.Request{})
	defer sendHold.release()
	recvHold := e.pinFor(f.Ref(1), shapeCollective, mp.Request{})
	defer recvHold.release()
	rreq, err := e.Comm.IrecvBuffer(recvBuf, source, recvTag)
	if err != nil {
		return mp.Status{}, e.noteErr(err)
	}
	sreq, err := e.Comm.IsendBuffer(sendBuf, dest, sendTag, false)
	if err != nil {
		// The receive must not outlive the operation: its hold is
		// released on return, and a later frame could still land in it.
		rreq.Cancel()
		return mp.Status{}, e.noteErr(err)
	}
	// Await both halves, whichever fails: the first error wins.
	_, serr := e.await(t, sreq, obs.OpSendrecv)
	st, err := e.await(t, rreq, obs.OpSendrecv)
	sreq.Recycle()
	rreq.Recycle()
	if serr != nil {
		err = serr
	}
	return st, e.noteErr(err)
}

// noteErr records transport-class completion failures (mp.ErrTransport)
// in the engine stats so a rank's exposure to peer loss is observable
// through MPStats / mpstat.
func (e *Engine) noteErr(err error) error {
	if err != nil && errors.Is(err, mp.ErrTransport) {
		bump(&e.Stats.TransportErrors, 1)
		// A lost peer is exactly the moment the last few milliseconds
		// of events matter: dump the flight recorder before the error
		// propagates and the evidence is overwritten.
		obs.FlightTrip("transport")
	}
	return err
}
