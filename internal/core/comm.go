package core

import (
	"fmt"

	"motor/internal/mp"
	"motor/internal/mp/adi"
	"motor/internal/obs"
	"motor/internal/vm"
)

// Communicator management and reductions for managed code — the
// "selected communicator routines" and remaining "selected collective
// routines" of the paper's §7. Managed programs hold communicators as
// integer handles (id 0 is the world communicator); construction is
// collective and SPMD-deterministic like the underlying mp layer.

// ErrBadComm flags an unknown communicator handle.
var ErrBadComm = fmt.Errorf("core: unknown communicator handle")

// WorldComm is the handle of the world communicator.
const WorldComm int32 = 0

// NullComm is returned to callers excluded from a Split.
const NullComm int32 = -1

func (e *Engine) commByID(id int32) (*mp.Comm, error) {
	if id == WorldComm {
		return e.Comm, nil
	}
	if c, ok := e.comms[id]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrBadComm, id)
}

func (e *Engine) registerComm(c *mp.Comm) int32 {
	if e.comms == nil {
		e.comms = make(map[int32]*mp.Comm)
	}
	e.nextComm++
	e.comms[e.nextComm] = c
	return e.nextComm
}

// RegisterComm adds an externally constructed communicator — the
// merged parent/children communicator from dynamic process
// management, for example — to the managed handle table so every
// communicator-addressed operation and FCall can use it.
func (e *Engine) RegisterComm(c *mp.Comm) int32 { return e.registerComm(c) }

// CommDup duplicates a communicator (collective over its members) and
// returns the new handle.
func (e *Engine) CommDup(t *vm.Thread, id int32) (int32, error) {
	t.PollGC()
	defer t.PollGC()
	c, err := e.commByID(id)
	if err != nil {
		return NullComm, err
	}
	return e.registerComm(c.Dup()), nil
}

// CommSplit partitions a communicator by color (collective). Members
// passing a negative color participate but receive NullComm.
func (e *Engine) CommSplit(t *vm.Thread, id int32, color, key int) (int32, error) {
	t.PollGC()
	defer t.PollGC()
	c, err := e.commByID(id)
	if err != nil {
		return NullComm, err
	}
	sub, err := c.Split(color, key)
	if err != nil {
		return NullComm, err
	}
	if sub == nil {
		return NullComm, nil
	}
	return e.registerComm(sub), nil
}

// CommRank returns the caller's rank within the communicator.
func (e *Engine) CommRank(id int32) (int, error) {
	c, err := e.commByID(id)
	if err != nil {
		return -1, err
	}
	return c.Rank(), nil
}

// CommSize returns the communicator's size.
func (e *Engine) CommSize(id int32) (int, error) {
	c, err := e.commByID(id)
	if err != nil {
		return -1, err
	}
	return c.Size(), nil
}

// CommFree releases a communicator handle (the world communicator
// cannot be freed).
func (e *Engine) CommFree(id int32) error {
	if id == WorldComm {
		return fmt.Errorf("%w: cannot free the world communicator", ErrBadComm)
	}
	if _, ok := e.comms[id]; !ok {
		return fmt.Errorf("%w: %d", ErrBadComm, id)
	}
	delete(e.comms, id)
	return nil
}

// --- communicator-addressed operations --------------------------------------

// SendOn is Send over an explicit communicator.
func (e *Engine) SendOn(t *vm.Thread, id int32, obj vm.Ref, dest, tag int) error {
	c, err := e.commByID(id)
	if err != nil {
		return err
	}
	return e.sendCommonOn(t, c, obj, dest, tag, false, -1, -1)
}

// RecvOn is Recv over an explicit communicator.
func (e *Engine) RecvOn(t *vm.Thread, id int32, obj vm.Ref, source, tag int) (mp.Status, error) {
	c, err := e.commByID(id)
	if err != nil {
		return mp.Status{}, err
	}
	return e.recvCommonOn(t, c, obj, source, tag, -1, -1)
}

// BarrierOn synchronizes an explicit communicator.
func (e *Engine) BarrierOn(t *vm.Thread, id int32) error {
	c, err := e.commByID(id)
	if err != nil {
		return err
	}
	return e.barrierOn(t, c)
}

// BcastOn broadcasts over an explicit communicator.
func (e *Engine) BcastOn(t *vm.Thread, id int32, obj vm.Ref, root int) error {
	c, err := e.commByID(id)
	if err != nil {
		return err
	}
	return e.bcastOn(t, c, obj, root)
}

// AllgatherOn is Allgather over an explicit communicator.
func (e *Engine) AllgatherOn(t *vm.Thread, id int32, sendArr, recvArr vm.Ref) error {
	c, err := e.commByID(id)
	if err != nil {
		return err
	}
	return e.allgatherOn(t, c, sendArr, recvArr)
}

// AlltoallOn is Alltoall over an explicit communicator.
func (e *Engine) AlltoallOn(t *vm.Thread, id int32, sendArr, recvArr vm.Ref) error {
	c, err := e.commByID(id)
	if err != nil {
		return err
	}
	return e.alltoallOn(t, c, sendArr, recvArr)
}

// --- reductions over simple arrays ---------------------------------------------

// datatypeFor infers the reduction datatype from a simple array's
// element kind. Only the kinds with defined reduction semantics are
// accepted.
func datatypeFor(mt *vm.MethodTable) (mp.Datatype, error) {
	if mt.Kind != vm.TKArray {
		return mp.Datatype{}, ErrNotArray
	}
	switch mt.Elem {
	case vm.KindUint8:
		return mp.TypeUint8, nil
	case vm.KindInt32:
		return mp.TypeInt32, nil
	case vm.KindInt64:
		return mp.TypeInt64, nil
	case vm.KindFloat64:
		return mp.TypeFloat64, nil
	default:
		return mp.Datatype{}, fmt.Errorf("core: no reduction semantics for %s arrays", mt.Elem)
	}
}

// Reduce combines each rank's simple array into the root's recv array
// with the given operator. recvArr is ignored on non-roots.
func (e *Engine) Reduce(t *vm.Thread, sendArr, recvArr vm.Ref, op mp.Op, root int) error {
	return e.reduceOn(t, e.Comm, sendArr, recvArr, op, root, false)
}

// Allreduce combines into every rank's recv array.
func (e *Engine) Allreduce(t *vm.Thread, sendArr, recvArr vm.Ref, op mp.Op) error {
	return e.reduceOn(t, e.Comm, sendArr, recvArr, op, 0, true)
}

// ReduceOn / AllreduceOn are the communicator-addressed forms.
func (e *Engine) ReduceOn(t *vm.Thread, id int32, sendArr, recvArr vm.Ref, op mp.Op, root int) error {
	c, err := e.commByID(id)
	if err != nil {
		return err
	}
	return e.reduceOn(t, c, sendArr, recvArr, op, root, false)
}

// AllreduceOn combines into every member's recv array.
func (e *Engine) AllreduceOn(t *vm.Thread, id int32, sendArr, recvArr vm.Ref, op mp.Op) error {
	c, err := e.commByID(id)
	if err != nil {
		return err
	}
	return e.reduceOn(t, c, sendArr, recvArr, op, 0, true)
}

func (e *Engine) reduceOn(t *vm.Thread, c *mp.Comm, sendArr, recvArr vm.Ref, op mp.Op, root int, all bool) error {
	opc, peer := obs.OpReduce, root
	if all {
		opc, peer = obs.OpAllreduce, -1
	}
	h := e.VM.Heap
	needRecv := all || c.Rank() == root
	var dt mp.Datatype
	return e.collective(t, opc, peer, sendArr, recvArr, true, needRecv,
		func(sendArr, recvArr vm.Ref, sb, rb adi.Buffer) error {
			var err error
			if dt, err = datatypeFor(h.MT(sendArr)); err != nil || !needRecv {
				return err
			}
			rdt, err := datatypeFor(h.MT(recvArr))
			if err != nil {
				return err
			}
			if rdt != dt || len(rb) != len(sb) {
				return fmt.Errorf("core: reduce buffers disagree: %s/%d vs %s/%d bytes",
					dt.Name, len(sb), rdt.Name, len(rb))
			}
			return nil
		},
		func(send, recv []byte) error {
			if all {
				return c.Allreduce(send, recv, dt, op)
			}
			return c.Reduce(send, recv, dt, op, root)
		})
}
