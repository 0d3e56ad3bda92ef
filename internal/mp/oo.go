package mp

import (
	"fmt"
	"sync/atomic"

	"motor/internal/mp/adi"
)

// OO transport tag discipline. The object-oriented operations move
// several messages per logical operation — data chunks, table-cache
// control traffic, the NACK-answer table blob, collective part
// streams — all on the communicator's point-to-point context. To keep
// interleaved OO operations (and OO traffic vs. regular user traffic)
// from ever cross-matching, each category gets its own tag space above
// MaxUserTag: the wire tag is space*(MaxUserTag+1) + userTag, which
// regular operations can never produce (checkTag caps them at
// MaxUserTag) and which stays within the int32 wire header.

// OOSpace names one OO message category.
type OOSpace int

// OO tag spaces.
const (
	OOSpaceData  OOSpace = 1 // object stream chunks (OSend/ORecv)
	OOSpaceAck   OOSpace = 2 // receiver->sender: table references all resolved
	OOSpaceNack  OOSpace = 3 // receiver->sender: cache miss, send the table
	OOSpaceTable OOSpace = 4 // sender->receiver: table blob (NACK answer)
	OOSpaceColl  OOSpace = 5 // collective part streams (OScatter/OGather)

	ooSpan    = MaxUserTag + 1
	ooSpaceHi = 5
)

// OOWireTag computes the on-wire tag for an OO message. Exported so
// tests can forge OO-tagged frames at the device layer.
func OOWireTag(sp OOSpace, tag int) int { return int(sp)*ooSpan + tag }

func (c *Comm) checkOOTag(sp OOSpace, tag int) error {
	if sp < 1 || sp > ooSpaceHi {
		return fmt.Errorf("%w: OO space %d", errInvalid, sp)
	}
	if tag < 0 || tag > MaxUserTag {
		return fmt.Errorf("%w: OO tag %d", errInvalid, tag)
	}
	return nil
}

// ooStatus translates a device status back into communicator terms
// with the space stripped from the tag.
func (c *Comm) ooStatus(s adi.Status, sp OOSpace) Status {
	st := c.status(s)
	st.Tag -= int(sp) * ooSpan
	return st
}

// IsendOO starts an immediate send of one OO message.
func (c *Comm) IsendOO(buf []byte, dest int, sp OOSpace, tag int) (Request, error) {
	return c.IsendOOBuffer(adi.SliceBuf(buf), dest, sp, tag)
}

// IsendOOBuffer is IsendOO over an abstract buffer — the form the
// engine uses for managed ranges, and the hook oversize-regression
// tests use to put a lying wire-claimed size on an OO tag.
func (c *Comm) IsendOOBuffer(buf adi.Buffer, dest int, sp OOSpace, tag int) (Request, error) {
	if err := c.checkDest(dest); err != nil {
		return Request{}, err
	}
	if err := c.checkOOTag(sp, tag); err != nil {
		return Request{}, err
	}
	req, err := c.dev.Isend(buf, c.ranks[dest], OOWireTag(sp, tag), c.ctx, false)
	if err != nil {
		return Request{}, err
	}
	return c.handle(req), nil
}

// IrecvOO starts an immediate receive of one OO message. source may be
// AnySource (the first chunk of an any-source ORecv); the tag may not
// be AnyTag — OO streams are always tag-addressed.
func (c *Comm) IrecvOO(buf []byte, source int, sp OOSpace, tag int) (Request, error) {
	worldSrc := adi.AnySource
	if source != AnySource {
		if err := c.checkDest(source); err != nil {
			return Request{}, err
		}
		worldSrc = c.ranks[source]
	}
	if err := c.checkOOTag(sp, tag); err != nil {
		return Request{}, err
	}
	req, err := c.dev.Irecv(adi.SliceBuf(buf), worldSrc, OOWireTag(sp, tag), c.ctx)
	if err != nil {
		return Request{}, err
	}
	return c.handle(req), nil
}

// IprobeOO reports whether an OO message in the given space is
// available, with its size. Drives progress, so a dead peer surfaces
// as a typed error instead of an endless poll.
func (c *Comm) IprobeOO(source int, sp OOSpace, tag int) (bool, Status, error) {
	worldSrc := adi.AnySource
	if source != AnySource {
		if err := c.checkDest(source); err != nil {
			return false, Status{}, err
		}
		worldSrc = c.ranks[source]
	}
	if err := c.checkOOTag(sp, tag); err != nil {
		return false, Status{}, err
	}
	ok, s, err := c.dev.Iprobe(worldSrc, OOWireTag(sp, tag), c.ctx)
	if !ok {
		return false, Status{}, err
	}
	return true, c.ooStatus(s, sp), err
}

// SendCtrlOO sends a header-only control packet in an OO space (the
// table-cache ACK/NACK).
func (c *Comm) SendCtrlOO(dest int, sp OOSpace, tag int) error {
	if err := c.checkDest(dest); err != nil {
		return err
	}
	if err := c.checkOOTag(sp, tag); err != nil {
		return err
	}
	return c.dev.SendCtrl(c.ranks[dest], OOWireTag(sp, tag), c.ctx)
}

// PollCtrlOO polls for a control packet in an OO space. Drives
// progress (dead peers surface as typed errors).
func (c *Comm) PollCtrlOO(source int, sp OOSpace, tag int) (bool, error) {
	if err := c.checkDest(source); err != nil {
		return false, err
	}
	if err := c.checkOOTag(sp, tag); err != nil {
		return false, err
	}
	return c.dev.PollCtrl(c.ranks[source], OOWireTag(sp, tag), c.ctx)
}

// NextOOSeq returns the next OO collective sequence number: OScatter
// and OGather stream parts point-to-point under OOSpaceColl, and — as
// with buffered collectives — every rank calls this in lockstep so
// back-to-back OO collectives never cross-match.
func (c *Comm) NextOOSeq() int {
	return int(atomic.AddUint32(&c.ooSeq, 1)-1) % (MaxUserTag + 1)
}

// EagerMax exposes the device's eager/rendezvous threshold; the OO
// transport sizes broadcast chunks under it so a broadcast never
// stalls on a rendezvous with a failed rank.
func (c *Comm) EagerMax() int { return c.dev.EagerMax() }
