package mp

import (
	"fmt"
	"sync/atomic"

	"motor/internal/mp/adi"
)

// OO transport tag discipline. The object-oriented operations move
// several messages per logical operation — data chunks, the
// table-cache ACK/NACK byte, the NACK-answer table blob, collective
// part streams — all on the communicator's point-to-point context. To keep
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
	OOSpaceAck   OOSpace = 2 // receiver->sender: one byte, 0 all table references resolved (ACK), 1 send the table (NACK)
	OOSpaceTable OOSpace = 3 // sender->receiver: table blob (NACK answer)
	OOSpaceColl  OOSpace = 4 // collective part streams (OScatter/OGather)

	ooSpan    = MaxUserTag + 1
	ooSpaceHi = 4
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

// ProbeOO posts a probe for the next OO message in a space (see
// Comm.probe); its status reports the message's size and the raw wire
// tag.
func (c *Comm) ProbeOO(source int, sp OOSpace, tag int) (Request, error) {
	if err := c.checkOOTag(sp, tag); err != nil {
		return Request{}, err
	}
	return c.probe(source, OOWireTag(sp, tag))
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
