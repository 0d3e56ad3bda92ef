package mp

import (
	"fmt"
	"sync/atomic"

	"motor/internal/mp/adi"
	"motor/internal/obs"
)

func init() {
	// Let the obs export layer print the selector's algorithm names
	// without importing mp (obs is a leaf package).
	obs.CollAlgoName = func(code uint64) string { return CollAlgo(code).String() }
}

// collBegin opens the KColl span covering one collective call and
// returns the tracer (nil when tracing is off). The span records the
// operation, the selected algorithm, the per-rank payload size, and
// the cross-rank alignment key (cctx, collSeq): every member calls
// collectives in the same order, so the pair names the same instance
// on every rank — the merge pass keys the straggler report on it.
// collEnd closes it and feeds the collective-wall-time histogram.
// The pair also brackets the call with watchdog heartbeats, so a
// collective stuck on a silent peer is attributed to its operation.
func (c *Comm) collBegin(op obs.OpCode, algo CollAlgo, bytes int) *obs.Tracer {
	obs.BeatEnter(c.dev.Rank(), op, -1)
	tr := obs.Active()
	if tr != nil {
		key := uint64(uint32(c.cctx))<<32 | uint64(atomic.LoadUint32(&c.collSeq))
		tr.Begin(c.dev.Rank(), obs.KColl, uint64(op), uint64(algo), uint64(bytes), key)
	}
	return tr
}

func (c *Comm) collEnd(tr *obs.Tracer) {
	if tr != nil {
		tr.Record(obs.HistCollective, tr.End(c.dev.Rank()))
	}
	obs.BeatExit(c.dev.Rank())
}

// stepSpan captures the identity of one in-progress algorithm step
// (ring segment, recursive-doubling round). Steps that error out
// mid-body are simply not emitted.
type stepSpan struct {
	id    uint64
	start int64
}

func (c *Comm) stepBegin(tr *obs.Tracer) stepSpan {
	if tr == nil {
		return stepSpan{}
	}
	return stepSpan{id: tr.NewSpanID(), start: tr.Now()}
}

func (c *Comm) stepEnd(tr *obs.Tracer, sp stepSpan, step, bytes int) {
	if tr == nil || sp.id == 0 {
		return
	}
	lane := c.dev.Rank()
	tr.Span(lane, obs.KCollStep, sp.id, tr.Current(lane), sp.start, uint64(step), uint64(bytes))
}

// Collective operations. All collectives run over the communicator's
// dedicated collective context, so they can never match application
// point-to-point traffic.
//
// The internals are nonblocking: every algorithm posts Isend/Irecv
// requests and keeps multiple links in flight, so one slow edge no
// longer serializes the whole operation. Barrier (dissemination),
// scatter and gather (linear from the root), alltoall (every pair) and
// reduce (binomial fan-in) have one algorithm each. Broadcast,
// allgather and allreduce pick one of two per call with the size-aware
// selector in collalgo.go: binomial or segmented-pipeline broadcast,
// gather+broadcast or ring allgather, recursive-doubling or
// pipelined-ring allreduce.
//
// Tag layout (collective context only): bits 22+ carry the operation
// code, bits 12..21 a per-communicator sequence number (mod 1024) so
// back-to-back collectives on the same communicator can never
// cross-match even when ranks race ahead, and bits 0..11 a sub-tag
// (round, tree level, segment or ring step).

// Collective op codes (tag bits 22+).
const (
	opcBarrier = iota + 1
	opcBcast
	opcBcastSeg
	opcScatter
	opcGather
	opcAlltoall
	opcReduce
	opcRingRS // ring allreduce, reduce-scatter phase
	opcRingAG // ring allgather (and allreduce's allgather phase)
	opcRecDbl
	opcFold // recursive doubling's non-power-of-two fold/unfold
)

// Sub-tags for the fold/unfold exchanges around recursive doubling.
const (
	subFoldDown = 0
	subFoldUp   = 1 << 11
)

// collTag builds a collective tag from op code, per-comm sequence
// number and sub-tag. The sub-tag space is 12 bits (0..4095); every
// algorithm bounds its sub-tags accordingly (ringMaxRanks, the
// segment-count clamp in bcastPipelined, log2(n) tree levels).
func collTag(op int, seq uint32, sub int) int {
	return op<<22 | int(seq%1024)<<12 | sub
}

// nextCollSeq advances this communicator's collective sequence
// number. Collectives are called in the same order on every member
// (an MPI-standard requirement), so the per-call values agree across
// ranks without communication.
func (c *Comm) nextCollSeq() uint32 {
	return atomic.AddUint32(&c.collSeq, 1) - 1
}

// --- nonblocking request tracking -------------------------------------------

// Outstanding reports the number of incomplete requests registered
// with this communicator's device — the drain discipline keeps it at
// zero after every collective, successful or not.
func (c *Comm) Outstanding() int { return c.dev.Outstanding() }

// collReqs tracks the requests a collective has in flight and
// enforces the drain discipline: no matter how the collective exits,
// every posted request is completed or cancelled before control
// returns, so nothing leaks into the device match lists
// (Device.Outstanding returns to zero).
type collReqs struct {
	c    *Comm
	live []*adi.Request
	err  error
}

func (c *Comm) newReqs() *collReqs { return &collReqs{c: c} }

// recv posts an Irecv on the collective context. After the first
// error it becomes a no-op returning nil.
func (q *collReqs) recv(buf []byte, src, tag int) *adi.Request {
	if q.err != nil {
		return nil
	}
	req, err := q.c.dev.Irecv(adi.SliceBuf(buf), q.c.ranks[src], tag, q.c.cctx)
	if err != nil {
		q.err = err
		return nil
	}
	q.live = append(q.live, req)
	q.c.coll.noteSegs(len(q.live))
	return req
}

// send posts an Isend on the collective context and counts the
// payload toward BytesMoved.
func (q *collReqs) send(buf []byte, dst, tag int) *adi.Request {
	if q.err != nil {
		return nil
	}
	req, err := q.c.dev.Isend(adi.SliceBuf(buf), q.c.ranks[dst], tag, q.c.cctx, false)
	if err != nil {
		q.err = err
		return nil
	}
	q.live = append(q.live, req)
	q.c.coll.noteSegs(len(q.live))
	atomic.AddUint64(&q.c.coll.stats.BytesMoved, uint64(len(buf)))
	return req
}

// wait blocks until req completes. A nil req (failed post) or a prior
// error returns the recorded error immediately.
func (q *collReqs) wait(req *adi.Request) error {
	if q.err != nil || req == nil {
		return q.err
	}
	if _, err := q.c.dev.WaitReq(req); err != nil {
		q.err = err
		// A progress-engine error can surface with req still
		// incomplete; cancel (no-op if complete) so it cannot stay
		// registered with the device.
		q.c.dev.CancelReq(req)
	}
	for i, r := range q.live {
		if r == req {
			q.live = append(q.live[:i], q.live[i+1:]...)
			break
		}
	}
	return q.err
}

// finish drains every remaining request. While healthy it waits for
// each in posting order. After the first error it stops blocking:
// the progress engine gets one pass to complete what it can, then the
// remainder is cancelled so no request outlives the collective.
func (q *collReqs) finish() error {
	for q.err == nil && len(q.live) > 0 {
		req := q.live[0]
		if _, err := q.c.dev.WaitReq(req); err != nil {
			q.err = err
			q.c.dev.CancelReq(req)
		}
		q.live = q.live[1:]
	}
	if q.err == nil {
		return nil
	}
	for _, req := range q.live {
		q.c.dev.TestReq(req)
	}
	for _, req := range q.live {
		q.c.dev.CancelReq(req)
	}
	q.live = nil
	return q.err
}

// --- barrier ----------------------------------------------------------------

// Barrier blocks until every member has entered it (dissemination
// algorithm: log2(n) rounds of token exchange; each round's send
// stays in flight while the next round starts).
func (c *Comm) Barrier() error {
	n := c.Size()
	if n == 1 {
		return nil
	}
	seq := c.nextCollSeq()
	atomic.AddUint64(&c.coll.stats.Ops, 1)
	tr := c.collBegin(obs.OpBarrier, AlgoAuto, 0)
	defer c.collEnd(tr)
	q := c.newReqs()
	r := c.myRank
	round := 0
	for k := 1; k < n; k <<= 1 {
		to := (r + k) % n
		from := (r - k + n) % n
		tag := collTag(opcBarrier, seq, round)
		sp := c.stepBegin(tr)
		rr := q.recv(nil, from, tag)
		q.send(nil, to, tag)
		if err := q.wait(rr); err != nil {
			break
		}
		c.stepEnd(tr, sp, round, 0)
		round++
	}
	if err := q.finish(); err != nil {
		return fmt.Errorf("mp: barrier: %w", err)
	}
	return nil
}

// --- broadcast --------------------------------------------------------------

// Bcast broadcasts root's buf to every member. All members must pass
// equal-length buffers. Small payloads use a binomial tree with all
// child sends in flight; large payloads stream down the same tree in
// segments (see collalgo.go).
func (c *Comm) Bcast(buf []byte, root int) error {
	if err := c.checkDest(root); err != nil {
		return err
	}
	n := c.Size()
	if n == 1 {
		return nil
	}
	seq := c.nextCollSeq()
	atomic.AddUint64(&c.coll.stats.Ops, 1)
	var err error
	if c.pickBcast(len(buf), n) == AlgoPipelined {
		atomic.AddUint64(&c.coll.stats.BcastPipelined, 1)
		tr := c.collBegin(obs.OpBcast, AlgoPipelined, len(buf))
		err = c.bcastPipelined(buf, root, seq)
		c.collEnd(tr)
	} else {
		atomic.AddUint64(&c.coll.stats.BcastBinomial, 1)
		tr := c.collBegin(obs.OpBcast, AlgoBinomial, len(buf))
		err = c.bcastBinomial(buf, root, seq)
		c.collEnd(tr)
	}
	if err != nil {
		return fmt.Errorf("mp: bcast: %w", err)
	}
	return nil
}

// bcastTree computes this rank's parent (-1 at the root) and children
// in the binomial tree rooted at root: a rank receives on its lowest
// set relative bit and feeds the subtrees below it.
func (c *Comm) bcastTree(root int) (parent int, children []int) {
	n := c.Size()
	rel := (c.myRank - root + n) % n
	parent = -1
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent = (rel - mask + root + n) % n
			break
		}
		mask <<= 1
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		if rel+m < n {
			children = append(children, (rel+m+root)%n)
		}
	}
	return parent, children
}

func (c *Comm) bcastBinomial(buf []byte, root int, seq uint32) error {
	parent, children := c.bcastTree(root)
	q := c.newReqs()
	if parent >= 0 {
		rr := q.recv(buf, parent, collTag(opcBcast, seq, 0))
		if err := q.wait(rr); err != nil {
			return q.finish()
		}
	}
	for _, ch := range children {
		q.send(buf, ch, collTag(opcBcast, seq, 0))
	}
	return q.finish()
}

// bcastPipelined cuts buf into segments that stream down the binomial
// tree: an interior rank forwards segment i as soon as it lands while
// segments i+1.. are still arriving, keeping collWindow receives
// posted ahead and at most collWindow sends per child edge in flight.
func (c *Comm) bcastPipelined(buf []byte, root int, seq uint32) error {
	segSize := bcastSegSize
	// The sub-tag carries the segment index, so clamp the count to the
	// 12-bit sub-tag space for huge payloads.
	if minSeg := (len(buf) + 4095) / 4096; segSize < minSeg {
		segSize = minSeg
	}
	nseg := (len(buf) + segSize - 1) / segSize
	if nseg == 0 {
		nseg = 1 // zero-length broadcast still synchronizes the tree
	}
	segAt := func(i int) []byte {
		lo := i * segSize
		hi := min(lo+segSize, len(buf))
		return buf[lo:hi]
	}
	parent, children := c.bcastTree(root)
	q := c.newReqs()
	sendCap := collWindow * max(len(children), 1)
	var sends []*adi.Request
	if parent < 0 {
		for i := 0; i < nseg; i++ {
			for len(sends) >= sendCap {
				if err := q.wait(sends[0]); err != nil {
					return q.finish()
				}
				sends = sends[1:]
			}
			for _, ch := range children {
				sends = append(sends, q.send(segAt(i), ch, collTag(opcBcastSeg, seq, i)))
			}
		}
		return q.finish()
	}
	recvs := make([]*adi.Request, 0, collWindow)
	next := 0
	for next < nseg && len(recvs) < collWindow {
		recvs = append(recvs, q.recv(segAt(next), parent, collTag(opcBcastSeg, seq, next)))
		next++
	}
	for i := 0; i < nseg; i++ {
		if err := q.wait(recvs[0]); err != nil {
			return q.finish()
		}
		recvs = recvs[1:]
		if next < nseg {
			recvs = append(recvs, q.recv(segAt(next), parent, collTag(opcBcastSeg, seq, next)))
			next++
		}
		for len(sends) >= sendCap {
			if err := q.wait(sends[0]); err != nil {
				return q.finish()
			}
			sends = sends[1:]
		}
		for _, ch := range children {
			sends = append(sends, q.send(segAt(i), ch, collTag(opcBcastSeg, seq, i)))
		}
	}
	return q.finish()
}

// --- scatter / gather -------------------------------------------------------

// Scatter distributes equal chunks of root's sendbuf: rank i receives
// sendbuf[i*len(recvbuf) : (i+1)*len(recvbuf)]. sendbuf is ignored on
// non-roots.
func (c *Comm) Scatter(sendbuf, recvbuf []byte, root int) error {
	n := c.Size()
	if err := c.checkDest(root); err != nil {
		return err
	}
	chunk := len(recvbuf)
	if c.myRank == root && len(sendbuf) != chunk*n {
		return fmt.Errorf("%w: scatter sendbuf %d bytes for %d chunks of %d", errInvalid, len(sendbuf), n, chunk)
	}
	seq := c.nextCollSeq()
	atomic.AddUint64(&c.coll.stats.Ops, 1)
	tr := c.collBegin(obs.OpScatter, AlgoAuto, len(recvbuf))
	defer c.collEnd(tr)
	return c.scatterLinear(sendbuf, recvbuf, root, seq)
}

func (c *Comm) scatterLinear(sendbuf, recvbuf []byte, root int, seq uint32) error {
	n := c.Size()
	chunk := len(recvbuf)
	if c.myRank != root {
		q := c.newReqs()
		q.recv(recvbuf, root, collTag(opcScatter, seq, 0))
		return q.finish()
	}
	q := c.newReqs()
	for r := 0; r < n; r++ {
		part := sendbuf[r*chunk : (r+1)*chunk]
		if r == root {
			copy(recvbuf, part)
			continue
		}
		q.send(part, r, collTag(opcScatter, seq, 0))
	}
	return q.finish()
}

// Gather collects equal chunks into root's recvbuf: rank i's sendbuf
// lands at recvbuf[i*len(sendbuf) : ...]. recvbuf is ignored on
// non-roots.
func (c *Comm) Gather(sendbuf, recvbuf []byte, root int) error {
	n := c.Size()
	if err := c.checkDest(root); err != nil {
		return err
	}
	if c.myRank == root && len(recvbuf) != len(sendbuf)*n {
		return fmt.Errorf("%w: gather recvbuf %d bytes for %d chunks of %d", errInvalid, len(recvbuf), n, len(sendbuf))
	}
	seq := c.nextCollSeq()
	atomic.AddUint64(&c.coll.stats.Ops, 1)
	tr := c.collBegin(obs.OpGather, AlgoAuto, len(sendbuf))
	defer c.collEnd(tr)
	return c.gatherLinear(sendbuf, recvbuf, root, seq)
}

func (c *Comm) gatherLinear(sendbuf, recvbuf []byte, root int, seq uint32) error {
	n := c.Size()
	chunk := len(sendbuf)
	q := c.newReqs()
	if c.myRank != root {
		q.send(sendbuf, root, collTag(opcGather, seq, 0))
		return q.finish()
	}
	copy(recvbuf[root*chunk:], sendbuf)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		q.recv(recvbuf[r*chunk:(r+1)*chunk], r, collTag(opcGather, seq, 0))
	}
	return q.finish()
}

// --- allgather --------------------------------------------------------------

// Allgather gathers every member's equal-size chunk to all members.
// recvbuf must hold Size()*len(sendbuf) bytes. Large totals rotate
// around a ring (every link busy every step); small ones gather to
// rank 0 and broadcast.
func (c *Comm) Allgather(sendbuf, recvbuf []byte) error {
	n := c.Size()
	chunk := len(sendbuf)
	if len(recvbuf) != chunk*n {
		return fmt.Errorf("%w: allgather recvbuf %d bytes for %d chunks of %d", errInvalid, len(recvbuf), n, chunk)
	}
	if n == 1 {
		copy(recvbuf, sendbuf)
		return nil
	}
	atomic.AddUint64(&c.coll.stats.Ops, 1)
	var err error
	if c.pickAllgather(chunk, n) == AlgoRing {
		atomic.AddUint64(&c.coll.stats.AllgatherRing, 1)
		tr := c.collBegin(obs.OpAllgather, AlgoRing, chunk)
		err = c.allgatherRing(sendbuf, recvbuf, c.nextCollSeq())
		c.collEnd(tr)
	} else {
		atomic.AddUint64(&c.coll.stats.AllgatherGatherBcast, 1)
		tr := c.collBegin(obs.OpAllgather, AlgoGatherBcast, chunk)
		err = c.allgatherGatherBcast(sendbuf, recvbuf)
		c.collEnd(tr)
	}
	if err != nil {
		return fmt.Errorf("mp: allgather: %w", err)
	}
	return nil
}

// allgatherRing rotates chunks around the ring: step s sends chunk
// (me-s) right and receives chunk (me-s-1) from the left. All n-1
// receives are posted upfront (the chunks are disjoint and the
// sub-tag carries the step), so a fast neighbor can run ahead.
func (c *Comm) allgatherRing(sendbuf, recvbuf []byte, seq uint32) error {
	n := c.Size()
	chunk := len(sendbuf)
	me := c.myRank
	copy(recvbuf[me*chunk:], sendbuf)
	right := (me + 1) % n
	left := (me - 1 + n) % n
	q := c.newReqs()
	tr := obs.Active()
	recvs := make([]*adi.Request, n-1)
	for s := 0; s < n-1; s++ {
		idx := (me - s - 1 + n) % n
		recvs[s] = q.recv(recvbuf[idx*chunk:(idx+1)*chunk], left, collTag(opcRingAG, seq, s))
	}
	for s := 0; s < n-1; s++ {
		sp := c.stepBegin(tr)
		idx := (me - s + n) % n
		q.send(recvbuf[idx*chunk:(idx+1)*chunk], right, collTag(opcRingAG, seq, s))
		if err := q.wait(recvs[s]); err != nil {
			break
		}
		c.stepEnd(tr, sp, s, chunk)
	}
	return q.finish()
}

// allgatherGatherBcast is the small-message algorithm: gather to rank
// 0, then broadcast the assembled buffer.
func (c *Comm) allgatherGatherBcast(sendbuf, recvbuf []byte) error {
	if err := c.gatherLinear(sendbuf, recvbuf, 0, c.nextCollSeq()); err != nil {
		return err
	}
	seq := c.nextCollSeq()
	if c.pickBcast(len(recvbuf), c.Size()) == AlgoPipelined {
		return c.bcastPipelined(recvbuf, 0, seq)
	}
	return c.bcastBinomial(recvbuf, 0, seq)
}

// --- alltoall ---------------------------------------------------------------

// Alltoall exchanges equal chunks between every pair: rank j receives
// sendbuf[j*chunk:(j+1)*chunk] from every rank i at
// recvbuf[i*chunk:(i+1)*chunk]. All receives are posted before all
// sends (deadlock-free), and on error every outstanding request is
// drained or cancelled before returning.
func (c *Comm) Alltoall(sendbuf, recvbuf []byte) error {
	n := c.Size()
	if len(sendbuf)%n != 0 || len(recvbuf) != len(sendbuf) {
		return fmt.Errorf("%w: alltoall buffers %d/%d bytes for %d ranks", errInvalid, len(sendbuf), len(recvbuf), n)
	}
	chunk := len(sendbuf) / n
	seq := c.nextCollSeq()
	atomic.AddUint64(&c.coll.stats.Ops, 1)
	tr := c.collBegin(obs.OpAlltoall, AlgoAuto, chunk)
	defer c.collEnd(tr)
	me := c.myRank
	copy(recvbuf[me*chunk:(me+1)*chunk], sendbuf[me*chunk:(me+1)*chunk])
	q := c.newReqs()
	for peer := 0; peer < n; peer++ {
		if peer == me {
			continue
		}
		q.recv(recvbuf[peer*chunk:(peer+1)*chunk], peer, collTag(opcAlltoall, seq, 0))
	}
	for peer := 0; peer < n; peer++ {
		if peer == me {
			continue
		}
		q.send(sendbuf[peer*chunk:(peer+1)*chunk], peer, collTag(opcAlltoall, seq, 0))
	}
	if err := q.finish(); err != nil {
		return fmt.Errorf("mp: alltoall: %w", err)
	}
	return nil
}

// --- reduce / allreduce -----------------------------------------------------

// Reduce combines every member's sendbuf with op into root's recvbuf
// (binomial fan-in with all child receives posted upfront). recvbuf
// is ignored on non-roots.
func (c *Comm) Reduce(sendbuf, recvbuf []byte, dt Datatype, op Op, root int) error {
	if err := c.checkDest(root); err != nil {
		return err
	}
	if c.myRank == root && len(recvbuf) != len(sendbuf) {
		return fmt.Errorf("%w: reduce recvbuf %d != sendbuf %d", errInvalid, len(recvbuf), len(sendbuf))
	}
	seq := c.nextCollSeq()
	atomic.AddUint64(&c.coll.stats.Ops, 1)
	tr := c.collBegin(obs.OpReduce, AlgoBinomial, len(sendbuf))
	defer c.collEnd(tr)
	return c.reduceBinomial(sendbuf, recvbuf, dt, op, root, seq)
}

func (c *Comm) reduceBinomial(sendbuf, recvbuf []byte, dt Datatype, op Op, root int, seq uint32) error {
	n := c.Size()
	acc := make([]byte, len(sendbuf))
	copy(acc, sendbuf)
	rel := (c.myRank - root + n) % n
	q := c.newReqs()
	// Post every child receive upfront so subtree results arriving out
	// of order overlap; combine in mask order for determinism.
	type childRecv struct {
		req *adi.Request
		buf []byte
	}
	var kids []childRecv
	parent, pbit := -1, 0
	mask, bit := 1, 0
	for mask < n {
		if rel&mask != 0 {
			parent = (rel - mask + root + n) % n
			pbit = bit
			break
		}
		if rel+mask < n {
			child := (rel + mask + root) % n
			tmp := make([]byte, len(sendbuf))
			kids = append(kids, childRecv{q.recv(tmp, child, collTag(opcReduce, seq, bit)), tmp})
		}
		mask <<= 1
		bit++
	}
	for _, k := range kids {
		if err := q.wait(k.req); err != nil {
			return q.finish()
		}
		if err := reduceInto(op, dt, acc, k.buf); err != nil {
			q.finish()
			return err
		}
	}
	if parent >= 0 {
		q.send(acc, parent, collTag(opcReduce, seq, pbit))
	}
	if err := q.finish(); err != nil {
		return err
	}
	if c.myRank == root {
		copy(recvbuf, acc)
	}
	return nil
}

// Allreduce combines every member's sendbuf into every member's
// recvbuf. Large payloads use the bandwidth-optimal pipelined ring;
// small ones use recursive doubling.
func (c *Comm) Allreduce(sendbuf, recvbuf []byte, dt Datatype, op Op) error {
	if len(recvbuf) != len(sendbuf) {
		return fmt.Errorf("%w: allreduce recvbuf %d != sendbuf %d", errInvalid, len(recvbuf), len(sendbuf))
	}
	n := c.Size()
	if n == 1 {
		copy(recvbuf, sendbuf)
		return nil
	}
	if dt.Size <= 0 || len(sendbuf)%dt.Size != 0 {
		return fmt.Errorf("%w: allreduce buffer %d bytes for %s", errInvalid, len(sendbuf), dt.Name)
	}
	atomic.AddUint64(&c.coll.stats.Ops, 1)
	var err error
	if c.pickAllreduce(len(sendbuf), n) == AlgoRing {
		atomic.AddUint64(&c.coll.stats.AllreduceRing, 1)
		tr := c.collBegin(obs.OpAllreduce, AlgoRing, len(sendbuf))
		err = c.allreduceRing(sendbuf, recvbuf, dt, op, c.nextCollSeq())
		c.collEnd(tr)
	} else {
		atomic.AddUint64(&c.coll.stats.AllreduceRecDbl, 1)
		tr := c.collBegin(obs.OpAllreduce, AlgoRecDbl, len(sendbuf))
		err = c.allreduceRecDbl(sendbuf, recvbuf, dt, op, c.nextCollSeq())
		c.collEnd(tr)
	}
	if err != nil {
		return fmt.Errorf("mp: allreduce: %w", err)
	}
	return nil
}

// allreduceRing is the bandwidth-optimal pipelined ring: an
// element-aligned reduce-scatter (n-1 steps; after which rank r owns
// the fully reduced chunk r+1) followed by a ring allgather of the
// reduced chunks. Every link carries 2·bytes·(n-1)/n total and every
// link is busy every step.
func (c *Comm) allreduceRing(sendbuf, recvbuf []byte, dt Datatype, op Op, seq uint32) error {
	n := c.Size()
	me := c.myRank
	copy(recvbuf, sendbuf)
	elems := len(sendbuf) / dt.Size
	off := make([]int, n+1)
	for i := 0; i <= n; i++ {
		off[i] = elems * i / n * dt.Size
	}
	chunkAt := func(i int) []byte {
		i = ((i % n) + n) % n
		return recvbuf[off[i]:off[i+1]]
	}
	maxChunk := 0
	for i := 0; i < n; i++ {
		maxChunk = max(maxChunk, off[i+1]-off[i])
	}
	tmp := make([]byte, maxChunk)
	right := (me + 1) % n
	left := (me - 1 + n) % n
	q := c.newReqs()
	tr := obs.Active()
	// Phase 1: reduce-scatter. Step s sends chunk (me-s) right and
	// reduces the incoming chunk (me-s-1) from the left.
	for s := 0; s < n-1; s++ {
		sp := c.stepBegin(tr)
		rchunk := chunkAt(me - s - 1)
		rr := q.recv(tmp[:len(rchunk)], left, collTag(opcRingRS, seq, s))
		q.send(chunkAt(me-s), right, collTag(opcRingRS, seq, s))
		if err := q.wait(rr); err != nil {
			return q.finish()
		}
		if err := reduceInto(op, dt, rchunk, tmp[:len(rchunk)]); err != nil {
			q.finish()
			return err
		}
		c.stepEnd(tr, sp, s, len(rchunk))
	}
	// Drain phase-1 sends before phase 2 overwrites their chunks: a
	// rendezvous send still in flight reads its buffer at CTS time.
	if err := q.finish(); err != nil {
		return err
	}
	// Phase 2: allgather of the reduced chunks. Step s sends chunk
	// (me+1-s) right and receives chunk (me-s) from the left.
	for s := 0; s < n-1; s++ {
		sp := c.stepBegin(tr)
		rr := q.recv(chunkAt(me-s), left, collTag(opcRingAG, seq, s))
		q.send(chunkAt(me+1-s), right, collTag(opcRingAG, seq, s))
		if err := q.wait(rr); err != nil {
			break
		}
		c.stepEnd(tr, sp, n-1+s, len(chunkAt(me-s)))
	}
	return q.finish()
}

// allreduceRecDbl is recursive doubling: non-power-of-two ranks fold
// into the nearest power of two, log2 rounds of pairwise exchange run
// the reduction, and the folded ranks get the result back. All Motor
// reduction ops are commutative, so combine order per round is free.
func (c *Comm) allreduceRecDbl(sendbuf, recvbuf []byte, dt Datatype, op Op, seq uint32) error {
	n := c.Size()
	me := c.myRank
	copy(recvbuf, sendbuf)
	tmp := make([]byte, len(sendbuf))
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	q := c.newReqs()
	newRank := -1
	if me < 2*rem {
		if me%2 == 0 {
			// Fold: donate to the odd neighbor and sit out the rounds.
			sr := q.send(recvbuf, me+1, collTag(opcFold, seq, subFoldDown))
			if err := q.wait(sr); err != nil {
				return q.finish()
			}
		} else {
			rr := q.recv(tmp, me-1, collTag(opcFold, seq, subFoldDown))
			if err := q.wait(rr); err != nil {
				return q.finish()
			}
			if err := reduceInto(op, dt, recvbuf, tmp); err != nil {
				q.finish()
				return err
			}
			newRank = me / 2
		}
	} else {
		newRank = me - rem
	}
	if newRank >= 0 {
		tr := obs.Active()
		bit := 1
		for mask := 1; mask < pof2; mask <<= 1 {
			sp := c.stepBegin(tr)
			peerNew := newRank ^ mask
			peer := peerNew*2 + 1
			if peerNew >= rem {
				peer = peerNew + rem
			}
			tag := collTag(opcRecDbl, seq, bit)
			rr := q.recv(tmp, peer, tag)
			sr := q.send(recvbuf, peer, tag)
			if err := q.wait(rr); err != nil {
				return q.finish()
			}
			// The outgoing copy of recvbuf must be on the wire before
			// the combine overwrites it.
			if err := q.wait(sr); err != nil {
				return q.finish()
			}
			if err := reduceInto(op, dt, recvbuf, tmp); err != nil {
				q.finish()
				return err
			}
			c.stepEnd(tr, sp, bit, len(recvbuf))
			bit++
		}
	}
	// Unfold: hand the result back to the folded even ranks.
	if me < 2*rem {
		if me%2 == 1 {
			q.send(recvbuf, me-1, collTag(opcFold, seq, subFoldUp))
		} else {
			rr := q.recv(recvbuf, me+1, collTag(opcFold, seq, subFoldUp))
			if err := q.wait(rr); err != nil {
				return q.finish()
			}
		}
	}
	return q.finish()
}
