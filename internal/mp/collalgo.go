package mp

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Collective algorithm selection. Each collective picks an algorithm
// per call from the message size and communicator size — the KaMPIng
// observation that bindings can select near-optimally with no
// per-call overhead — and records the choice in CollStats. Tests and
// re-measurement force the selection per operation with SetCollAlgo,
// e.g. "allreduce=ring,allgather=gatherbcast,bcast=binomial".
//
// Crossover points (see docs/COLLECTIVES.md for the measurements):
// latency-bound algorithms below the thresholds, bandwidth-optimal
// pipelines above them.

// CollAlgo names a collective algorithm (see the algo* constants).
type CollAlgo uint8

// Collective algorithms. AlgoAuto lets the size-aware selector
// choose; the rest force one implementation.
const (
	AlgoAuto CollAlgo = iota
	// AlgoRecDbl is recursive-doubling allreduce: log2(n) rounds of
	// pairwise exchange, latency-optimal for small payloads.
	AlgoRecDbl
	// AlgoRing is the pipelined ring: reduce-scatter + allgather for
	// allreduce, rotation for allgather; bandwidth-optimal
	// (2·bytes·(n-1)/n on every link, all links busy).
	AlgoRing
	// AlgoGatherBcast is the small-message allgather: gather to rank
	// 0, then broadcast the assembled buffer.
	AlgoGatherBcast
	// AlgoBinomial is the small-message broadcast: a binomial tree
	// with all child sends in flight at once.
	AlgoBinomial
	// AlgoPipelined is the segmented binomial broadcast: the payload
	// is cut into segments that stream down the tree with a window of
	// segments in flight per edge.
	AlgoPipelined
)

// String names the algorithm as accepted by SetCollAlgo.
func (a CollAlgo) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoRecDbl:
		return "recdbl"
	case AlgoRing:
		return "ring"
	case AlgoGatherBcast:
		return "gatherbcast"
	case AlgoBinomial:
		return "binomial"
	case AlgoPipelined:
		return "pipelined"
	default:
		return fmt.Sprintf("algo(%d)", uint8(a))
	}
}

// collOp identifies the selectable collective operations.
type collOp uint8

const (
	opAllreduce collOp = iota
	opAllgather
	opBcast
	collOpCount
)

var collOpNames = [collOpCount]string{"allreduce", "allgather", "bcast"}

// Selection thresholds. Below the byte thresholds the latency-bound
// algorithm wins (fewer rounds); above them the pipelined /
// ring algorithms win (less data on the critical path).
const (
	// allreduceRingMin is the payload size from which ring allreduce
	// replaces recursive doubling.
	allreduceRingMin = 32 << 10
	// allgatherRingMin is the total (n·chunk) size from which ring
	// allgather replaces gather+bcast.
	allgatherRingMin = 16 << 10
	// bcastPipelineMin is the payload size from which the segmented
	// pipeline replaces the single-shot binomial tree.
	bcastPipelineMin = 64 << 10
	// bcastSegSize is the pipeline segment size.
	bcastSegSize = 16 << 10
	// collWindow bounds the segments in flight per edge (and the
	// posted-ahead receive window of the ring algorithms).
	collWindow = 4
	// ringMaxRanks bounds the ring algorithms' sub-tag space (one
	// sub-tag per step, two phases).
	ringMaxRanks = 2047
)

// CollStats counts collective-layer activity for one rank: which
// algorithm each call chose, the payload bytes this rank moved inside
// collectives, and the peak number of segment transfers in flight.
// Derived communicators (Dup/Split/Spawn-merge) share their parent's
// counters, so the struct aggregates per rank, not per communicator.
type CollStats struct {
	Ops uint64 // collective operations completed by this rank

	AllreduceRecDbl      uint64
	AllreduceRing        uint64
	AllgatherGatherBcast uint64
	AllgatherRing        uint64
	BcastBinomial        uint64
	BcastPipelined       uint64

	BytesMoved      uint64 // payload bytes sent by this rank in collectives
	MaxSegsInFlight uint64 // peak concurrent transfers inside one collective
}

// collConfig is the per-rank collective configuration: stats plus
// forced algorithm choices. One instance is shared by the world
// communicator and everything derived from it.
type collConfig struct {
	stats CollStats
	force [collOpCount]CollAlgo
}

// apply parses an "op=algo[,op=algo]" spec into forced choices and
// commits them only when the whole spec parses.
func (cfg *collConfig) apply(spec string) error {
	force := cfg.force
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		op, algo, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("%w: coll algo spec %q (want op=algo)", errInvalid, field)
		}
		opIdx := collOpCount
		for i, name := range collOpNames {
			if name == strings.TrimSpace(op) {
				opIdx = collOp(i)
			}
		}
		if opIdx == collOpCount {
			return fmt.Errorf("%w: unknown collective %q", errInvalid, op)
		}
		a, err := parseAlgo(strings.TrimSpace(algo))
		if err != nil {
			return err
		}
		if !algoValidFor(opIdx, a) {
			return fmt.Errorf("%w: algorithm %q does not implement %s", errInvalid, algo, collOpNames[opIdx])
		}
		force[opIdx] = a
	}
	cfg.force = force
	return nil
}

func parseAlgo(s string) (CollAlgo, error) {
	for a := AlgoAuto; a <= AlgoPipelined; a++ {
		if a.String() == s {
			return a, nil
		}
	}
	return AlgoAuto, fmt.Errorf("%w: unknown collective algorithm %q", errInvalid, s)
}

func algoValidFor(op collOp, a CollAlgo) bool {
	if a == AlgoAuto {
		return true
	}
	switch op {
	case opAllreduce:
		return a == AlgoRecDbl || a == AlgoRing
	case opAllgather:
		return a == AlgoGatherBcast || a == AlgoRing
	case opBcast:
		return a == AlgoBinomial || a == AlgoPipelined
	}
	return false
}

// SetCollAlgo forces collective algorithm choices for this rank (the
// config is shared with every communicator derived from the same
// world). The spec is "op=algo[,op=algo]" with ops
// allreduce|allgather|bcast and algos
// auto|recdbl|ring|gatherbcast|binomial|pipelined. A spec that does
// not parse forces nothing. It must be applied identically on every
// rank.
func (c *Comm) SetCollAlgo(spec string) error { return c.coll.apply(spec) }

// CollStats returns a consistent snapshot of this rank's collective
// counters. Writers bump atomically, so this is safe while other
// goroutines (or the background progress engine) run collectives.
func (c *Comm) CollStats() CollStats {
	s := &c.coll.stats
	return CollStats{
		Ops:                  atomic.LoadUint64(&s.Ops),
		AllreduceRecDbl:      atomic.LoadUint64(&s.AllreduceRecDbl),
		AllreduceRing:        atomic.LoadUint64(&s.AllreduceRing),
		AllgatherGatherBcast: atomic.LoadUint64(&s.AllgatherGatherBcast),
		AllgatherRing:        atomic.LoadUint64(&s.AllgatherRing),
		BcastBinomial:        atomic.LoadUint64(&s.BcastBinomial),
		BcastPipelined:       atomic.LoadUint64(&s.BcastPipelined),
		BytesMoved:           atomic.LoadUint64(&s.BytesMoved),
		MaxSegsInFlight:      atomic.LoadUint64(&s.MaxSegsInFlight),
	}
}

// pickAllreduce selects the allreduce algorithm for a payload of the
// given size on n ranks.
func (c *Comm) pickAllreduce(bytes, n int) CollAlgo {
	if a := c.coll.force[opAllreduce]; a != AlgoAuto {
		if a == AlgoRing && n > ringMaxRanks {
			return AlgoRecDbl
		}
		return a
	}
	if bytes >= allreduceRingMin && n >= 3 && n <= ringMaxRanks {
		return AlgoRing
	}
	return AlgoRecDbl
}

// pickAllgather selects the allgather algorithm for per-rank chunks
// of the given size on n ranks.
func (c *Comm) pickAllgather(chunk, n int) CollAlgo {
	if a := c.coll.force[opAllgather]; a != AlgoAuto {
		if a == AlgoRing && n > ringMaxRanks {
			return AlgoGatherBcast
		}
		return a
	}
	if chunk*n >= allgatherRingMin && n >= 3 && n <= ringMaxRanks {
		return AlgoRing
	}
	return AlgoGatherBcast
}

// pickBcast selects the broadcast algorithm for a payload of the
// given size.
func (c *Comm) pickBcast(bytes, n int) CollAlgo {
	if a := c.coll.force[opBcast]; a != AlgoAuto {
		return a
	}
	if bytes >= bcastPipelineMin && n >= 2 {
		return AlgoPipelined
	}
	return AlgoBinomial
}

// noteSegs records a new peak of concurrent in-flight transfers.
func (cfg *collConfig) noteSegs(inFlight int) {
	n := uint64(inFlight)
	for {
		max := atomic.LoadUint64(&cfg.stats.MaxSegsInFlight)
		if n <= max || atomic.CompareAndSwapUint64(&cfg.stats.MaxSegsInFlight, max, n) {
			return
		}
	}
}
