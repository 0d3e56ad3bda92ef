// Package fault provides deterministic fault injection at the PAL
// seam. A fault.Platform wraps any pal.Platform and injects seeded,
// scriptable transport faults — refused or delayed dials, connection
// resets, short reads and writes, mid-stream drops, one-directional
// partitions — driven by a declarative Plan. Every decision the
// injector makes is a pure function of the plan, its seed, and the
// sequence of operations observed, so a failing chaos run is
// reproducible from its seed alone.
//
// The textual plan format accepted by ParsePlan, the semantics of
// each fault kind, and the transport-hardening behaviour the injector
// exercises are documented in docs/FAULTS.md.
package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Op identifies the platform operation a rule applies to.
type Op uint8

// Fault-injectable operations.
const (
	OpDial Op = iota
	OpAccept
	OpRead
	OpWrite
	numOps
)

var opNames = [numOps]string{"dial", "accept", "read", "write"}

// String renders the operation name used by the textual plan format.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Kind identifies what the injected fault does.
type Kind uint8

// Fault kinds.
const (
	// KindRefuse fails the operation outright: a dial returns
	// connection-refused, an accepted connection is dropped
	// immediately, a read or write returns connection-reset.
	KindRefuse Kind = iota
	// KindReset closes the connection and returns a reset error —
	// the mid-stream "connection reset by peer" failure.
	KindReset
	// KindDelay stalls the operation for Rule.Delay before letting it
	// proceed (slow dials, slow reads, slow writes).
	KindDelay
	// KindShort truncates the operation: a read returns at most
	// Rule.Bytes bytes (no error), a write transmits only Rule.Bytes
	// bytes and returns a short-write error — leaving a partial frame
	// on the wire, the framing hazard the sock channel must poison.
	KindShort
	// KindDrop lets at most Rule.Bytes bytes through and then closes
	// the connection mid-operation.
	KindDrop
	// KindPartition black-holes one direction: reads behave as if no
	// data ever arrives (deadline timeouts), writes claim success but
	// transmit nothing.
	KindPartition
	numKinds
)

var kindNames = [numKinds]string{"refuse", "reset", "delay", "short", "drop", "partition"}

// String renders the kind name used by the textual plan format.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Rule is one declarative fault trigger. A rule matches an operation
// by Op and (optionally) peer address; each match counts one
// occurrence. Triggering is controlled by Nth, Count and Prob:
//
//   - Nth > 0: arm only from the Nth matching occurrence onward.
//   - Count > 0: inject at most Count faults; Count == 0 with Nth set
//     means exactly one, Count == 0 with Nth == 0 means unlimited.
//   - Prob in (0,1): gate each armed occurrence on a coin flip from
//     the rule's own seeded generator (deterministic per seed).
type Rule struct {
	Op    Op
	Kind  Kind
	Peer  string        // substring match on the peer address; "" = any
	Nth   int           // 1-based arming occurrence; 0 = every occurrence
	Count int           // max injections; 0 = once (with Nth) or unlimited
	Prob  float64       // injection probability; 0 or 1 = always
	Delay time.Duration // KindDelay stall (default 1ms)
	Bytes int           // KindShort / KindDrop byte allowance
}

func (r Rule) delay() time.Duration {
	if r.Delay <= 0 {
		return time.Millisecond
	}
	return r.Delay
}

func (r Rule) String() string {
	s := fmt.Sprintf("%s:%s", r.Kind, r.Op)
	if r.Peer != "" {
		s += ":peer=" + r.Peer
	}
	if r.Nth > 0 {
		s += fmt.Sprintf(":nth=%d", r.Nth)
	}
	if r.Count > 0 {
		s += fmt.Sprintf(":count=%d", r.Count)
	}
	if r.Prob > 0 && r.Prob < 1 {
		s += fmt.Sprintf(":prob=%g", r.Prob)
	}
	if r.Delay > 0 {
		s += fmt.Sprintf(":delay=%s", r.Delay)
	}
	if r.Bytes > 0 {
		s += fmt.Sprintf(":bytes=%d", r.Bytes)
	}
	return s
}

// Plan is a seeded set of fault rules. The zero plan injects nothing.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// Event records one injected fault, in injection order. The
// reproducibility contract is per rule: Rule, Op, Kind and Occurrence
// repeat for a given plan and seed.
type Event struct {
	// Seq is the injector's global operation count at injection. It
	// counts every intercepted operation, reads included, and a live
	// transport's read count is timing-dependent: diagnostic only, not
	// comparable between runs.
	Seq        uint64
	Rule       int // index of the firing rule in the plan
	Op         Op
	Kind       Kind
	Peer       string
	Occurrence int // the rule's matching-occurrence count at injection
}

func (e Event) String() string {
	return fmt.Sprintf("#%d rule%d %s:%s peer=%q occ=%d", e.Seq, e.Rule, e.Kind, e.Op, e.Peer, e.Occurrence)
}

// Stats counts injected faults by kind.
type Stats struct {
	Total    uint64
	Injected [numKinds]uint64
}

// ruleState is one rule's mutable trigger state. Each rule owns a
// generator seeded from (plan seed, rule index) so probabilistic
// rules stay deterministic independent of each other.
type ruleState struct {
	rule  Rule
	rng   *rand.Rand
	hits  int
	fires int
}

// injector is the deterministic decision core shared by the Platform
// wrappers. Its state advances only through decide, so two injectors
// built from the same plan and fed the same operation sequence emit
// identical event logs — the property the chaos suite relies on.
type injector struct {
	mu     sync.Mutex
	rules  []ruleState
	seq    uint64
	events []Event
	stats  Stats
}

func newInjector(plan Plan) *injector {
	in := &injector{rules: make([]ruleState, len(plan.Rules))}
	for i, r := range plan.Rules {
		in.rules[i] = ruleState{
			rule: r,
			rng:  rand.New(rand.NewSource(plan.Seed ^ int64(i+1)*0x9e3779b97f4a7c)),
		}
	}
	return in
}

// decide consumes one operation occurrence and reports the first rule
// that injects a fault for it, if any.
func (in *injector) decide(op Op, peer string) (Rule, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq++
	var fired Rule
	firedOK := false
	for i := range in.rules {
		rs := &in.rules[i]
		r := rs.rule
		if r.Op != op {
			continue
		}
		if r.Peer != "" && !strings.Contains(peer, r.Peer) {
			continue
		}
		// Every matching rule counts the occurrence, whether or not an
		// earlier rule already fired — a rule's Nth refers to the Nth
		// matching operation, independent of the rest of the plan.
		rs.hits++
		if firedOK {
			continue
		}
		if r.Count > 0 && rs.fires >= r.Count {
			continue
		}
		if r.Nth > 0 {
			if rs.hits < r.Nth {
				continue
			}
			if r.Count == 0 && rs.fires >= 1 {
				continue
			}
		}
		if r.Prob > 0 && r.Prob < 1 && rs.rng.Float64() >= r.Prob {
			continue
		}
		rs.fires++
		in.stats.Total++
		in.stats.Injected[r.Kind]++
		in.events = append(in.events, Event{
			Seq: in.seq, Rule: i, Op: op, Kind: r.Kind, Peer: peer, Occurrence: rs.hits,
		})
		fired, firedOK = r, true
	}
	return fired, firedOK
}

func (in *injector) snapshotEvents() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

func (in *injector) snapshotStats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
