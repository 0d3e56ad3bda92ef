package vm

// GC parity suite (docs/GC.md): both collector policies — the §5.2
// policy (GCWorkers=1: whole-block donation, elder never moved) and
// the moving policy (segregated pinned blocks, elder compaction) —
// must implement the same observable semantics, and the reference
// model of gc_model_test.go says what those are. A seeded generator
// builds one concrete op script — allocation graphs with cycles,
// pins, conditional pins, write-barrier mutations, and explicit
// collections — and replays it against the model and one fresh VM per
// policy. After every collection each VM's logical heap graph, pinned
// and held addresses, and cond-pin examinations must equal the
// model's, and its heap must pass CheckInvariants.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
)

const (
	diffRootSlots = 24
	diffYoung     = 32 << 10
)

// --- op script -------------------------------------------------------

type diffOpKind int

const (
	dAllocNode diffOpKind = iota
	dAllocIntArr
	dAllocRefArr
	dLinkField
	dLinkElem
	dStoreInt
	dDrop
	dPin
	dUnpin
	dCondPin
	dCollectYoung
	dCollectFull
	dCollectCompact
)

// diffOp is one fully pre-drawn operation: all randomness is resolved
// at script-generation time so the model and every world replay
// byte-identical sequences.
type diffOp struct {
	kind    diffOpKind
	a, b, c int // slot / field / target operands, meaning per kind
}

// genScript draws a bounded script: each round allocates at most 10
// small objects (so a nursery recycled at a fraction of its size never
// fills between the explicit collections) and ends in a collection.
func genScript(seed int64, rounds int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []diffOp
	for r := 0; r < rounds; r++ {
		allocs := 0
		n := 8 + rng.Intn(8)
		for i := 0; i < n; i++ {
			switch k := rng.Intn(10); {
			case k < 3 && allocs < 10:
				allocs++
				ops = append(ops, diffOp{kind: dAllocNode, a: rng.Intn(diffRootSlots), b: rng.Intn(1 << 16)})
			case k == 3 && allocs < 10:
				allocs++
				ops = append(ops, diffOp{kind: dAllocIntArr, a: rng.Intn(diffRootSlots), b: 1 + rng.Intn(48), c: rng.Intn(1 << 16)})
			case k == 4 && allocs < 10:
				allocs++
				ops = append(ops, diffOp{kind: dAllocRefArr, a: rng.Intn(diffRootSlots), b: 1 + rng.Intn(8)})
			case k == 5:
				ops = append(ops, diffOp{kind: dLinkField, a: rng.Intn(diffRootSlots), b: rng.Intn(3), c: rng.Intn(diffRootSlots)})
			case k == 6:
				ops = append(ops, diffOp{kind: dLinkElem, a: rng.Intn(diffRootSlots), b: rng.Intn(8), c: rng.Intn(diffRootSlots)})
			case k == 7:
				ops = append(ops, diffOp{kind: dStoreInt, a: rng.Intn(diffRootSlots), b: rng.Intn(1 << 16)})
			case k == 8:
				switch rng.Intn(4) {
				case 0:
					ops = append(ops, diffOp{kind: dPin, a: rng.Intn(diffRootSlots)})
				case 1:
					ops = append(ops, diffOp{kind: dUnpin, a: rng.Intn(16)})
				case 2:
					ops = append(ops, diffOp{kind: dCondPin, a: rng.Intn(diffRootSlots), b: 1 + rng.Intn(3)})
				case 3:
					ops = append(ops, diffOp{kind: dDrop, a: rng.Intn(diffRootSlots)})
				}
			default:
				ops = append(ops, diffOp{kind: dDrop, a: rng.Intn(diffRootSlots)})
			}
		}
		switch {
		case r%4 == 3:
			ops = append(ops, diffOp{kind: dCollectFull})
		case r%7 == 5:
			ops = append(ops, diffOp{kind: dCollectCompact})
		default:
			ops = append(ops, diffOp{kind: dCollectYoung})
		}
	}
	return ops
}

// --- world: one VM + mutator thread driven synchronously -------------

type diffWorld struct {
	v                          *VM
	node                       *MethodTable
	fData, fNext, fShadow, fID *FieldDesc
	intArrT, refArrT           *MethodTable
	roots                      *RefRoots
	pinnedRefs                 []Ref       // refs we have explicitly pinned, in pin order
	conds                      []worldCond // cond pins, in add order
	cycles                     int         // collections run, counted by a GC hook
	activeHook                 func()      // if set, every cond pin's Active() calls it first
	ops                        chan func(*Thread)
	ack                        chan struct{}
	done                       chan struct{}
}

// worldCond is one conditional pin a world registered: Active() counts
// its calls and reports true for the first hold of them.
type worldCond struct {
	ref   Ref
	hold  int32
	calls *int32
}

func (c worldCond) outstanding() bool { return atomic.LoadInt32(c.calls) <= c.hold }

func newDiffWorld(t testing.TB, workers int) *diffWorld {
	v := closing(t, New(Config{Name: "diff", Heap: HeapConfig{
		YoungSize: diffYoung, InitialElder: 256 << 10, ArenaMax: 32 << 20, GCWorkers: workers,
	}}))
	w := &diffWorld{
		v:       v,
		node:    nodeClass(v),
		intArrT: v.ArrayType(KindInt32, nil, 1),
		roots:   &RefRoots{Refs: make([]Ref, diffRootSlots)},
		ops:     make(chan func(*Thread)),
		ack:     make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.refArrT = v.ArrayType(KindRef, w.node, 1)
	w.fData = w.node.FieldByName("data")
	w.fNext = w.node.FieldByName("next")
	w.fShadow = w.node.FieldByName("shadow")
	w.fID = w.node.FieldByName("id")
	v.AddRootProvider(w.roots)
	v.AddGCHook(func() { w.cycles++ })
	go func() {
		defer close(w.done)
		v.WithThread("mut", func(th *Thread) {
			for f := range w.ops {
				f(th)
				w.ack <- struct{}{}
			}
		})
	}()
	return w
}

func (w *diffWorld) do(f func(*Thread)) { w.ops <- f; <-w.ack }
func (w *diffWorld) close()             { close(w.ops); <-w.done }

// step applies one script op and returns the number of collections it
// ran. All heap access happens on the mutator goroutine; the op script
// is deterministic, so every world and the model make identical
// pin/unpin/cond-pin decisions.
func (w *diffWorld) step(t *testing.T, op diffOp) int {
	t.Helper()
	before := w.cycles
	w.do(func(th *Thread) {
		h := w.v.Heap
		switch op.kind {
		case dAllocNode:
			n, err := h.AllocClass(w.node)
			if err != nil {
				t.Errorf("AllocClass: %v", err)
				return
			}
			h.SetScalar(n, w.fID, uint64(uint32(op.b)))
			w.roots.Refs[op.a] = n
		case dAllocIntArr:
			vals := make([]int32, op.b)
			for i := range vals {
				vals[i] = int32(op.c + i)
			}
			arr, err := h.NewInt32Array(vals)
			if err != nil {
				t.Errorf("NewInt32Array: %v", err)
				return
			}
			w.roots.Refs[op.a] = arr
		case dAllocRefArr:
			arr, err := h.AllocArray(w.refArrT, op.b)
			if err != nil {
				t.Errorf("AllocArray: %v", err)
				return
			}
			w.roots.Refs[op.a] = arr
		case dLinkField:
			from, to := w.roots.Refs[op.a], w.roots.Refs[op.c]
			if from == NullRef || h.MT(from) != w.node {
				return
			}
			f := [...]*FieldDesc{w.fData, w.fNext, w.fShadow}[op.b]
			h.SetRef(from, f, to)
		case dLinkElem:
			from, to := w.roots.Refs[op.a], w.roots.Refs[op.c]
			if from == NullRef || h.MT(from) != w.refArrT {
				return
			}
			if n := int(h.arrayLen(from)); n > 0 {
				h.SetElemRef(from, op.b%n, to)
			}
		case dStoreInt:
			r := w.roots.Refs[op.a]
			if r == NullRef {
				return
			}
			switch h.MT(r) {
			case w.node:
				h.SetScalar(r, w.fID, uint64(uint32(op.b)))
			case w.intArrT:
				if n := int(h.arrayLen(r)); n > 0 {
					h.SetElem(r, op.b%n, uint64(uint32(op.b)))
				}
			}
		case dDrop:
			w.roots.Refs[op.a] = NullRef
		case dPin:
			if r := w.roots.Refs[op.a]; r != NullRef {
				h.Pin(r)
				w.pinnedRefs = append(w.pinnedRefs, r)
			}
		case dUnpin:
			if op.a < len(w.pinnedRefs) {
				h.Unpin(w.pinnedRefs[op.a])
				w.pinnedRefs = append(w.pinnedRefs[:op.a], w.pinnedRefs[op.a+1:]...)
			}
		case dCondPin:
			if r := w.roots.Refs[op.a]; r != NullRef {
				c := worldCond{ref: r, hold: int32(op.b), calls: new(int32)}
				w.conds = append(w.conds, c)
				h.AddCondPin(r, func() bool {
					if w.activeHook != nil {
						w.activeHook()
					}
					return atomic.AddInt32(c.calls, 1) <= c.hold
				})
			}
		case dCollectYoung:
			th.CollectYoung()
		case dCollectFull:
			th.CollectFull()
		case dCollectCompact:
			th.CollectCompact()
		}
	})
	return w.cycles - before
}

// snapshot reads the heap graph reachable from the root slots, the
// pinned refs and the refs of outstanding cond pins into the model's
// shape, and renders it with the model's renderGraph.
func (w *diffWorld) snapshot() []string {
	var lines []string
	w.do(func(_ *Thread) {
		h := w.v.Heap
		objs := map[int]*mObj{}
		var read func(Ref)
		read = func(r Ref) {
			if r == NullRef || objs[int(r)] != nil {
				return
			}
			o := &mObj{kind: mBad}
			objs[int(r)] = o
			if !h.Valid(r) {
				return
			}
			if h.Pinned(r) {
				o.pins = 1
			}
			switch h.MT(r) {
			case w.node:
				o.kind, o.id = mNode, int32(h.GetScalar(r, w.fID))
				for _, f := range []*FieldDesc{w.fData, w.fNext, w.fShadow} {
					o.refs = append(o.refs, int(h.GetRef(r, f)))
				}
			case w.intArrT:
				o.kind, o.ints = mInts, h.Int32Slice(r)
			case w.refArrT:
				o.kind = mRefs
				for i := 0; i < int(h.arrayLen(r)); i++ {
					o.refs = append(o.refs, int(h.GetElemRef(r, i)))
				}
			default:
				o.kind = mOther
			}
			for _, c := range o.refs {
				read(Ref(c))
			}
		}
		var roots, pins, held []int
		for _, r := range w.roots.Refs {
			roots = append(roots, int(r))
		}
		for _, r := range w.pinnedRefs {
			pins = append(pins, int(r))
		}
		for _, c := range w.conds {
			if c.outstanding() {
				held = append(held, int(c.ref))
			}
		}
		for _, set := range [][]int{roots, pins, held} {
			for _, k := range set {
				read(Ref(k))
			}
		}
		lines = renderGraph(objs, roots, pins, held)
	})
	return lines
}

func (w *diffWorld) checkInvariants() error {
	var err error
	w.do(func(_ *Thread) { err = w.v.Heap.CheckInvariants() })
	return err
}

// --- the suite -------------------------------------------------------

// policyWorkers are the GCWorkers values the suite replays each script
// on: the §5.2 policy, and the moving policy with several mark workers.
var policyWorkers = [...]int{1, 4}

func isCollect(k diffOpKind) bool {
	return k == dCollectYoung || k == dCollectFull || k == dCollectCompact
}

// replay applies op to the world and to the model, including every
// collection the op ran, and returns that number of collections.
func replay(t *testing.T, w *diffWorld, m *heapModel, op diffOp) int {
	t.Helper()
	cycles := w.step(t, op)
	m.step(op)
	for c := 0; c < cycles; c++ {
		m.collect()
	}
	return cycles
}

// checkModel compares a world with the model: heap invariants, the
// canonical graph (which places every pinned and held object by the
// Ref recorded when it was pinned), and each cond pin's Active() call
// count.
func checkModel(w *diffWorld, m *heapModel) error {
	if err := w.checkInvariants(); err != nil {
		return fmt.Errorf("invariants: %v", err)
	}
	got, want := w.snapshot(), m.snapshot()
	for j := 0; j < len(got) || j < len(want); j++ {
		if j >= len(got) || j >= len(want) || got[j] != want[j] {
			return fmt.Errorf("graph diverged from the model at line %d\nheap:\n%s\nmodel:\n%s",
				j, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	if len(w.conds) != len(m.conds) {
		return fmt.Errorf("%d cond pins registered, model %d", len(w.conds), len(m.conds))
	}
	for i, c := range w.conds {
		if got, want := atomic.LoadInt32(c.calls), m.conds[i].calls; int(got) != want {
			return fmt.Errorf("cond pin %d examined %d times, model %d (once per cycle while outstanding)",
				i, got, want)
		}
	}
	return nil
}

// runPolicySeed replays the script on one policy and checks the world
// against the model after every collection.
func runPolicySeed(t *testing.T, seed int64, workers int, script []diffOp) GCStats {
	t.Helper()
	w, m := newDiffWorld(t, workers), newHeapModel()
	defer w.close()
	for i, op := range script {
		cycles := replay(t, w, m, op)
		if t.Failed() {
			t.Fatalf("seed %d gcworkers=%d: op %d (%v) failed", seed, workers, i, op.kind)
		}
		want := 0
		if isCollect(op.kind) {
			want = 1
		}
		if cycles != want {
			t.Fatalf("seed %d gcworkers=%d: op %d (%v) ran %d collections, want %d",
				seed, workers, i, op.kind, cycles, want)
		}
		if cycles == 0 {
			continue
		}
		if err := checkModel(w, m); err != nil {
			t.Fatalf("seed %d gcworkers=%d op %d: %v", seed, workers, i, err)
		}
	}
	return w.v.Heap.Stats.Snapshot()
}

func runGCParitySeed(t *testing.T, seed int64) {
	t.Helper()
	script := genScript(seed, 8)
	var stats [len(policyWorkers)]GCStats
	for i, workers := range policyWorkers {
		stats[i] = runPolicySeed(t, seed, workers, script)
	}

	// Accounting parity: both policies must have made identical
	// collection, promotion, and cond-pin decisions.
	sg, mg := stats[0], stats[1]
	if sg.Scavenges != mg.Scavenges || sg.FullGCs != mg.FullGCs {
		t.Errorf("seed %d: cycle counts diverged: §5.2 %d/%d, moving %d/%d",
			seed, sg.Scavenges, sg.FullGCs, mg.Scavenges, mg.FullGCs)
	}
	if sg.BytesPromoted != mg.BytesPromoted {
		t.Errorf("seed %d: promotion decisions diverged: §5.2 %dB, moving %dB",
			seed, sg.BytesPromoted, mg.BytesPromoted)
	}
	if sg.CondPinsHeld != mg.CondPinsHeld || sg.CondPinsDropped != mg.CondPinsDropped {
		t.Errorf("seed %d: cond-pin decisions diverged: §5.2 %d/%d, moving %d/%d",
			seed, sg.CondPinsHeld, sg.CondPinsDropped, mg.CondPinsHeld, mg.CondPinsDropped)
	}

	// The §5.2 policy donates and never moves the elder space.
	if sg.PinnedSegregated != 0 || sg.Compactions != 0 {
		t.Errorf("seed %d: §5.2 policy segregated %d blocks, compacted %d times",
			seed, sg.PinnedSegregated, sg.Compactions)
	}
	// Its donation path must account every donated byte as either live
	// or dead: each donated block is exactly YoungSize wide, minus at
	// most a sub-header tail that is leaked by design.
	if sg.BlocksDonated > 0 {
		total := sg.DonatedLiveBytes + sg.DonatedDeadBytes
		max := sg.BlocksDonated * diffYoung
		min := sg.BlocksDonated * (diffYoung - HeaderSize/2)
		if total > max || total < min {
			t.Errorf("seed %d: donation accounting leak: live %d + dead %d = %d, want within [%d,%d] for %d blocks",
				seed, sg.DonatedLiveBytes, sg.DonatedDeadBytes, total, min, max, sg.BlocksDonated)
		}
	}
	// The moving policy should almost never fall back to donation:
	// pinned survivors land in dedicated pinned blocks instead.
	if mg.BlocksDonated > 0 && mg.PinnedSegregated == 0 {
		t.Errorf("seed %d: moving policy donated %d blocks without ever segregating", seed, mg.BlocksDonated)
	}
}

// TestGCDifferentialParity is the quick tier-1 slice of the suite.
func TestGCDifferentialParity(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for s := 0; s < seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed%03d", s), func(t *testing.T) { runGCParitySeed(t, int64(s)) })
	}
}

// TestStressGCDifferentialParity is the full suite (≥150 seeds); the
// stress tier runs it under -race so the parallel mark pool, the
// cond-pin resolver, and the model checks are all exercised with the
// race detector watching.
func TestStressGCDifferentialParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: covered by TestGCDifferentialParity")
	}
	for s := 100; s < 260; s++ {
		s := s
		t.Run(fmt.Sprintf("seed%03d", s), func(t *testing.T) {
			t.Parallel()
			runGCParitySeed(t, int64(s))
		})
	}
}
