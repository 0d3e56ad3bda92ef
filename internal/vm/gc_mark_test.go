package vm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// genWideDeepScript draws the mark's hardest shape: one wide Node[]
// (root slot 0) whose every element heads a short chain, several deep
// chains hung off it too, conditional pins held on nodes buried inside
// the chains (so a mark worker, not the coordinator, resolves them
// mid-mark), a few held pins on nodes nothing reaches (the coordinator
// injects those), explicit pins (compaction islands), and rewiring
// that turns old chains into garbage. Full and compacting collections
// alternate after every batch of chains.
func genWideDeepScript(seed int64, width, deep, depth int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	ops := []diffOp{{kind: dAllocRefArr, a: 0, b: width}}
	id := 0
	// chain builds a chain of n nodes in slots 1 and 2 alternately and
	// hangs its head on element e of the wide array.
	chain := func(e, n int) {
		cur := 1
		for k := 0; k < n; k++ {
			id++
			other := 3 - cur
			ops = append(ops, diffOp{kind: dAllocNode, a: other, b: id})
			if k > 0 {
				ops = append(ops, diffOp{kind: dLinkField, a: other, b: 1, c: cur})
			}
			cur = other
			switch r := rng.Intn(400); {
			case r < 4:
				ops = append(ops, diffOp{kind: dCondPin, a: cur, b: 1 + rng.Intn(3)})
			case r == 4:
				ops = append(ops, diffOp{kind: dPin, a: cur})
			case r == 5:
				// A held pin on a node nothing else reaches, with a
				// child only it reaches: the coordinator injects it
				// while the workers mark, and its scan must not be lost.
				ops = append(ops,
					diffOp{kind: dAllocNode, a: 3, b: -id},
					diffOp{kind: dAllocNode, a: 4, b: -id},
					diffOp{kind: dLinkField, a: 3, b: 1, c: 4},
					diffOp{kind: dCondPin, a: 3, b: 1 + rng.Intn(2)},
					diffOp{kind: dDrop, a: 3},
					diffOp{kind: dDrop, a: 4})
			}
		}
		ops = append(ops, diffOp{kind: dLinkElem, a: 0, b: e, c: cur})
	}
	collect := func(i int) {
		if i%2 == 0 {
			ops = append(ops, diffOp{kind: dCollectFull})
		} else {
			ops = append(ops, diffOp{kind: dCollectCompact})
		}
	}
	for e := 0; e < width; e++ {
		chain(e, 1+rng.Intn(3))
		if e%512 == 511 {
			collect(e / 512)
		}
	}
	for d := 0; d < deep; d++ {
		chain(rng.Intn(width), depth)
		collect(d)
	}
	// Rewire: fresh chains replace old ones, which become garbage.
	for r := 0; r < 4; r++ {
		for k := 0; k < width/8; k++ {
			chain(rng.Intn(width), 1+rng.Intn(4))
		}
		if r%2 == 0 {
			ops = append(ops, diffOp{kind: dUnpin, a: rng.Intn(4)})
		}
		collect(r)
	}
	return ops
}

// TestStressMarkWideAndDeep marks the wide-and-deep graph with 4
// workers (more than the CPUs of a small host), so the private stacks,
// the batch publish to the deques, stealing and the termination rule
// all run with the wide array's thousands of references on one
// worker's stack. After every collection the heap must pass
// CheckInvariants and render the reference model's graph, and every
// conditional pin must have been examined once per cycle. verify.sh gc
// runs it under -race.
func TestStressMarkWideAndDeep(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w, m := newDiffWorld(t, 4), newHeapModel()
			defer w.close()
			// A slow Active() lets the workers run dry and go idle
			// while the coordinator still resolves and injects.
			w.activeHook = func() { time.Sleep(20 * time.Microsecond) }
			full := uint64(0)
			for i, op := range genWideDeepScript(seed, 4096, 4, 800) {
				cycles := replay(t, w, m, op)
				if t.Failed() {
					t.Fatalf("op %d (%v) failed", i, op.kind)
				}
				if cycles == 0 {
					continue
				}
				if err := checkModel(w, m); err != nil {
					t.Fatalf("op %d (%v): %v", i, op.kind, err)
				}
				if op.kind == dCollectFull || op.kind == dCollectCompact {
					full++
				}
			}
			st := w.v.Heap.Stats.Snapshot()
			if st.FullGCs < full || st.Compactions == 0 || st.CondPinsHeld == 0 {
				t.Fatalf("the script did not exercise the mark: %d full collections, %d compactions, %d held pins",
					st.FullGCs, st.Compactions, st.CondPinsHeld)
			}
		})
	}
}
