package vm

// Heap invariant fuzzing: FuzzHeapOps decodes arbitrary bytes into a
// bounded op script (alloc / link / mutate / pin / unpin / cond-pin /
// collect-young / collect-full / compact), replays it against both
// collector policies and the reference model, and runs
// Heap.CheckInvariants after every collection. Unlike genScript's,
// these scripts may fill the nursery, so collections also happen
// inside allocations; the model counts them through the world's GC
// hook. After a final full collection each policy's graph and cond-pin
// examinations must equal the model's.
//
import (
	"fmt"
	"testing"
)

// decodeHeapOps maps 4 bytes to one op, clamping operands the same
// way genScript does so every input is a valid script.
func decodeHeapOps(data []byte) []diffOp {
	var ops []diffOp
	for i := 0; i+4 <= len(data) && len(ops) < 200; i += 4 {
		k := diffOpKind(data[i] % 13)
		a, b, c := int(data[i+1]), int(data[i+2]), int(data[i+3])
		op := diffOp{kind: k}
		switch k {
		case dAllocNode:
			op.a, op.b = a%diffRootSlots, b
		case dAllocIntArr:
			op.a, op.b, op.c = a%diffRootSlots, 1+b%48, c
		case dAllocRefArr:
			op.a, op.b = a%diffRootSlots, 1+b%8
		case dLinkField:
			op.a, op.b, op.c = a%diffRootSlots, b%3, c%diffRootSlots
		case dLinkElem:
			op.a, op.b, op.c = a%diffRootSlots, b%8, c%diffRootSlots
		case dStoreInt:
			op.a, op.b = a%diffRootSlots, b
		case dDrop, dPin:
			op.a = a % diffRootSlots
		case dUnpin:
			op.a = a % 16
		case dCondPin:
			op.a, op.b = a%diffRootSlots, 1+b%3
		}
		ops = append(ops, op)
	}
	return ops
}

// encHeapOps is the inverse used to build the seed corpus: it undoes
// the 1+x%N clamps so decodeHeapOps(encHeapOps(ops)) == ops for any
// canonical op list.
func encHeapOps(ops []diffOp) []byte {
	var data []byte
	for _, op := range ops {
		b := op.b
		switch op.kind {
		case dAllocIntArr, dAllocRefArr, dCondPin:
			b--
		}
		data = append(data, byte(op.kind), byte(op.a), byte(b), byte(op.c))
	}
	return data
}

func fuzzSeedCorpus() [][]byte {
	var seeds [][]byte

	// Pin storm: every root pinned, then scavenge + full.
	var storm []diffOp
	for i := 0; i < 8; i++ {
		storm = append(storm, diffOp{kind: dAllocNode, a: i, b: i}, diffOp{kind: dPin, a: i})
	}
	storm = append(storm, diffOp{kind: dCollectYoung}, diffOp{kind: dCollectFull})
	seeds = append(seeds, encHeapOps(storm))

	// Dense pins: enough pinned bytes to cross the segregation
	// fallback threshold (pinned*4 > block), forcing the moving
	// policy down the donation path.
	var dense []diffOp
	for i := 0; i < 40; i++ {
		dense = append(dense, diffOp{kind: dAllocIntArr, a: i % diffRootSlots, b: 47, c: i},
			diffOp{kind: dPin, a: i % diffRootSlots})
	}
	dense = append(dense, diffOp{kind: dCollectYoung}, diffOp{kind: dCollectFull})
	seeds = append(seeds, encHeapOps(dense))

	// Cond-pin flip-flop across cycles, with unpins interleaved.
	flip := []diffOp{
		{kind: dAllocNode, a: 0, b: 1}, {kind: dCondPin, a: 0, b: 1},
		{kind: dCollectYoung},
		{kind: dAllocNode, a: 1, b: 2}, {kind: dCondPin, a: 1, b: 2},
		{kind: dPin, a: 1}, {kind: dCollectFull}, {kind: dUnpin, a: 0},
		{kind: dCollectFull},
	}
	seeds = append(seeds, encHeapOps(flip))

	// Churn + drop + compact: fragment the elder space, then slide.
	var churn []diffOp
	for i := 0; i < 20; i++ {
		churn = append(churn, diffOp{kind: dAllocIntArr, a: i % diffRootSlots, b: 1 + i, c: i})
	}
	for i := 0; i < 20; i += 2 {
		churn = append(churn, diffOp{kind: dDrop, a: i % diffRootSlots})
	}
	churn = append(churn, diffOp{kind: dCollectFull}, diffOp{kind: dCollectCompact})
	seeds = append(seeds, encHeapOps(churn))

	// Linked cycles through pinned anchors.
	loop := []diffOp{
		{kind: dAllocNode, a: 0, b: 10}, {kind: dAllocNode, a: 1, b: 11},
		{kind: dLinkField, a: 0, b: 1, c: 1}, {kind: dLinkField, a: 1, b: 1, c: 0},
		{kind: dPin, a: 0}, {kind: dCollectYoung},
		{kind: dAllocRefArr, a: 2, b: 4}, {kind: dLinkElem, a: 2, b: 0, c: 1},
		{kind: dDrop, a: 1}, {kind: dCollectFull},
	}
	seeds = append(seeds, encHeapOps(loop))

	return seeds
}

func FuzzHeapOps(f *testing.F) {
	for _, s := range fuzzSeedCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeHeapOps(data)
		if len(ops) == 0 {
			return
		}
		for _, workers := range policyWorkers {
			w, m := newDiffWorld(t, workers), newHeapModel()
			for i, op := range ops {
				cycles := replay(t, w, m, op)
				if t.Failed() {
					w.close()
					t.Fatalf("workers=%d: op %d (%v) failed", workers, i, op.kind)
				}
				if cycles == 0 {
					continue
				}
				if err := w.checkInvariants(); err != nil {
					w.close()
					t.Fatalf("workers=%d: op %d: %v", workers, i, err)
				}
			}
			replay(t, w, m, diffOp{kind: dCollectFull})
			err := checkModel(w, m)
			w.close()
			if err != nil {
				t.Fatalf("workers=%d: final full GC: %v", workers, err)
			}
		}
	})
}

// TestDonationSubHeaderTail is the exact regression for the donation
// accounting bug this PR fixes: a donated young block whose last
// pinned survivor ends 8 bytes before the block end leaves a tail too
// small for a free-block header. The old code appended the full range
// anyway, leaving the elder walk uncoverable; the fix truncates the
// donated range at the survivor and accounts every byte as live or
// dead (DonatedLiveBytes / DonatedDeadBytes).
func TestDonationSubHeaderTail(t *testing.T) {
	const young = 32 << 10
	v := closing(t, New(Config{Name: "tail", Heap: HeapConfig{
		YoungSize: young, InitialElder: 256 << 10, ArenaMax: 32 << 20, GCWorkers: 1,
	}}))
	at := v.ArrayType(KindInt32, nil, 1)
	v.WithThread("t", func(th *Thread) {
		// 2046 dead 16-byte arrays + one live 24-byte array fills the
		// 32 KiB nursery to exactly 8 bytes short of the end.
		for i := 0; i < 2046; i++ {
			if _, err := v.Heap.AllocArray(at, 0); err != nil {
				t.Fatal(err)
			}
		}
		last, err := v.Heap.NewInt32Array([]int32{7, 9})
		if err != nil {
			t.Fatal(err)
		}
		pop := th.VM().Protect(&last)
		defer pop()
		_, used, _ := v.Heap.MemUse()
		if used != young-8 {
			t.Fatalf("nursery used %d bytes, want %d (layout drifted)", used, young-8)
		}
		v.Heap.Pin(last)
		defer v.Heap.Unpin(last)

		th.CollectYoung()

		gs := v.Heap.Stats.Snapshot()
		if gs.BlocksDonated != 1 {
			t.Fatalf("BlocksDonated = %d, want 1", gs.BlocksDonated)
		}
		if gs.DonatedLiveBytes != 24 {
			t.Errorf("DonatedLiveBytes = %d, want 24", gs.DonatedLiveBytes)
		}
		if gs.DonatedDeadBytes != young-8-24 {
			t.Errorf("DonatedDeadBytes = %d, want %d", gs.DonatedDeadBytes, young-8-24)
		}
		if v.Heap.IsYoung(last) || !v.Heap.Valid(last) {
			t.Fatal("pinned survivor lost by donation")
		}
		if got := v.Heap.Int32Slice(last); got[0] != 7 || got[1] != 9 {
			t.Errorf("pinned payload corrupted: %v", got)
		}
		if err := v.Heap.CheckInvariants(); err != nil {
			t.Fatalf("heap not walkable after sub-header tail donation: %v", err)
		}
	})
}

// TestFuzzSeedsDeterministic pins the corpus encoding: every seed
// must decode back to the op list it was built from, or the corpus
// silently stops covering the shapes it was written for.
func TestFuzzSeedsDeterministic(t *testing.T) {
	for i, s := range fuzzSeedCorpus() {
		ops := decodeHeapOps(s)
		if len(ops)*4 != len(s) {
			t.Errorf("seed %d: %d bytes decoded to %d ops", i, len(s), len(ops))
		}
		if got := encHeapOps(ops); string(got) != string(s) {
			t.Errorf("seed %d: not a round trip", i)
		}
		_ = fmt.Sprintf("%v", ops)
	}
}
