package main

import (
	"fmt"

	"motor"
)

// gcChurn is the collector workload: see workloads/gcchurn.masm. The
// seed orders the short-lived allocation sizes and picks the payload
// pattern; the live graph is sized from the last-level cache.
type gcChurn struct {
	k       int64
	n, mid  int64 // payload elements, seeded middle stamp position
	salt    int64
	refresh int64
	nodes   int64
	churn   []int32
	client  method
	server  method
	audit   method
}

const (
	gcNodeWords = 240  // one live node: 32 B object + 976 B array
	gcNodeBytes = 1008 //
	// One op in gcBigEvery allocates a short-lived array too large for
	// the nursery. Only such direct elder allocations let the heap
	// start a full collection (promotions alone never do).
	gcBigWords = 192 << 10
	gcBigEvery = 256
	// The live graph should be at least four times the last-level
	// cache, so that marking it misses. It is also built five times
	// per run (set-up is measured), which caps what is affordable.
	gcLiveMin = 16 << 20
	gcLiveMax = 64 << 20
)

// gcLiveBytes sizes the live graph from the detected last-level cache
// and reports whether the cap cut it short.
func gcLiveBytes(llc int64) (live int64, clamped bool) {
	live = 4 * llc
	if live < gcLiveMin {
		return gcLiveMin, false
	}
	if live > gcLiveMax {
		return gcLiveMax, true
	}
	return live, false
}

// gcInfo reports both sizes the live graph was derived from.
func gcInfo(info map[string]any) {
	llc := lastLevelCacheBytes()
	info["llc_bytes"] = llc
	info["live_bytes"], info["live_clamped"] = gcLiveBytes(llc)
}

func newGCChurn(w *workload, sz sizes) program {
	g := rng(sz.seed)
	live, _ := gcLiveBytes(lastLevelCacheBytes())
	c := &gcChurn{k: int64(w.opsPerCall), n: 4096, refresh: 4, nodes: live / gcNodeBytes}
	if sz.smoke {
		c.nodes = 2000
	}
	c.mid = 1 + g.Int63n(c.n-2)
	c.salt = g.Int63n(1 << 30)
	// A fixed multiset of sizes (64 KiB per op in all), ordered by the
	// seed: every seed does the same amount of allocation.
	for words := int32(8); words <= 2048; words *= 2 {
		for i := int32(0); i < 2048/words && i < 8; i++ {
			c.churn = append(c.churn, words)
		}
	}
	g.Shuffle(len(c.churn), func(i, j int) { c.churn[i], c.churn[j] = c.churn[j], c.churn[i] })
	return c
}

func (c *gcChurn) setup(r *motor.Rank) (err error) {
	for name, m := range map[string]*method{"client": &c.client, "server": &c.server, "audit": &c.audit} {
		if *m, err = bind(r, name); err != nil {
			return err
		}
	}
	if r.ID() != 0 {
		fill, err := bind(r, "fill")
		if err != nil {
			return err
		}
		_, err = fill(iv(c.n), iv(c.salt))
		return err
	}
	build, err := bind(r, "build")
	if err != nil {
		return err
	}
	churn, err := r.NewInt32Array(c.churn)
	if err != nil {
		return err
	}
	_, err = build(iv(c.nodes), iv(gcNodeWords), rv(churn), iv(gcBigWords), iv(gcBigEvery))
	return err
}

func (c *gcChurn) batch(r *motor.Rank, call int64) (int64, error) {
	if r.ID() != 0 {
		_, err := c.server(iv(c.n), iv(c.mid), iv(c.k))
		return 0, err
	}
	stamp := (call * c.k) % (1 << 30)
	bad, err := c.client(iv(c.n), iv(c.mid), iv(stamp), iv(c.k), iv(c.salt), iv(c.refresh))
	return int64(bad.Bits), err
}

func (c *gcChurn) check(r *motor.Rank) error {
	if r.ID() != 0 {
		return nil
	}
	bad, err := c.audit()
	if err != nil {
		return err
	}
	if bad.Bits != 0 {
		return fmt.Errorf("gc-churn: %d of %d live nodes damaged", int64(bad.Bits), c.nodes)
	}
	return nil
}
