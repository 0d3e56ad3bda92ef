package main

import (
	"embed"
	"fmt"

	"motor"
)

//go:embed workloads/*.masm
var masmFS embed.FS

// program is one rank's side of a workload. The harness calls setup
// once, then batch in lockstep on both ranks (rank 0 is the client and
// is timed, rank 1 serves), and check after every block.
type program interface {
	// setup builds this rank's inputs from the seed and hands them to
	// the managed program. It runs after the module is loaded.
	setup(r *motor.Rank) error
	// batch performs one call of opsPerCall operations on this rank
	// and returns how many of them failed their per-op check.
	batch(r *motor.Rank, call int64) (failed int64, err error)
	// check is the full correctness check. Both ranks call it at the
	// same point, so it may communicate.
	check(r *motor.Rank) error
}

// sizes holds the protocol-dependent knobs a workload reads: the full
// protocol measures, the smoke protocol only proves the plumbing.
type sizes struct {
	seed  int64
	smoke bool
}

// workload is one entry of the benchmark. Every workload is a closed
// loop with one client on a 2-rank in-process world.
type workload struct {
	name string
	why  string
	// module is the masm file under workloads/ (ctl.masm is prepended).
	module string
	// opsPerCall is K: the ops one timed Rank.Call performs; op time is
	// call time ÷ K. callsPerBlock fixes the block size, warmCalls the
	// warm-up, solutionOps the amount of work wall_s is quoted for.
	opsPerCall    int
	callsPerBlock int
	warmCalls     int
	solutionOps   int64
	// memoryOps is the number of timed ops after which peak_rss_mb is
	// read. A run is cut by the clock, and memory that grows with the
	// ops done (or doubles when a threshold is crossed) would otherwise
	// depend on how many happened to fit.
	memoryOps int64
	// smokeCalls overrides the smoke protocol's two calls per block.
	smokeCalls int
	// tailPct is the percentile op_p99_us reports: 99 where a child
	// collects well over a thousand samples, lower where an op is too
	// slow for that (the rule is ten samples beyond the percentile).
	tailPct float64
	// msgBytes is the message size the layer ladder is run at.
	msgBytes int
	// config changes motor.Config from its defaults (nil: none).
	config func(*motor.Config)
	// info adds what the workload sized from the host to the report.
	info func(map[string]any)
	new  func(w *workload, sz sizes) program
}

// scaled shrinks a workload's counts for the smoke protocol.
func (w workload) scaled(sz sizes) workload {
	if sz.smoke {
		w.memoryOps = 0
		w.callsPerBlock, w.warmCalls = 2, 2
		if w.smokeCalls > 0 {
			w.callsPerBlock, w.warmCalls = w.smokeCalls, w.smokeCalls
		}
		if w.opsPerCall > 4 {
			w.opsPerCall = 4
		}
	}
	return w
}

func (w *workload) source() (string, error) {
	ctl, err := masmFS.ReadFile("workloads/ctl.masm")
	if err != nil {
		return "", err
	}
	mod, err := masmFS.ReadFile("workloads/" + w.module)
	if err != nil {
		return "", err
	}
	return string(ctl) + "\n" + string(mod), nil
}

func (w *workload) motorConfig() motor.Config {
	cfg := motor.Config{Ranks: 2}
	if w.config != nil {
		w.config(&cfg)
	}
	return cfg
}

func asyncProgress(c *motor.Config) { c.AsyncProgress = true }

var workloads = []workload{
	{
		name:   "pp-small",
		why:    "8 B managed ping-pong (Fig. 9): fixed per-op cost is everything (dispatch, FCall, buffer derivation, pin decision, eager path, shm ring)",
		module: "pp.masm", opsPerCall: 64, callsPerBlock: 300, warmCalls: 1000, solutionOps: 1_000_000, memoryOps: 200_000, tailPct: 99,
		msgBytes: 8,
		new:      func(w *workload, sz sizes) program { return newPingPong(w, sz, 2) },
	},
	{
		name:   "pp-large",
		why:    "128 KiB managed ping-pong: rendezvous handshake and copies dominate, fixed cost is under a tenth; FCall or pin changes must not move it",
		module: "pp.masm", opsPerCall: 8, callsPerBlock: 160, warmCalls: 200, solutionOps: 100_000, memoryOps: 15_000, tailPct: 99,
		msgBytes: 128 << 10,
		new:      func(w *workload, sz sizes) program { return newPingPong(w, sz, 32<<10) },
	},
	{
		name: "pp-async",
		why:  "pp-small through the background progress engine (parked waits, doorbell): what overlap support costs blocking latency",
		// Ops take either about 0.2 ms or about 1.1 ms, depending on whether
		// the engine's idle timer had to fire. One op per call keeps the
		// two modes apart: the median then sits in the slow mode (some
		// 4 ops in 5) and is steady to 2 %, where calls that average
		// several ops follow the drifting mix (18 % spread with 8).
		// ops_per_s and wall_s carry the mix.
		module: "pp.masm", opsPerCall: 1, callsPerBlock: 80, warmCalls: 200, solutionOps: 10_000, memoryOps: 1000, tailPct: 99,
		msgBytes: 8, config: asyncProgress,
		new: func(w *workload, sz sizes) program { return newPingPong(w, sz, 2) },
	},
	{
		name:   "overlap",
		why:    "8x1 MiB isend/irecv posted, a managed compute kernel run, then wait: the use the async progress engine exists for, opposite pp-async",
		module: "overlap.masm", opsPerCall: 1, callsPerBlock: 5, warmCalls: 5, solutionOps: 1000, memoryOps: 60, tailPct: 90,
		msgBytes: 1 << 20, config: asyncProgress, new: newOverlap,
	},
	{
		name:   "otree",
		why:    "Fig. 10 round trip of a 256-element linked list (4096 B payload) with osend/orecv: serializer, OO chunking and receive-side allocation dominate, transport is minor",
		module: "otree.masm", opsPerCall: 2, callsPerBlock: 200, warmCalls: 200, solutionOps: 10_000, memoryOps: 4000, tailPct: 99,
		msgBytes: 8 << 10, new: newOTree,
	},
	{
		name:   "heat2d",
		why:    "whole managed program (Jacobi 256x256, sendrecv halo, allreduce residual): the quickened interpreter on float array loops is nearly all of it, communication little",
		module: "heat2d.masm", opsPerCall: 1, callsPerBlock: 20, warmCalls: 20, solutionOps: 400, memoryOps: 260, tailPct: 95,
		smokeCalls: 10, // the reference is kept for every tenth step
		msgBytes:   2 << 10, new: newHeat2D,
	},
	{
		name:   "gc-churn",
		why:    "irecv into a fresh nursery buffer while seeded allocation churn collects over a live graph of 4x the last-level cache: heap, GC pauses and the conditional-pin path dominate",
		module: "gcchurn.masm", opsPerCall: 8, callsPerBlock: 250, warmCalls: 500, solutionOps: 100_000, memoryOps: 24_000, tailPct: 99,
		msgBytes: 16 << 10, new: newGCChurn, info: gcInfo,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- calling managed methods -------------------------------------------------

// method is a managed method bound to a rank's thread.
type method func(args ...motor.Value) (motor.Value, error)

func bind(r *motor.Rank, name string) (method, error) {
	m, ok := r.VM().MethodByName(name)
	if !ok {
		return nil, fmt.Errorf("module has no method %q", name)
	}
	return func(args ...motor.Value) (motor.Value, error) { return r.Call(m, args...) }, nil
}

func iv(i int64) motor.Value       { return motor.Value{Bits: uint64(i)} }
func rv(ref motor.Ref) motor.Value { return motor.Value{Bits: uint64(ref), IsRef: true} }

// --- ping-pong ---------------------------------------------------------------

type pingPong struct {
	k      int64
	n, mid int64
	client method
	server method
}

func newPingPong(w *workload, sz sizes, elems int) program {
	mid := int64(0)
	if elems > 2 {
		mid = 1 + rng(sz.seed).Int63n(int64(elems-2))
	}
	return &pingPong{k: int64(w.opsPerCall), n: int64(elems), mid: mid}
}

func (p *pingPong) setup(r *motor.Rank) (err error) {
	if p.client, err = bind(r, "client"); err != nil {
		return err
	}
	p.server, err = bind(r, "server")
	return err
}

func (p *pingPong) batch(r *motor.Rank, call int64) (int64, error) {
	if r.ID() != 0 {
		_, err := p.server(iv(p.n), iv(p.mid), iv(p.k))
		return 0, err
	}
	stamp := (call * p.k) % (1 << 30)
	bad, err := p.client(iv(p.n), iv(p.mid), iv(stamp), iv(p.k))
	return int64(bad.Bits), err
}

func (p *pingPong) check(r *motor.Rank) error { return nil }
