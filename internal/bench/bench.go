// Package bench is the harness that regenerates every figure of the
// paper's evaluation (§8) plus the ablations called out in DESIGN.md.
// It is shared by cmd/benchfig (human-readable tables) and the
// testing.B benchmarks in the repository root.
//
// Protocol, matching the paper: two ranks run an MPI ping-pong; one
// iteration is a full round trip; each configuration runs warm-up
// iterations, then timed iterations, repeated several times and
// averaged; results are microseconds per iteration.
package bench

import (
	"fmt"
	"sort"
	"time"

	"motor/internal/mp"
)

// Point is one measurement of a series.
type Point struct {
	X     int     // buffer bytes (Fig 9) or total objects (Fig 10)
	Us    float64 // microseconds per iteration
	Bytes int     // serialized bytes per direction, when known
	Err   string  // non-empty when the implementation failed here
}

// Series is one implementation's line on a figure.
type Series struct {
	Impl   string
	Points []Point
}

// Protocol controls iteration counts. The paper used 200 iterations
// (last 100 timed) and 3 repeats; Quick() shrinks that for CI.
type Protocol struct {
	Warmup  int
	Timed   int
	Repeats int
	Channel mp.ChannelKind
	// EagerMax overrides the transport's eager/rendezvous threshold
	// (0 = device default, 64 KiB).
	EagerMax int
}

// PaperProtocol mirrors §8 (200 iterations, last 100 timed, 3
// repeats averaged); the timed count and repeats are raised and
// combined by median because a single-CPU host schedules the two
// ranks cooperatively and individual repeats jitter far more than
// the paper's dedicated testbed did.
func PaperProtocol() Protocol {
	return Protocol{Warmup: 100, Timed: 200, Repeats: 9, Channel: mp.ChannelShm}
}

// Quick is a fast protocol for tests.
func Quick() Protocol {
	return Protocol{Warmup: 5, Timed: 20, Repeats: 1, Channel: mp.ChannelShm}
}

// Fig9Sizes are the paper's buffer sizes: 4 B … 256 KiB, powers of 2.
func Fig9Sizes() []int {
	var out []int
	for s := 4; s <= 256<<10; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Fig10Counts are the paper's total object counts: 2 … 8192.
func Fig10Counts() []int {
	var out []int
	for n := 2; n <= 8192; n *= 2 {
		out = append(out, n)
	}
	return out
}

// Fig10TotalBytes is the paper's fixed payload: "the total data
// buffer was 4096 bytes, evenly distributed over the entire linked
// list".
const Fig10TotalBytes = 4096

// median combines repeat measurements robustly (scheduling jitter on
// shared single-CPU hosts skews means).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pingRank is one rank's implementation-specific state for the
// regular-operations ping-pong (Figure 9).
type pingRank interface {
	SetSize(n int) error
	Send(dest, tag int) error
	Recv(source, tag int) error
	Close()
}

// PingImpl names an implementation and constructs per-rank state.
// The constructor runs on the rank's own goroutine.
type PingImpl struct {
	Name string
	New  func(w *mp.World) (pingRank, error)
}

// RunPing measures one implementation across sizes: a one-worker
// RunPingSet, so every ping-pong number comes from the same timed loop.
func RunPing(impl PingImpl, proto Protocol, sizes []int) (Series, error) {
	set, err := RunPingSet([]PingImpl{impl}, proto, sizes)
	if err != nil {
		return Series{}, err
	}
	return set[0], nil
}

// objRank is one rank's state for the object-transport ping-pong
// (Figure 10): Exchange performs this rank's half of one round trip,
// paying serialization and deserialization costs (the paper
// intentionally includes them).
type objRank interface {
	// Build constructs the linked list of `elements` elements whose
	// payload arrays total totalBytes.
	Build(elements, totalBytes int) error
	// Probe serializes the structure locally and discards the result,
	// reporting whether the mechanism can handle it at all (mpiJava's
	// recursive serializer cannot beyond ~1024 objects).
	Probe() error
	// Initiate serializes and sends the list, then receives and
	// deserializes the echo.
	Initiate(peer int) error
	// Echo receives + deserializes, then re-serializes the received
	// structure and sends it back.
	Echo(peer int) error
	Close()
}

// ObjImpl names an object-transport implementation.
type ObjImpl struct {
	Name string
	New  func(w *mp.World) (objRank, error)
}

// RunObj measures one object-transport implementation across total
// object counts. An implementation failure at some count records an
// errored point and ends the series (as mpiJava's stack overflow ends
// its Figure 10 line).
func RunObj(impl ObjImpl, proto Protocol, counts []int) (Series, error) {
	worlds, err := mp.NewLocalWorlds(proto.Channel, 2, proto.EagerMax)
	if err != nil {
		return Series{}, err
	}
	type res struct {
		points []Point
		err    error
	}
	results := make(chan res, 2)
	for _, w := range worlds {
		go func(w *mp.World) {
			defer w.Close()
			points, err := objRankLoop(impl, w, proto, counts)
			results <- res{points, err}
		}(w)
	}
	var series Series
	series.Impl = impl.Name
	var firstErr error
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if r.points != nil {
			series.Points = r.points
		}
	}
	return series, firstErr
}

// objControl coordinates failure between the two ranks: before each
// count, rank 0 builds and reports whether the structure is
// serializable at all; both ranks then skip in lockstep.
const objCtrlTag = 99

func objRankLoop(impl ObjImpl, w *mp.World, proto Protocol, counts []int) ([]Point, error) {
	or, err := impl.New(w)
	if err != nil {
		return nil, fmt.Errorf("%s rank %d: %w", impl.Name, w.Rank(), err)
	}
	defer or.Close()
	me := w.Rank()
	peer := 1 - me
	var points []Point
	ctrl := make([]byte, 1)
	for _, totalObjects := range counts {
		elements := totalObjects / 2
		if elements < 1 {
			elements = 1
		}
		if err := or.Build(elements, Fig10TotalBytes); err != nil {
			return nil, fmt.Errorf("%s build %d: %w", impl.Name, elements, err)
		}
		// Probe locally (no transport), then agree via a control
		// message whether this count runs. A failed probe ends the
		// series — the paper's mpiJava line simply stops.
		if me == 0 {
			if probeErr := or.Probe(); probeErr != nil {
				ctrl[0] = 1
				if err := w.Comm.Send(ctrl, peer, objCtrlTag); err != nil {
					return nil, err
				}
				points = append(points, Point{X: totalObjects, Err: probeErr.Error()})
				return points, nil
			}
			ctrl[0] = 0
			if err := w.Comm.Send(ctrl, peer, objCtrlTag); err != nil {
				return nil, err
			}
		} else {
			if _, err := w.Comm.Recv(ctrl, peer, objCtrlTag); err != nil {
				return nil, err
			}
			if ctrl[0] == 1 {
				return nil, nil
			}
		}
		reps := make([]float64, 0, proto.Repeats)
		for rep := 0; rep < proto.Repeats; rep++ {
			iters := proto.Warmup + proto.Timed
			var t0 time.Time
			for i := 0; i < iters; i++ {
				if i == proto.Warmup {
					t0 = time.Now()
				}
				if me == 0 {
					if err := or.Initiate(peer); err != nil {
						return nil, fmt.Errorf("%s objects %d: %w", impl.Name, totalObjects, err)
					}
				} else {
					if err := or.Echo(peer); err != nil {
						return nil, fmt.Errorf("%s objects %d: %w", impl.Name, totalObjects, err)
					}
				}
			}
			reps = append(reps, float64(time.Since(t0).Nanoseconds())/1e3/float64(proto.Timed))
		}
		if me == 0 {
			points = append(points, Point{X: totalObjects, Us: median(reps)})
		}
	}
	if me == 0 {
		return points, nil
	}
	return nil, nil
}
