package main

import (
	"fmt"
	"math"
	"time"

	"motor"
)

// heat2d is the whole-program workload: see workloads/heat2d.masm. The
// seed decides the initial temperatures. A solution is heatSteps steps
// from the initial grid; the harness starts the next solution when one
// is complete, and after every block compares each rank's band
// checksum and the global residual with a plain single-threaded Go
// computation of the same problem.
type heat2d struct {
	k         int64
	n         int // grid is n x n, split by rows over the 2 ranks
	steps     int // steps per solution
	grid      []float64
	ref       []heatRef // reference after every 10th step
	stepsM    method
	reset     method
	stepcount method
	checksum  method
	lastres   method
	exchangeM method
	relaxM    method
	residualM method
	flipM     method
}

// heatRef is the reference state after a multiple of 10 steps: the sum
// of each rank's band and the global squared change of the last sweep.
type heatRef struct {
	band     [2]float64
	residual float64
}

const heatTolerance = 1e-9

func newHeat2D(w *workload, sz sizes) program {
	h := &heat2d{k: int64(w.opsPerCall), n: 256, steps: 400}
	if sz.smoke {
		h.n, h.steps = 32, 20
	}
	g := rng(sz.seed)
	h.grid = make([]float64, h.n*h.n)
	for i := range h.grid {
		h.grid[i] = 100 * g.Float64()
	}
	return h
}

// reference solves the problem with plain Go loops, summing in the
// order the managed program does (per band, row-major) so the two
// agree to rounding.
func (h *heat2d) reference() []heatRef {
	n, half := h.n, h.n/2
	u := append([]float64(nil), h.grid...)
	v := append([]float64(nil), h.grid...)
	var out []heatRef
	for step := 1; step <= h.steps; step++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				k := i*n + j
				v[k] = 0.25 * (u[k-n] + u[k+n] + u[k-1] + u[k+1])
			}
		}
		if step%10 == 0 {
			var ref heatRef
			for rank := 0; rank < 2; rank++ {
				var change float64
				for i := max(1, rank*half); i < min(n-1, (rank+1)*half); i++ {
					for j := 1; j < n-1; j++ {
						d := v[i*n+j] - u[i*n+j]
						change += d * d
					}
				}
				ref.residual += change
				for _, x := range v[rank*half*n : (rank+1)*half*n] {
					ref.band[rank] += x
				}
			}
			out = append(out, ref)
		}
		u, v = v, u
	}
	return out
}

func (h *heat2d) setup(r *motor.Rank) (err error) {
	for name, m := range map[string]*method{
		"steps": &h.stepsM, "reset": &h.reset, "stepcount": &h.stepcount, "checksum": &h.checksum,
		"lastresidual": &h.lastres, "exchange": &h.exchangeM, "relax": &h.relaxM, "residual": &h.residualM, "flip": &h.flipM,
	} {
		if *m, err = bind(r, name); err != nil {
			return err
		}
	}
	setup, err := bind(r, "setup")
	if err != nil {
		return err
	}
	h.ref = h.reference()
	// The band with its two ghost rows: the neighbour's boundary row
	// where there is a neighbour, zeros beyond the global edge (never
	// read: edge rows are not updated).
	n, half := h.n, h.n/2
	band := make([]float64, (half+2)*n)
	first := r.ID()*half - 1
	for i := 0; i < half+2; i++ {
		if row := first + i; row >= 0 && row < n {
			copy(band[i*n:(i+1)*n], h.grid[row*n:(row+1)*n])
		}
	}
	init, err := r.NewFloat64Array(band)
	if err != nil {
		return err
	}
	_, err = setup(rv(init), iv(int64(half)), iv(int64(n)))
	return err
}

func (h *heat2d) batch(r *motor.Rank, call int64) (int64, error) {
	_, err := h.stepsM(iv(h.k))
	return 0, err
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= heatTolerance*math.Max(math.Abs(want), 1)
}

func (h *heat2d) check(r *motor.Rank) error {
	v, err := h.stepcount()
	if err != nil {
		return err
	}
	step := int(int64(v.Bits))
	if step == 0 {
		return nil
	}
	if step%10 != 0 || step > h.steps {
		return fmt.Errorf("heat2d: %d steps done, want a multiple of 10 up to %d", step, h.steps)
	}
	ref := h.ref[step/10-1]
	sum, err := h.checksum()
	if err != nil {
		return err
	}
	if got := motor.Float64FromBits(sum.Bits); !near(got, ref.band[r.ID()]) {
		return fmt.Errorf("heat2d: rank %d band sum after %d steps is %v, reference %v", r.ID(), step, got, ref.band[r.ID()])
	}
	res, err := h.lastres()
	if err != nil {
		return err
	}
	if got := motor.Float64FromBits(res.Bits); !near(got, ref.residual) {
		return fmt.Errorf("heat2d: residual after %d steps is %v, reference %v", step, got, ref.residual)
	}
	if step == h.steps {
		_, err = h.reset()
	}
	return err
}

// probe drives a stretch of steps one phase at a time, so that the
// traced run can say how a step splits between communication
// (exchange, residual) and computation (relax). It leaves the solution
// where a whole number of steps would: check still holds afterwards.
func (h *heat2d) probe(r *motor.Rank, rec *recorder) (map[string]float64, error) {
	const steps = 30
	phases := []struct {
		name string
		call method
	}{{"heat2d:exchange", h.exchangeM}, {"heat2d:relax", h.relaxM}, {"heat2d:residual", h.residualM}, {"heat2d:flip", h.flipM}}
	var relax []float64
	spent := make(map[string]time.Duration)
	for step := 0; step < steps; step++ {
		op := rec.begin("heat2d:step", int64(step))
		for _, ph := range phases {
			id := rec.begin(ph.name, int64(step))
			t0 := time.Now()
			_, err := ph.call()
			dt := time.Since(t0)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			spent[ph.name] += dt
			if ph.name == "heat2d:relax" {
				relax = append(relax, float64(dt.Nanoseconds()))
			}
		}
		rec.end(op)
	}
	if _, err := h.reset(); err != nil {
		return nil, err
	}
	// A real step takes the residual one time in ten. exchange and
	// residual also pack rows and sum squares, so their share bounds
	// communication from above.
	comm := float64(spent["heat2d:exchange"]) + float64(spent["heat2d:residual"])/10
	return map[string]float64{
		"vm.compute_ns_per_step": median(relax),
		"heat2d.comm_frac":       comm / (comm + float64(spent["heat2d:relax"]+spent["heat2d:flip"])),
	}, nil
}
