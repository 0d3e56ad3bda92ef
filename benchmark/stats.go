package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (q in [0,1]).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median of v, 0 when v is empty.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailMinBeyond is the number of samples that must lie beyond a
// reported tail percentile for it to mean anything.
const tailMinBeyond = 10

// tailPercentile picks the percentile to report as the tail of n
// samples: want, if at least tailMinBeyond samples lie beyond it,
// otherwise the highest of 95, 90, 75 below want that has that many,
// otherwise the median.
func tailPercentile(n int, want float64) float64 {
	for _, p := range []float64{want, 95, 90, 75} {
		if p <= want && float64(n)*(100-p)/100 >= tailMinBeyond {
			return p
		}
	}
	return 50
}

// summary describes one set of timed samples.
type summary struct {
	N       int     `json:"n"`
	P25     float64 `json:"p25"`
	P50     float64 `json:"p50"`
	P75     float64 `json:"p75"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	Mean    float64 `json:"mean"`
}

// summarize describes samples; tail is the tail percentile wanted
// (tailPercentile lowers it when the samples are too few).
func summarize(samples []float64, tail float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	pct := tailPercentile(len(s), tail)
	return summary{
		N:       len(s),
		P25:     quantile(s, 0.25),
		P50:     quantile(s, 0.5),
		P75:     quantile(s, 0.75),
		Tail:    quantile(s, pct/100),
		TailPct: pct,
		Mean:    sum / float64(len(s)),
	}
}

// block is one timed block: ops completed and the time they took.
type block struct {
	Ops     int64   `json:"ops"`
	Seconds float64 `json:"seconds"`
}

// blockMedianRate is the throughput metric: the median over blocks of
// ops ÷ block time. Total ops ÷ total time is a mean and moves with
// every scheduler hiccup; the block median does not.
func blockMedianRate(blocks []block) float64 {
	rates := make([]float64, 0, len(blocks))
	for _, b := range blocks {
		if b.Seconds > 0 {
			rates = append(rates, float64(b.Ops)/b.Seconds)
		}
	}
	if len(rates) == 0 {
		return 0
	}
	return median(rates)
}
