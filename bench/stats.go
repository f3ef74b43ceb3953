package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentileLadder is the set of percentiles a report may quote.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highPercentile returns the highest ladder percentile that still has at
// least ten of the n samples beyond it; with fewer than twenty samples only
// the median qualifies.
func highPercentile(n int) float64 {
	best := 50.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100 samples do leave ten beyond p90
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so the
// spread -compare reports is the one the acceptance driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4 // 1-based rank of the lower neighbour
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// metric is one named measurement. Timed metrics carry their sample count
// and the highest percentile the sample supports; exact counts have N == 1.
// Raw is set on the end-to-end timings only: the same statistic of the
// wall-clock samples before they were brought to reference memory latency
// (calibrate.go).
type metric struct {
	Value float64 `json:"value"`
	Raw   float64 `json:"raw,omitempty"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	HiPct float64 `json:"hi_pct,omitempty"`
	Hi    float64 `json:"hi,omitempty"`
}

// fromSamples summarises a timing sample as its median plus the highest
// supported percentile.
func fromSamples(xs []float64, unit string) metric {
	p := highPercentile(len(xs))
	return metric{Value: median(xs), Unit: unit, N: len(xs), HiPct: p, Hi: percentile(xs, p)}
}

// scalar is a single measured or exact value.
func scalar(v float64, unit string) metric { return metric{Value: v, Unit: unit, N: 1} }
