package main

// The reference box is a 2-vCPU VM whose last-level cache is shared with
// other tenants. For minutes at a time, about a quarter of the time, their
// pressure makes every cache miss slower: all of a run's timings rise
// together, by 5-20 % and at worst 40 %, while a compute-only loop does not
// move. Ten plain runs of one commit then spread by as much, which no bound
// of 5-10 % survives, and no statistic inside a 30 s run escapes a state that
// lasts minutes (README, "Reference memory latency", has the measurements).
//
// So every end-to-end timing except setup_s is reported AT REFERENCE MEMORY
// LATENCY: the plain statistic of the run's wall-clock samples (the median or
// the 90th percentile of all of them) divided by the run's dilation, which is
// the median time of this file's fixed gather kernel, sampled around every
// block, burst and launch of the run, over referenceGatherMS. One number per
// run, because the states outlast a run and a finer one only adds its own
// noise (a per-block dilation doubled the quiet box's spread). Every metric
// keeps the raw statistic beside the value, and every record its dilation.

const (
	// gatherBytes is the kernel's source array: about the level-5 model's
	// working set, far above L2 and far below the host's L3.
	gatherBytes = 24 << 20
	// referenceGatherMS fixes the unit: a millisecond at reference latency is
	// a wall millisecond while the kernel takes this long. It is what the
	// reference box shows when quiet, so that there the two read the same; on
	// another box all metrics scale by one constant, which a comparison of
	// two commits on that box does not see.
	referenceGatherMS = 10.0
	// gatherCalls per sample; the median counts.
	gatherCalls = 3
)

// calibrator owns the gather kernel's arrays.
type calibrator struct {
	workers int
	src     []float64
	idx     []int32
	sums    []float64 // one slot per worker, a cache line apart
	seen    []float64 // every sample of this run
}

func newCalibrator(workers int) *calibrator {
	n := gatherBytes / 8
	c := &calibrator{workers: workers, src: make([]float64, n), idx: make([]int32, n), sums: make([]float64, 8*workers)}
	// A fixed full-period LCG: the kernel is the same in every run.
	x := uint64(1)
	for i := range c.idx {
		x = x*6364136223846793005 + 1442695040888963407
		c.idx[i] = int32((x >> 33) % uint64(n))
		c.src[i] = float64(i)
	}
	return c
}

// gather sums src[idx[i]] over all i, split across the workers.
func (c *calibrator) gather() {
	parallelRange(c.workers, len(c.idx), func(w, lo, hi int) {
		s := 0.0
		for _, j := range c.idx[lo:hi] {
			s += c.src[j]
		}
		c.sums[8*w] = s
	})
}

// sample times the kernel under parent and keeps the dilation it saw.
func (c *calibrator) sample(parent handle) {
	var xs []float64
	for i := 0; i < gatherCalls; i++ {
		h := parent.child("bench.calibrate")
		c.gather()
		xs = append(xs, ms(h.end()))
	}
	c.seen = append(c.seen, median(xs)/referenceGatherMS)
}

// atReference brings a wall-clock figure (with the high percentile quoted
// beside it) to reference memory latency and keeps the raw one in Raw.
func atReference(m metric, dilation float64) metric {
	m.Raw = m.Value
	m.Value /= dilation
	m.Hi /= dilation
	return m
}
