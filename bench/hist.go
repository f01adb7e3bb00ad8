package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: each
// power-of-two octave is cut into 1<<histSubBits equal buckets, so a
// reported percentile is within 2^-histSubBits (0.8 %) of the sample
// it stands for, whatever its magnitude. Recording is one increment;
// the zero value is ready to use. Not safe for concurrent use — every
// load-generator goroutine owns one and they are merged after the run.
type hist struct {
	counts [64 << histSubBits]uint32
	n      int
}

const histSubBits = 7

func histBucket(ns int64) int {
	if ns < 1<<histSubBits {
		if ns < 0 {
			ns = 0
		}
		return int(ns) // the first octaves are exact
	}
	exp := bits.Len64(uint64(ns)) - 1 - histSubBits
	return (exp+1)<<histSubBits | int(ns>>exp)&(1<<histSubBits-1)
}

// bucketMid is the midpoint of the bucket's value range.
func bucketMid(b int) float64 {
	if b < 1<<histSubBits {
		return float64(b)
	}
	exp := b>>histSubBits - 1
	lo := int64(1<<histSubBits|b&(1<<histSubBits-1)) << exp
	return float64(lo) + float64(int64(1)<<exp-1)/2
}

func (h *hist) record(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (nearest-rank), 0 for
// an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	seen := 0
	for b, c := range h.counts {
		if seen += int(c); seen >= rank {
			return bucketMid(b)
		}
	}
	return 0
}

// ms returns the q-quantile in milliseconds.
func (h *hist) ms(q float64) float64 { return h.quantile(q) / 1e6 }

// reportable are the percentiles the harness prints, ascending.
var reportable = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// highest returns the highest reportable percentile that still has at
// least ten samples beyond it — the tail a run of this length can
// actually support — or 0 when even the median cannot be (n < 20).
func highest(n int) float64 {
	best := 0.0
	for _, q := range reportable {
		// Samples strictly beyond the q-th; the epsilon keeps 0.9*100
		// from rounding up to a 91st.
		if n-int(math.Ceil(q*float64(n)-1e-9)) >= 10 {
			best = q
		}
	}
	return best
}

// capped returns the q-quantile in milliseconds, lowering q to the
// highest supportable percentile when the run is too short to carry q
// itself: a "p99" of 200 samples would be the mean of its two worst.
func (h *hist) capped(q float64) float64 {
	if top := highest(h.n); top > 0 && top < q {
		q = top
	}
	return h.ms(q)
}
