package stats

import "math"

// The selection-based robust statistics below replace the sort-based
// Median/MAD on every hot path: one quickselect pass is O(n) expected
// instead of O(n log n), and MedianMAD shares a single scratch buffer
// between the two selections so per-window loops allocate nothing.
//
// Ordering matches sort.Float64s exactly (NaNs first, then ascending),
// so the selection-based results equal those of the sorted-copy
// implementations they replace (which of two equal values lands at k,
// -0 or +0, is as unspecified as in sort.Float64s).
//
// The kernel is shaped for the short columns of the level-1 phase
// profile (one value per job, ~100 of them), where a Hoare loop
// mispredicts a data-dependent branch on about every other element.
// One pass moves the NaNs to the front, where they sort. The rest is a
// Lomuto partition on a plain < whose swap is unconditional and whose
// counter advances by the comparison's outcome, so the inner loop has
// no branch to mispredict. A median-of-three pivot guards ordered
// inputs, an equal-run skip keeps tied and constant columns linear,
// and ranges of insertionMax elements or fewer finish by insertion
// sort.

// selLess is the sort.Float64s ordering: NaNs sort before everything.
func selLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// insertionMax is the range length below which partitioning costs
// more than sorting what is left.
const insertionMax = 12

// SelectK partially reorders xs in place so that xs[k] holds the value
// ascending sorting (NaNs first) would put at index k, every element
// before index k compares ≤ it and every element after compares ≥ it.
// It returns xs[k]. Expected O(len(xs)). It panics when k is out of
// range, as that is always a programming error in this library.
func SelectK(xs []float64, k int) float64 {
	kth, _ := selectK(xs, k)
	return kth
}

// selectK is SelectK that also returns below, the largest of xs[:k]
// after the selection (NaN when k is 0): the lower middle of an even
// median, free where the partitioning already knows it.
func selectK(xs []float64, k int) (kth, below float64) {
	if k < 0 || k >= len(xs) {
		panic("stats: SelectK index out of range")
	}
	nans := 0
	for i, x := range xs {
		if math.IsNaN(x) {
			xs[i], xs[nans] = xs[nans], x
			nans++
		}
	}
	if k < nans {
		return xs[k], math.NaN()
	}
	return selectOrdered(xs[nans:], k-nans)
}

// selectOrdered is selectK on a slice without NaNs.
func selectOrdered(xs []float64, k int) (kth, below float64) {
	lo, hi := 0, len(xs)
	for hi-lo > insertionMax {
		// Median of three into xs[mid], then park it at the end.
		mid, last := lo+(hi-lo)/2, hi-1
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[last] < xs[mid] {
			xs[last], xs[mid] = xs[mid], xs[last]
			if xs[mid] < xs[lo] {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
		}
		pivot := xs[mid]
		xs[mid], xs[last] = xs[last], pivot
		// xs[lo:s] < pivot ≤ xs[s:i]. b is set from the comparison's
		// flag (SETcc), not a jump.
		s := lo
		for i := lo; i < last; i++ {
			x := xs[i]
			xs[i] = xs[s]
			xs[s] = x
			b := 0
			if x < pivot {
				b = 1
			}
			s += b
		}
		xs[last], xs[s] = xs[s], pivot
		switch {
		case k < s:
			hi = s
		case k == s:
			if s == lo {
				return pivot, lastBelow(xs, k)
			}
			below = xs[lo]
			for _, x := range xs[lo+1 : s] {
				if x > below {
					below = x
				}
			}
			return pivot, below
		case s > lo:
			lo = s + 1
		default:
			// Nothing lies below the pivot, so it is the range minimum
			// and its ties would come off one per pass. Take the whole
			// equal run in one: everything right of s is ≥ pivot.
			e := s + 1
			for i := e; i < hi; i++ {
				x := xs[i]
				xs[i] = xs[e]
				xs[e] = x
				b := 0
				if x == pivot {
					b = 1
				}
				e += b
			}
			if k < e {
				return pivot, pivot // s < k, so xs[k-1] is in the run
			}
			lo = e
		}
	}
	insertionSort(xs[lo:hi])
	return xs[k], lastBelow(xs, k)
}

// lastBelow returns xs[k-1], or NaN when k is 0, for a selection that
// left the largest of xs[:k] there: every range the loop narrows to
// starts right after the previous pivot or equal run, which is the
// largest element before it.
func lastBelow(xs []float64, k int) float64 {
	if k == 0 {
		return math.NaN()
	}
	return xs[k-1]
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i
		for ; j > 0 && x < xs[j-1]; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = x
	}
}

// MedianInPlace returns the median of xs, reordering xs in the
// process. It matches Median exactly (including NaN propagation) in
// expected O(n).
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	upper, lower := selectK(xs, n/2)
	if n%2 == 1 {
		return upper
	}
	return (lower + upper) / 2
}

// MedianMAD returns the median and the 1.4826-scaled median absolute
// deviation of xs in one expected-O(n) pass pair, sharing the provided
// scratch buffer between the two selections. xs is not modified.
// scratch needs cap ≥ len(xs) to be reused; anything smaller (nil
// included) allocates internally, so passing a reusable buffer is an
// optimisation, never a requirement.
func MedianMAD(xs, scratch []float64) (med, mad float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if cap(scratch) < n {
		scratch = make([]float64, n)
	}
	buf := scratch[:n]
	copy(buf, xs)
	med = MedianInPlace(buf)
	for i, x := range xs {
		buf[i] = math.Abs(x - med)
	}
	return med, 1.4826 * MedianInPlace(buf)
}

// DegenerateMAD reports whether a MAD estimate cannot serve as a
// divisor — the shared test behind every robust-scaling fallback.
func DegenerateMAD(mad float64) bool { return mad == 0 || math.IsNaN(mad) }
