package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortMedian and sortMAD are the original sort-based implementations,
// kept here as the reference the selection-based fast paths must match
// bit-for-bit.
func sortMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return medianSorted(cp)
}

func sortMAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	med := sortMedian(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return 1.4826 * sortMedian(dev)
}

// referenceSelectK is the median-of-three Hoare quickselect SelectK
// used before the branch-free kernel, kept as the oracle the kernel is
// compared with and as the baseline of BenchmarkMedianMAD.
func referenceSelectK(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if selLess(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if selLess(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if selLess(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for selLess(xs[i], pivot) {
				i++
			}
			for selLess(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// referenceMedianMAD is MedianMAD on referenceSelectK, as it was
// written before the branch-free kernel.
func referenceMedianMAD(xs, scratch []float64) (med, mad float64) {
	median := func(buf []float64) float64 {
		k := len(buf) / 2
		upper := referenceSelectK(buf, k)
		if len(buf)%2 == 1 {
			return upper
		}
		lower := buf[0]
		for _, x := range buf[1:k] {
			if selLess(lower, x) {
				lower = x
			}
		}
		return (lower + upper) / 2
	}
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	buf := append(scratch[:0], xs...)
	med = median(buf)
	for i, x := range xs {
		buf[i] = math.Abs(x - med)
	}
	return med, 1.4826 * median(buf)
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// regimes are the input shapes the kernel must select correctly and
// in linear time: the detectors' random, constant and NaN-bearing
// inputs, plus heavy ties, presorted and organ-pipe orders that defeat
// naive pivots, signed zeros, and nothing but NaN.
var regimes = []struct {
	name string
	fill func(rng *rand.Rand, xs []float64)
}{
	{"random", func(rng *rand.Rand, xs []float64) {
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
	}},
	{"constant", func(rng *rand.Rand, xs []float64) {
		c := rng.NormFloat64()
		for i := range xs {
			xs[i] = c
		}
	}},
	{"nan-contaminated", func(rng *rand.Rand, xs []float64) {
		for i := range xs {
			if rng.Float64() < 0.2 {
				xs[i] = math.NaN()
			} else {
				xs[i] = rng.NormFloat64() * 10
			}
		}
	}},
	{"few-distinct", func(rng *rand.Rand, xs []float64) {
		vals := []float64{-2.5, 0, 1, 1.5, 7}[:1+rng.Intn(5)]
		for i := range xs {
			xs[i] = vals[rng.Intn(len(vals))]
		}
	}},
	{"ascending", func(rng *rand.Rand, xs []float64) {
		for i := range xs {
			xs[i] = float64(i) * 0.5
		}
	}},
	{"descending", func(rng *rand.Rand, xs []float64) {
		for i := range xs {
			xs[i] = float64(len(xs) - i)
		}
	}},
	{"organ-pipe", func(rng *rand.Rand, xs []float64) {
		for i := range xs {
			xs[i] = float64(min(i, len(xs)-1-i))
		}
	}},
	{"signed-zeros", func(rng *rand.Rand, xs []float64) {
		vals := []float64{math.Copysign(0, -1), 0, 1, -1}
		for i := range xs {
			xs[i] = vals[rng.Intn(len(vals))]
		}
	}},
	{"all-nan", func(rng *rand.Rand, xs []float64) {
		for i := range xs {
			xs[i] = math.NaN()
		}
	}},
}

// sampleSize draws a length in [lo, 2048], biased towards short inputs
// (the profile's columns) while still reaching the partition path's
// deep recursions.
func sampleSize(rng *rand.Rand, lo int) int {
	if rng.Intn(2) == 0 {
		return lo + rng.Intn(129-lo)
	}
	return lo + rng.Intn(2049-lo)
}

func TestSelectKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		r := regimes[trial%len(regimes)]
		n := sampleSize(rng, 1)
		xs := make([]float64, n)
		r.fill(rng, xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		k := rng.Intn(n)
		cp := append([]float64(nil), xs...)
		got := SelectK(cp, k)
		if !sameFloat(got, sorted[k]) {
			t.Fatalf("trial %d (%s, n=%d): SelectK(·, %d) = %v, sorted[%d] = %v", trial, r.name, n, k, got, k, sorted[k])
		}
		if ref := referenceSelectK(append([]float64(nil), xs...), k); !sameFloat(got, ref) {
			t.Fatalf("trial %d (%s, n=%d): SelectK(·, %d) = %v, reference %v", trial, r.name, n, k, got, ref)
		}
		// Partition invariant: nothing left of k compares above xs[k],
		// nothing right of it compares below.
		for i := 0; i < k; i++ {
			if selLess(cp[k], cp[i]) {
				t.Fatalf("trial %d (%s): partition violated at %d < k=%d", trial, r.name, i, k)
			}
		}
		for i := k + 1; i < n; i++ {
			if selLess(cp[i], cp[k]) {
				t.Fatalf("trial %d (%s): partition violated at %d > k=%d", trial, r.name, i, k)
			}
		}
		// A permutation: the multiset is unchanged.
		sort.Float64s(cp)
		for i := range cp {
			if !sameFloat(cp[i], sorted[i]) {
				t.Fatalf("trial %d (%s): SelectK lost or duplicated an element", trial, r.name)
			}
		}
	}
}

func TestSelectKPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range k")
		}
	}()
	SelectK([]float64{1, 2}, 2)
}

func TestMedianMADMatchesSortBased(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scratch := make([]float64, 64)
	for trial := 0; trial < 2000; trial++ {
		r := regimes[trial%len(regimes)]
		n := sampleSize(rng, 0) // includes 0
		xs := make([]float64, n)
		r.fill(rng, xs)
		orig := append([]float64(nil), xs...)
		med, mad := MedianMAD(xs, scratch)
		if !sameFloat(med, sortMedian(orig)) {
			t.Fatalf("trial %d (%s, n=%d): median %v != sort-based %v", trial, r.name, n, med, sortMedian(orig))
		}
		if !sameFloat(mad, sortMAD(orig)) {
			t.Fatalf("trial %d (%s, n=%d): MAD %v != sort-based %v", trial, r.name, n, mad, sortMAD(orig))
		}
		refMed, refMAD := referenceMedianMAD(orig, nil)
		if !sameFloat(med, refMed) || !sameFloat(mad, refMAD) {
			t.Fatalf("trial %d (%s, n=%d): (%v, %v) != reference (%v, %v)", trial, r.name, n, med, mad, refMed, refMAD)
		}
		// MedianMAD must not touch its input.
		for i := range xs {
			if !sameFloat(xs[i], orig[i]) {
				t.Fatalf("trial %d: input mutated at %d", trial, i)
			}
		}
		// Public wrappers stay consistent with the combined call.
		if !sameFloat(Median(orig), med) || !sameFloat(MAD(orig), mad) {
			t.Fatalf("trial %d: Median/MAD disagree with MedianMAD", trial)
		}
	}
}

func TestMedianMADTinyInputs(t *testing.T) {
	med, mad := MedianMAD(nil, nil)
	if !math.IsNaN(med) || !math.IsNaN(mad) {
		t.Fatalf("empty: got %v, %v", med, mad)
	}
	med, mad = MedianMAD([]float64{3}, nil)
	if med != 3 || mad != 0 {
		t.Fatalf("len-1: got %v, %v", med, mad)
	}
	med, mad = MedianMAD([]float64{1, 5}, nil)
	if med != 3 || mad != 1.4826*2 {
		t.Fatalf("len-2: got %v, %v", med, mad)
	}
}

func TestMedianInPlaceAgreesWithMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		r := regimes[trial%len(regimes)]
		xs := make([]float64, 1+rng.Intn(30))
		r.fill(rng, xs)
		want := sortMedian(xs)
		if got := MedianInPlace(append([]float64(nil), xs...)); !sameFloat(got, want) {
			t.Fatalf("trial %d (%s): %v != %v for %v", trial, r.name, got, want, xs)
		}
	}
}

// BenchmarkMedianMAD times the kernel and its Hoare reference on
// Gaussian columns of the phase profile's length (96 jobs), on
// tie-heavy ones (five distinct values) and on long inputs. Each
// sub-benchmark cycles through 1 600 distinct columns, as the profile
// of one machine does: replaying one column would let the branch
// predictor learn it and hide the mispredictions the kernel removes.
func BenchmarkMedianMAD(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	columns := func(n int, draw func() float64) [][]float64 {
		cols := make([][]float64, 1600)
		for c := range cols {
			cols[c] = make([]float64, n)
			for i := range cols[c] {
				cols[c][i] = draw()
			}
		}
		return cols
	}
	inputs := []struct {
		name string
		cols [][]float64
	}{
		{"n=96", columns(96, rng.NormFloat64)},
		{"ties/n=96", columns(96, func() float64 { return float64(rng.Intn(5)) })},
		{"n=1024", columns(1024, rng.NormFloat64)},
	}
	for _, impl := range []struct {
		name string
		fn   func(xs, scratch []float64) (float64, float64)
	}{{"kernel", MedianMAD}, {"reference", referenceMedianMAD}} {
		for _, in := range inputs {
			b.Run(fmt.Sprintf("%s/%s", impl.name, in.name), func(b *testing.B) {
				scratch := make([]float64, len(in.cols[0]))
				for i := 0; i < b.N; i++ {
					impl.fn(in.cols[i%len(in.cols)], scratch)
				}
			})
		}
	}
}

func BenchmarkMedianMADSortBased(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortMedian(xs)
		sortMAD(xs)
	}
}
