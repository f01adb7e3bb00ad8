package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistogramAgainstExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{25, 1000, 40000} {
		var h hist
		exact := make([]float64, n)
		for i := range exact {
			// Log-uniform over 1 µs .. 1 s: six decades, like real latencies.
			ns := math.Exp(rng.Float64()*math.Log(1e6)) * 1e3
			exact[i] = math.Floor(ns)
			h.record(time.Duration(exact[i]))
		}
		sort.Float64s(exact)
		for _, q := range reportable {
			rank := int(q*float64(n) + 0.5)
			want := exact[min(max(rank, 1), n)-1]
			got := h.quantile(q)
			if rel := math.Abs(got-want) / want; rel > 1.0/(1<<histSubBits) {
				t.Errorf("n=%d p%g: histogram %v, exact %v (off by %.3f%%)", n, q*100, got, want, rel*100)
			}
		}
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	var h hist
	for v := 0; v < 300; v++ {
		h.record(time.Duration(v))
	}
	if got := h.quantile(0.5); got != 149 {
		t.Errorf("median of 0..299 = %v, want 149", got)
	}
	var other hist
	other.record(5 * time.Second)
	h.merge(&other)
	if h.n != 301 || h.quantile(1) < 4.9e9 {
		t.Errorf("merge lost the maximum: n=%d max=%v", h.n, h.quantile(1))
	}
}

// TestHighestPercentile pins the "at least ten samples beyond" rule.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highest(c.n); got != c.want {
			t.Errorf("highest(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// capped() must not report a p99 that 190 samples cannot carry.
	var h hist
	for i := 1; i <= 190; i++ {
		h.record(time.Duration(i) * time.Millisecond)
	}
	if got, p90 := h.capped(0.99), h.ms(0.9); got != p90 {
		t.Errorf("capped(0.99) on 190 samples = %v, want the p90 %v", got, p90)
	}
	if got, p50 := h.capped(0.5), h.ms(0.5); got != p50 {
		t.Errorf("capped(0.5) = %v, want %v", got, p50)
	}
}

// TestOpenLoopCountsTheStall drives the scheduler against a handler
// that stalls once: every request queued behind the stall must see the
// wait in its latency from the due time, and the lateness histogram
// must report it.
func TestOpenLoopCountsTheStall(t *testing.T) {
	const (
		rate    = 100.0 // one request every 10 ms
		n       = 30
		stallAt = 5
		stall   = 200 * time.Millisecond
	)
	latency := make([]time.Duration, n)
	start := time.Now().Add(5 * time.Millisecond)
	late := openLoop(start, rate, n, 1, func(_, i int, due time.Time) {
		if i == stallAt {
			time.Sleep(stall)
		}
		latency[i] = time.Since(due)
	})
	if latency[stallAt] < stall {
		t.Errorf("stalled request: latency %v < stall %v", latency[stallAt], stall)
	}
	// Request stallAt+k was due k*10 ms after the stalled one and could
	// not start before the stall ended.
	for k := 1; k < 15; k++ {
		want := stall - time.Duration(k)*10*time.Millisecond
		if got := latency[stallAt+k]; got < want {
			t.Errorf("request %d behind the stall: latency from due %v, want >= %v", stallAt+k, got, want)
		}
	}
	if got := latency[n-1]; got > 50*time.Millisecond {
		t.Errorf("the backlog never drained: last latency %v", got)
	}
	if late.n != n {
		t.Errorf("lateness recorded for %d of %d requests", late.n, n)
	}
	if got := late.quantile(1) / 1e6; got < 180 {
		t.Errorf("worst lateness %v ms, want about 190 ms", got)
	}
	// loadgen.late_p99_ms on 30 samples is capped to the median, which
	// here sits inside the backlog as well.
	if got := late.capped(0.99); got < 20 {
		t.Errorf("reported lateness %v ms does not show the stall", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 1000},                 // 0
		{Name: "handler", Parent: 0, Start: 100, End: 600},            // 1
		{Name: "decode", Parent: 1, Start: 100, End: 250},             // 2
		{Name: "wal", Parent: 1, Start: 200, End: 500},                // 3: overlaps decode by 50
		{Name: "late", Parent: 0, Start: 900, End: 1500},              // 4: runs past its parent
		{Name: "lonely", Parent: -1, Start: 2000, End: 2300},          // 5
		{Name: "delivery", Op: 1, Parent: -1, Start: 50, End: 100000}, // 6: a root, not a child of 0
	}
	want := []int64{
		1000 - 500 - 100, // op: minus handler, minus the clipped part of late
		500 - 150 - 250,  // handler: decode 150, wal's uncovered 250
		150, 300, 600, 300, 99950,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	dur, self := layerTimes(spans)
	if dur["handler"].n != 1 || self["handler"].quantile(0.5) != 100 {
		t.Errorf("layerTimes: handler self %v (n=%d)", self["handler"].quantile(0.5), dur["handler"].n)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 11, 14], n=4) == [10.0, 11.0, 14.0]
	if got, want := spread([]float64{10, 11, 14}), 4.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
}
