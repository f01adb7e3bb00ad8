package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/plant"
)

// referenceTopK is the ranking Algorithm 1 used before the bounded
// collector, kept as the oracle: a stable sort of every candidate in
// discovery order by (GlobalScore desc, Outlierness desc, Index asc),
// cut to k.
func referenceTopK(all []Outlier, k int) []Outlier {
	out := append([]Outlier(nil), all...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.GlobalScore != b.GlobalScore {
			return a.GlobalScore > b.GlobalScore
		}
		if a.Outlierness != b.Outlierness {
			return a.Outlierness > b.Outlierness
		}
		return a.Index < b.Index
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

var defaultMaxOutliers = Options{}.withDefaults().MaxOutliers

// cutoffs are the list bounds the differential tests try around a
// candidate count n: the default, 1, and the three around n.
func cutoffs(n int) []int {
	ks := []int{defaultMaxOutliers, 1}
	for _, k := range []int{n - 1, n, n + 1} {
		if k > 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

func TestTopKMatchesStableSortOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	outliernesses := []float64{0.5, 0.625, 0.75, 1}
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 200, 1500} {
		// Few distinct values per key, so most candidates tie with many
		// others on all three and only the discovery order separates
		// them; JobIndex carries that order into the comparison.
		all := make([]Outlier, n)
		confs := make([]confirmations, n)
		for i := range all {
			confs[i] = confirmations{up: rng.Intn(3), down: rng.Intn(2)}
			all[i] = Outlier{
				Level:       LevelEnvironment,
				Index:       rng.Intn(4),
				JobIndex:    i,
				GlobalScore: confs[i].score(),
				Outlierness: outliernesses[rng.Intn(len(outliernesses))],
				Support:     float64(rng.Intn(2)),
			}
		}
		for _, k := range cutoffs(n) {
			keep := topK{k: k}
			for i := range all {
				keep.add(&all[i], confs[i])
			}
			got := keep.ranked()
			want := referenceTopK(all, k)
			for i := range want {
				want[i].SeenAt = confs[want[i].JobIndex].seenAt(LevelEnvironment)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("n=%d k=%d: collector and stable sort disagree\n got %+v\nwant %+v", n, k, got, want)
			}
			if cap(got) > k {
				t.Fatalf("n=%d k=%d: returned slice has cap %d", n, k, cap(got))
			}
		}
	}
}

// partialJobPlant is the plant a live server assembles mid-stream: jobs
// in job-name order, the newest one cut short, so every job after it
// sits off the per-position profile and floods the phase level with
// candidates.
func partialJobPlant(t *testing.T) *plant.Plant {
	t.Helper()
	p := simulate(t, plant.Config{
		Seed: 24, Lines: 1, MachinesPerLine: 3, JobsPerMachine: 24, PhaseSamples: 20,
		FaultRate: 0.4, MeasurementErrorRate: 0.4,
	})
	m := p.Machines()[0]
	newest := m.Jobs[len(m.Jobs)-1]
	newest.Phases = newest.Phases[:4]
	for _, dim := range newest.Phases[3].Sensors.Dims {
		dim.Values = dim.Values[:15]
	}
	mid := len(m.Jobs) / 2
	copy(m.Jobs[mid+1:], m.Jobs[mid:len(m.Jobs)-1])
	m.Jobs[mid] = newest
	return p
}

func TestRankedListMatchesStableSortAtEveryLevel(t *testing.T) {
	// Thresholds low enough that every level yields a crowd of
	// candidates, not the handful a healthy plant has.
	base := Options{PhaseThreshold: 2, JobThreshold: 0.5, EnvThreshold: 0.5, LineThreshold: 0.2, ProductionThreshold: 0.01}
	for _, level := range Levels() {
		p := partialJobPlant(t)
		id := p.Machines()[0].ID

		// Every candidate in discovery order, from the finders themselves.
		everything := topK{k: math.MaxInt}
		var wantRep Report
		if err := findOutliers(hier(t, p, id), level, base.withDefaults(), &everything, &wantRep); err != nil {
			t.Fatal(err)
		}
		found := everything.heap
		sort.Slice(found, func(i, j int) bool { return found[i].seq < found[j].seq })
		all := make([]Outlier, len(found))
		for i, c := range found {
			all[i] = c.Outlier
			all[i].SeenAt = c.conf.seenAt(level)
		}
		if len(all) == 0 {
			t.Fatalf("%s: no candidates, the test compares nothing", level)
		}
		if level == LevelPhase && len(all) < 10*defaultMaxOutliers {
			t.Fatalf("phase: %d candidates, want the partial job to yield far more than the list keeps", len(all))
		}

		t.Logf("%s: %d candidates, %d warnings", level, len(all), len(wantRep.Warnings))
		for _, k := range cutoffs(len(all)) {
			opts := base
			opts.MaxOutliers = k
			rep, err := FindHierarchicalOutliers(hier(t, p, id), level, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceTopK(all, k); !reflect.DeepEqual(rep.Outliers, want) {
				t.Fatalf("%s k=%d of %d: report differs from the stable sort\n got %+v\nwant %+v", level, k, len(all), rep.Outliers, want)
			}
			if cap(rep.Outliers) > k {
				t.Fatalf("%s k=%d: cap(rep.Outliers) = %d", level, k, cap(rep.Outliers))
			}
			if !reflect.DeepEqual(rep.Warnings, wantRep.Warnings) {
				t.Fatalf("%s k=%d: warnings depend on the bound", level, k)
			}
		}
	}
}
