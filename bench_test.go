// Package repro's root benchmark suite regenerates every table and
// figure of the paper (run with `go test -bench=. -benchmem`). Each
// benchmark prints its table once and then measures the cost of
// regenerating the underlying experiment, so the suite doubles as the
// reproduction harness and a performance baseline.
package repro

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/detector/registry"
	"repro/internal/experiments"
	"repro/internal/generator"
	"repro/internal/parallel"
	"repro/internal/plant"
)

// genPair builds the clean/dirty workload pair of a detector benchmark
// concurrently. Each generator owns its seed-derived RNG, so the pair
// is identical to sequential generation.
func genPair[T any](b *testing.B, genClean, genDirty func() (T, error)) (clean, dirty T) {
	b.Helper()
	gens := []func() (T, error){genClean, genDirty}
	pair, err := parallel.Map(len(gens), 0, func(i int) (T, error) {
		return gens[i]()
	})
	if err != nil {
		b.Fatal(err)
	}
	return pair[0], pair[1]
}

// printOnce guards the one-time table dumps so repeated benchmark
// iterations do not flood the output.
var printOnce sync.Map

func dumpOnce(b *testing.B, key, title string, body fmt.Stringer) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Logf("%s\n%s", title, body)
	}
}

// BenchmarkTable1 regenerates Table 1 — the 21-technique capability
// matrix with conformance AUCs (experiment E1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(1)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce(b, "table1", "Table 1 — Categorization of Literature on Outliers", res)
	}
}

// BenchmarkFig1 regenerates Fig. 1 — detection quality per outlier
// type (experiment E2).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(1)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce(b, "fig1", "Fig. 1 — Outlier types, detection AUC", res)
	}
}

// BenchmarkFig2 regenerates Fig. 2 — the hierarchy level census
// (experiment E3).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(1)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce(b, "fig2", "Fig. 2 — Hierarchy level census", res)
	}
}

// BenchmarkFig3 regenerates Fig. 3 — the bibliometric counts through
// the search-engine pipeline (experiment E5).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(1)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce(b, "fig3", "Fig. 3 — Research fields of outlier detection", res)
	}
}

// BenchmarkAlgorithm1 regenerates the Algorithm 1 experiment — the
// ⟨global score, outlierness, support⟩ triple on the simulated plant
// (experiment E4).
func BenchmarkAlgorithm1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAlg1(5)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce(b, "alg1", "Algorithm 1 — the hierarchical triple", res)
	}
}

// BenchmarkAblationHierarchy regenerates E6 (flat vs hierarchical) and
// the design ablations.
func BenchmarkAblationHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fh, err := experiments.RunFlatVsHier(5)
		if err != nil {
			b.Fatal(err)
		}
		ab, err := experiments.RunAblation(5)
		if err != nil {
			b.Fatal(err)
		}
		dumpOnce(b, "e6a", "E6 — flat vs hierarchical", fh)
		dumpOnce(b, "e6b", "Ablations", ab)
	}
}

// BenchmarkPlantSimulation measures the substrate cost: one full plant
// simulation.
func BenchmarkPlantSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := plant.Simulate(plant.Config{Seed: int64(i), FaultRate: 0.25, MeasurementErrorRate: 0.25}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchicalRun measures one Algorithm 1 run over one
// machine (plant held fixed).
func BenchmarkHierarchicalRun(b *testing.B) {
	p, err := plant.Simulate(plant.Config{Seed: 5, FaultRate: 0.25, MeasurementErrorRate: 0.25, JobsPerMachine: 12})
	if err != nil {
		b.Fatal(err)
	}
	id := p.Machines()[0].ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := core.NewHierarchy(p, id)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.FindHierarchicalOutliers(h, core.LevelPhase, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlg1PartialJob measures Algorithm 1 at the phase level on
// the plant a live server assembles: one machine, 108 jobs x 5 phases
// x 80 samples in job-name order, the newest job three-quarters
// streamed. Its name sorts mid-list (job-108 < job-11), so every job
// after it sits off the per-position profile and most of their samples
// become candidates; the count is reported beside the timings.
func BenchmarkAlg1PartialJob(b *testing.B) {
	p, err := plant.Simulate(plant.Config{
		Seed: 1, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 108, PhaseSamples: 80,
		FaultRate: 0.3, MeasurementErrorRate: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := p.Machines()[0]
	newest := m.Jobs[len(m.Jobs)-1]
	newest.Phases = newest.Phases[:4]
	for _, dim := range newest.Phases[3].Sensors.Dims {
		dim.Values = dim.Values[:60]
	}
	sort.Slice(m.Jobs, func(i, j int) bool { return m.Jobs[i].ID < m.Jobs[j].ID })
	all, err := core.NewHierarchy(p, m.ID)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.FindHierarchicalOutliers(all, core.LevelPhase, core.Options{MaxOutliers: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := core.NewHierarchy(p, m.ID)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.FindHierarchicalOutliers(h, core.LevelPhase, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rep.Outliers)), "candidates")
}

// BenchmarkColdMachineReport measures a cold report of a whole plant
// the size the serving benchmark reports on: 2 lines x 3 machines x 96
// jobs x 80 samples per phase, a fresh plant cache, and Algorithm 1 at
// the phase level for every machine with nothing memoized. The level-1
// job-cycle profile is most of it.
func BenchmarkColdMachineReport(b *testing.B) {
	p, err := plant.Simulate(plant.Config{
		Seed: 1, Lines: 2, MachinesPerLine: 3, JobsPerMachine: 96, PhaseSamples: 80,
		FaultRate: 0.3, MeasurementErrorRate: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	machines := p.Machines()
	opts := core.Options{MaxOutliers: 512} // the server's default
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := core.NewPlantCache(p)
		for _, m := range machines {
			h, err := core.NewHierarchyWithCache(p, m.ID, cache)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.FindHierarchicalOutliers(h, core.LevelPhase, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(machines))/1e6, "ms/machine")
}

// BenchmarkDetectorsPoint measures per-detector point-scoring
// throughput on the standard PTS workload (every PTS-capable,
// unsupervised technique).
func BenchmarkDetectorsPoint(b *testing.B) {
	cfg := generator.Config{N: 4096, Phi: 0.5}
	clean, dirty := genPair(b,
		func() (*generator.Labeled, error) {
			return generator.MixedWorkload(cfg, 0, 0, rand.New(rand.NewSource(1)))
		},
		func() (*generator.Labeled, error) {
			return generator.MixedWorkload(cfg, 10, 7, rand.New(rand.NewSource(2)))
		})
	for _, entry := range registry.All() {
		if !entry.Info.Capability.Points || entry.Info.Supervised {
			continue
		}
		entry := entry
		b.Run(entry.Info.Name, func(b *testing.B) {
			d := entry.New()
			if f, ok := d.(detector.Fitter); ok {
				if err := f.Fit(clean.Series.Values); err != nil {
					b.Fatal(err)
				}
			}
			ps := d.(detector.PointScorer)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ps.ScorePoints(dirty.Series.Values); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(8 * dirty.Series.Len()))
		})
	}
}

// BenchmarkDetectorsWindow measures per-detector window-scoring
// throughput on the standard SSQ workload.
func BenchmarkDetectorsWindow(b *testing.B) {
	clean, dirty := genPair(b,
		func() (*generator.LabeledSubseq, error) {
			return generator.SubseqWorkload(4096, 48, 0, rand.New(rand.NewSource(1)))
		},
		func() (*generator.LabeledSubseq, error) {
			return generator.SubseqWorkload(4096, 48, 5, rand.New(rand.NewSource(2)))
		})
	for _, entry := range registry.All() {
		if !entry.Info.Capability.Subsequences || entry.Info.Supervised {
			continue
		}
		entry := entry
		b.Run(entry.Info.Name, func(b *testing.B) {
			d := entry.New()
			if f, ok := d.(detector.Fitter); ok {
				if err := f.Fit(clean.Series.Values); err != nil {
					b.Fatal(err)
				}
			}
			ws, ok := d.(detector.WindowScorer)
			if !ok {
				b.Skip("symbol-only scorer")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.ScoreWindows(dirty.Series.Values, 32, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectorsSeries measures per-detector whole-series scoring
// on the standard TSS workload.
func BenchmarkDetectorsSeries(b *testing.B) {
	lab, err := generator.SeriesWorkload(40, 8, 256, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	batch := make([][]float64, len(lab.Series))
	for i, s := range lab.Series {
		batch[i] = s.Values
	}
	// Size the training concatenation up front — growing it by repeated
	// append reallocates log(n) times for no benefit.
	total := 0
	for i, s := range batch {
		if !lab.Labels[i] {
			total += len(s)
		}
	}
	cleanConcat := make([]float64, 0, total)
	for i, s := range batch {
		if !lab.Labels[i] {
			cleanConcat = append(cleanConcat, s...)
		}
	}
	for _, entry := range registry.All() {
		if !entry.Info.Capability.Series || entry.Info.Supervised {
			continue
		}
		entry := entry
		b.Run(entry.Info.Name, func(b *testing.B) {
			d := entry.New()
			if f, ok := d.(detector.Fitter); ok {
				if err := f.Fit(cleanConcat); err != nil {
					b.Fatal(err)
				}
			}
			ss := d.(detector.SeriesScorer)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ss.ScoreSeries(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
