package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/plant"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// referenceSelectK is the median-of-three Hoare quickselect stats used
// before its branch-free kernel (the same oracle internal/stats keeps
// in its tests), with sort.Float64s ordering: NaNs first.
func referenceSelectK(xs []float64, k int) float64 {
	less := func(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if less(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if less(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if less(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for less(xs[i], pivot) {
				i++
			}
			for less(pivot, xs[j]) {
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

func referenceMedianInPlace(xs []float64) float64 {
	k := len(xs) / 2
	upper := referenceSelectK(xs, k)
	if len(xs)%2 == 1 {
		return upper
	}
	lower := xs[0]
	for _, x := range xs[1:k] {
		if x > lower || (math.IsNaN(lower) && !math.IsNaN(x)) {
			lower = x
		}
	}
	return (lower + upper) / 2
}

func referenceMedianMAD(xs []float64) (med, mad float64) {
	buf := append([]float64(nil), xs...)
	med = referenceMedianInPlace(buf)
	for i, x := range xs {
		buf[i] = math.Abs(x - med)
	}
	return med, 1.4826 * referenceMedianInPlace(buf)
}

// referencePhaseScores is the sequential level-1 scorer as it stood
// before the per-sensor fan-out: one stream per sensor gathered into a
// shared buffer, referenced to the setpoint of job i/perJob in place,
// then scored column by column on the Hoare median/MAD.
func referencePhaseScores(h *Hierarchy) (map[string][]float64, error) {
	jobs := h.Machine.Jobs
	out := make(map[string][]float64, len(plant.SensorNames))
	var adj, col []float64
	n := 0
	for k, name := range plant.SensorNames {
		adj = adj[:0]
		for _, job := range jobs {
			for _, ph := range job.Phases {
				for _, dim := range ph.Sensors.Dims {
					if dim.Name == name {
						adj = append(adj, dim.Values...)
					}
				}
			}
		}
		if k == 0 {
			n = len(adj)
		} else if len(adj) != n {
			return nil, fmt.Errorf("%w: dim %q has %d samples, want %d", timeseries.ErrMismatch, name, len(adj), n)
		}
		if name == "temp-a" || name == "temp-b" {
			for i := range adj {
				ji := i / h.perJob
				if ji >= len(jobs) {
					ji = len(jobs) - 1
				}
				adj[i] -= jobs[ji].Setup[2]
			}
		}
		scores := make([]float64, n)
		for pos := 0; pos < h.perJob && pos < n; pos++ {
			col = col[:0]
			for i := pos; i < n; i += h.perJob {
				col = append(col, adj[i])
			}
			med, mad := referenceMedianMAD(col)
			if stats.DegenerateMAD(mad) || mad < 0.3 {
				mad = 0.3
			}
			for i := pos; i < n; i += h.perJob {
				d := adj[i] - med
				if d < 0 {
					d = -d
				}
				scores[i] = d / mad
			}
		}
		out[name] = scores
	}
	return out, nil
}

// TestPhaseScoresMatchReference pins the level-1 profile bit for bit
// against the sequential Hoare-based scorer, on whole-job plants and
// on live-server shapes where a job in progress sorts mid-order and
// every later job sits off the per-position profile.
func TestPhaseScoresMatchReference(t *testing.T) {
	plants := map[string]*plant.Plant{}
	for seed := int64(1); seed <= 4; seed++ {
		plants[fmt.Sprintf("whole/seed-%d", seed)] = simulate(t, plant.Config{
			Seed: seed, JobsPerMachine: 6 + 30*int(seed%2), PhaseSamples: 20 + 10*int(seed),
			FaultRate: 0.3, MeasurementErrorRate: 0.3,
		})
	}
	plants["partial/mid-insert"] = partialJobPlant(t)
	// BenchmarkAlg1PartialJob's shape: 108 jobs in name order, the
	// newest (job-108 < job-11) three-quarters streamed.
	p := simulate(t, plant.Config{
		Seed: 1, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 108, PhaseSamples: 80,
		FaultRate: 0.3, MeasurementErrorRate: 0.3,
	})
	m := p.Machines()[0]
	newest := m.Jobs[len(m.Jobs)-1]
	newest.Phases = newest.Phases[:4]
	for _, dim := range newest.Phases[3].Sensors.Dims {
		dim.Values = dim.Values[:60]
	}
	sort.Slice(m.Jobs, func(i, j int) bool { return m.Jobs[i].ID < m.Jobs[j].ID })
	plants["partial/name-order"] = p

	for name, p := range plants {
		for _, m := range p.Machines() {
			got, err := hier(t, p, m.ID).phaseLevelScores()
			if err != nil {
				t.Fatal(err)
			}
			want, err := referencePhaseScores(hier(t, p, m.ID))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d sensors, reference %d", name, m.ID, len(got), len(want))
			}
			for sensor, ws := range want {
				gs := got[sensor]
				if len(gs) != len(ws) {
					t.Fatalf("%s %s %s: %d scores, reference %d", name, m.ID, sensor, len(gs), len(ws))
				}
				for i := range ws {
					if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) {
						t.Fatalf("%s %s %s[%d] = %v, reference %v", name, m.ID, sensor, i, gs[i], ws[i])
					}
				}
			}
		}
	}
}
