package core

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/plant"
	"repro/internal/softsensor"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// Hierarchy is one machine's aligned view over the five production
// levels, extracted from a simulated (or recorded) plant. It caches
// the per-level detection runs so the recursive global-score passes do
// not recompute them.
type Hierarchy struct {
	Plant   *plant.Plant
	Machine *plant.Machine

	// NaivePhase switches the phase-level detector from the job-cycle
	// profile to a plain global robust z — the "wrong algorithm for
	// the level" ablation showing why Algorithm 1's ChooseAlgorithm
	// step matters. Set before the first detection call.
	NaivePhase bool

	perPhase int // samples per phase
	perJob   int // samples per job

	// cache shares plant-wide computations (environment tracker,
	// production cube, per-machine line scores) with the other
	// hierarchies of the same plant.
	cache *PlantCache

	// Per-level normalised scores, computed lazily.
	phaseScores map[string][]float64 // sensor → per-sample z
	jobScores   []float64            // per job index
	envScores   []float64            // per environment sample
	lineScores  []float64            // per job index
	prodScores  []float64            // per machine index
	prodIndex   int                  // this machine's index in prodScores

	// Soft-sensor models for virtual redundancy, built lazily per
	// target sensor.
	softModels map[string]*softsensor.Model
	softStream *timeseries.MultiSeries
}

// NewHierarchy builds the hierarchy view for one machine of the plant
// with a private plant cache. Callers inspecting several machines of
// the same plant should share one cache via NewHierarchyWithCache.
func NewHierarchy(p *plant.Plant, machineID string) (*Hierarchy, error) {
	return NewHierarchyWithCache(p, machineID, NewPlantCache(p))
}

// NewHierarchyWithCache builds the hierarchy view for one machine,
// sharing the given plant cache so environment, production, and
// sibling line scores are computed once per plant instead of once per
// machine hierarchy.
func NewHierarchyWithCache(p *plant.Plant, machineID string, cache *PlantCache) (*Hierarchy, error) {
	m, err := p.MachineByID(machineID)
	if err != nil {
		return nil, err
	}
	if len(m.Jobs) == 0 || len(m.Jobs[0].Phases) == 0 {
		return nil, fmt.Errorf("core: machine %s has no recorded jobs", machineID)
	}
	if cache == nil {
		cache = NewPlantCache(p)
	}
	perPhase := m.Jobs[0].Phases[0].Sensors.Len()
	return &Hierarchy{
		Plant:    p,
		Machine:  m,
		perPhase: perPhase,
		perJob:   perPhase * len(m.Jobs[0].Phases),
		cache:    cache,
	}, nil
}

// SamplesPerJob returns the number of level-1 samples a job spans.
func (h *Hierarchy) SamplesPerJob() int { return h.perJob }

// Rebind points the hierarchy at a new plant snapshot and cache,
// dropping exactly the memos the snapshot invalidates. The plant-level
// scores (environment, line, production) always re-pull from the cache
// — which serves them memoized when their subtree is untouched. The
// machine-local memos (phase profile scores, job scores, soft-sensor
// models) survive when the snapshot reuses the same machine object.
// The serving layer builds fresh hierarchies per data revision; the
// rebound replay benchmark (bench/replay.go) is what calls this.
func (h *Hierarchy) Rebind(p *plant.Plant, cache *PlantCache) error {
	m, err := p.MachineByID(h.Machine.ID)
	if err != nil {
		return err
	}
	if len(m.Jobs) == 0 || len(m.Jobs[0].Phases) == 0 {
		return fmt.Errorf("core: machine %s has no recorded jobs", m.ID)
	}
	if cache == nil {
		cache = NewPlantCache(p)
	}
	if m != h.Machine {
		h.phaseScores = nil
		h.jobScores = nil
		h.softModels = nil
		h.softStream = nil
		h.perPhase = m.Jobs[0].Phases[0].Sensors.Len()
		h.perJob = h.perPhase * len(m.Jobs[0].Phases)
	}
	h.Plant = p
	h.Machine = m
	h.cache = cache
	h.envScores = nil
	h.lineScores = nil
	h.prodScores = nil
	return nil
}

// ---- Level detectors (ChooseAlgorithm of Algorithm 1) ----
//
// Each level carries a different data shape, so a different detector
// family fits (§3): robust point scoring for the high-resolution phase
// series, a multivariate density model for the high-dimensional job
// vectors, a drift-following tracker for the environment, robust
// scoring for the short line series, and a cross-machine cube
// comparison at the production level. All scores are normalised to
// robust z-like scales so thresholds compare across levels.

// phaseLevelScores runs the level-1 detector: a profile-similarity
// scorer exploiting the repetitive job cycle. Every job traverses the
// same phase schedule, so position t within the job cycle has a
// cross-job profile (median/MAD); the score of a sample is its robust
// deviation from its position's profile. Temperature channels are
// first referenced to the job's nozzle setpoint (a known setup
// parameter), so per-job setpoint variation does not blur the profile
// — exactly the kind of context variable the paper says production
// levels contribute.
//
// The profile is most of a cold report's cost, so the sensors are
// scored concurrently (parallel.Map, bounded by GOMAXPROCS), each with
// its own buffers; see sensorProfileScores.
func (h *Hierarchy) phaseLevelScores() (map[string][]float64, error) {
	if h.phaseScores != nil {
		return h.phaseScores, nil
	}
	if h.NaivePhase {
		stream, err := h.Machine.PhaseStream()
		if err != nil {
			return nil, err
		}
		out := make(map[string][]float64, len(stream.Dims))
		for _, dim := range stream.Dims {
			z := stats.RobustZScores(dim.Values)
			scores := make([]float64, len(z))
			for i, v := range z {
				scores[i] = math.Abs(v)
			}
			out[dim.Name] = scores
		}
		h.phaseScores = out
		return out, nil
	}
	streamLen := 0 // every phase recording of every job, end to end
	for _, job := range h.Machine.Jobs {
		for _, ph := range job.Phases {
			streamLen += ph.Sensors.Len()
		}
	}
	// sensorProfileScores cannot fail, so neither can the Map.
	perSensor, _ := parallel.Map(len(plant.SensorNames), 0, func(k int) ([]float64, error) {
		return h.sensorProfileScores(plant.SensorNames[k], streamLen), nil
	})
	out := make(map[string][]float64, len(plant.SensorNames))
	n := len(perSensor[0])
	for k, name := range plant.SensorNames {
		if len(perSensor[k]) != n {
			// The aligned-stream invariant PhaseStream enforces.
			return nil, fmt.Errorf("%w: dim %q has %d samples, want %d", timeseries.ErrMismatch, name, len(perSensor[k]), n)
		}
		out[name] = perSensor[k]
	}
	h.phaseScores = out
	return out, nil
}

// sensorProfileScores scores one sensor's level-1 stream against the
// job-cycle profile. The returned slice is first the stream itself,
// gathered from the job phases: each profile column (samples pos,
// pos+perJob, … — one per job) is copied out, referenced to its job's
// setpoint on the way for the temperature channels, and its scores
// then overwrite the samples it was read from.
func (h *Hierarchy) sensorProfileScores(name string, streamLen int) []float64 {
	jobs := h.Machine.Jobs
	scores := make([]float64, 0, streamLen)
	for _, job := range jobs {
		for _, ph := range job.Phases {
			for _, dim := range ph.Sensors.Dims {
				if dim.Name == name {
					scores = append(scores, dim.Values...)
				}
			}
		}
	}
	n := len(scores)
	setpoint := name == "temp-a" || name == "temp-b"
	col := make([]float64, 0, len(jobs))
	scratch := make([]float64, len(jobs))
	for pos := 0; pos < h.perJob && pos < n; pos++ {
		col = col[:0]
		for i, r := pos, 0; i < n; i, r = i+h.perJob, r+1 {
			v := scores[i]
			if setpoint {
				// Sample i sits in job i/perJob = r; a stream longer
				// than the jobs' count charges the overflow to the last.
				v -= jobs[min(r, len(jobs)-1)].Setup[2]
			}
			col = append(col, v)
		}
		med, mad := stats.MedianMAD(col, scratch)
		// Floor the spread: with few jobs the MAD of a quiet
		// position underestimates the sensor noise.
		if stats.DegenerateMAD(mad) || mad < 0.3 {
			mad = 0.3
		}
		for r, v := range col {
			d := v - med
			if d < 0 {
				d = -d
			}
			scores[pos+r*h.perJob] = d / mad
		}
	}
	return scores
}

// jobLevelScores runs the level-2 detector: per-column robust z over
// the setup+CAQ vectors, taking each job's worst column. The
// column-wise view keeps a single degraded quality metric visible even
// when ten healthy columns would wash it out of a joint density — the
// high-dimensional regime §5 discusses.
func (h *Hierarchy) jobLevelScores() ([]float64, error) {
	if h.jobScores != nil {
		return h.jobScores, nil
	}
	rows := h.Machine.JobVectors()
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: machine %s has no job vectors", h.Machine.ID)
	}
	dims := len(rows[0])
	out := make([]float64, len(rows))
	col := make([]float64, len(rows))
	for d := 0; d < dims; d++ {
		for i, r := range rows {
			col[i] = r[d]
		}
		z := robustStandardize(col)
		for i := range out {
			if z[i] > out[i] {
				out[i] = z[i]
			}
		}
	}
	h.jobScores = out
	return out, nil
}

// envLevelScores runs the level-3 detector: an EWMA drift tracker over
// the room-temperature series, computed once per plant via the cache.
func (h *Hierarchy) envLevelScores() ([]float64, error) {
	if h.envScores != nil {
		return h.envScores, nil
	}
	out, err := h.cache.EnvScores()
	if err != nil {
		return nil, err
	}
	h.envScores = out
	return out, nil
}

// lineLevelScores runs the level-4 detector: robust z over the per-job
// aggregate series of the machine, shared via the plant cache so
// sibling-support lookups reuse it.
func (h *Hierarchy) lineLevelScores() ([]float64, error) {
	if h.lineScores != nil {
		return h.lineScores, nil
	}
	out, err := h.cache.LineScores(h.Machine)
	if err != nil {
		return nil, err
	}
	h.lineScores = out
	return out, nil
}

// productionLevelScores runs the level-5 detector: the OLAP-cube
// series scorer across every machine of the plant, computed once per
// plant via the cache.
func (h *Hierarchy) productionLevelScores() ([]float64, int, error) {
	if h.prodScores != nil {
		return h.prodScores, h.prodIndex, nil
	}
	raw, idxByID, err := h.cache.ProductionScores()
	if err != nil {
		return nil, 0, fmt.Errorf("core: production-level detector: %w", err)
	}
	idx, ok := idxByID[h.Machine.ID]
	if !ok {
		return nil, 0, fmt.Errorf("core: machine %s not in production view", h.Machine.ID)
	}
	h.prodScores = raw
	h.prodIndex = idx
	return raw, idx, nil
}

// robustStandardize converts raw scores to |x−median|/MAD, falling
// back to standard deviation for MAD-degenerate inputs.
func robustStandardize(raw []float64) []float64 {
	med, mad := stats.MedianMAD(raw, nil)
	if stats.DegenerateMAD(mad) {
		_, sd := stats.MeanStd(raw)
		if sd == 0 {
			return make([]float64, len(raw))
		}
		mad = sd
	}
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = math.Abs(v-med) / mad
	}
	return out
}

// softSupport reports whether a soft sensor (predicting the target
// channel from its peers) confirms the measured value at sample idx —
// virtual redundancy for channels without a physical twin. The model
// is trained once per sensor on the machine's own stream.
func (h *Hierarchy) softSupport(sensor string, idx int, threshold float64) (bool, error) {
	if h.softStream == nil {
		stream, err := h.Machine.PhaseStream()
		if err != nil {
			return false, err
		}
		h.softStream = stream
		h.softModels = make(map[string]*softsensor.Model)
	}
	model, ok := h.softModels[sensor]
	if !ok {
		var err error
		model, err = softsensor.Fit(h.softStream, sensor, 1e-3)
		if err != nil {
			return false, err
		}
		h.softModels[sensor] = model
	}
	return model.Support(h.softStream, idx, threshold)
}

// Outlierness converts a robust z-like score into the paper's [0, 1]
// outlierness via a saturating map: 0.5 at the detection threshold,
// approaching 1 for extreme deviations.
func Outlierness(z, threshold float64) float64 {
	if z < 0 {
		z = 0
	}
	if math.IsInf(z, 1) {
		return 1 // the limit; Inf/(Inf+threshold) is NaN
	}
	return z / (z + threshold)
}
