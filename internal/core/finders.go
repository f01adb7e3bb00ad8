package core

import (
	"slices"

	"repro/internal/plant"
	"repro/internal/stats"
)

// findPhaseOutliers is the start-level = phase instantiation of
// Algorithm 1: per-sensor point outliers, support from the redundant
// sensor group, global score from the upward pass.
func findPhaseOutliers(h *Hierarchy, opts Options, keep *topK) error {
	scores, err := h.phaseLevelScores()
	if err != nil {
		return err
	}
	// Walk sensors in sorted order so the outlier list is deterministic
	// — map iteration order must not leak into reports.
	sensors := make([]string, 0, len(scores))
	for sensor := range scores {
		sensors = append(sensors, sensor)
	}
	slices.Sort(sensors)
	// No level lies below the phase level: the global score has no down
	// pass, hence no warnings, and depends on the job alone. It is
	// computed on a job's first finding and reused for the rest.
	confs := make([]confirmations, len(h.Machine.Jobs))
	known := make([]bool, len(h.Machine.Jobs))
	for _, sensor := range sensors {
		ss := scores[sensor]
		for i, z := range ss {
			if z < opts.PhaseThreshold {
				continue
			}
			jobIdx, err := h.Machine.JobIndexOfSample(i)
			if err != nil {
				return err
			}
			if !known[jobIdx] {
				confs[jobIdx], _, err = globalScore(h, LevelPhase, jobIdx, sensor, opts)
				if err != nil {
					return err
				}
				known[jobIdx] = true
			}
			keep.add(&Outlier{
				Level:       LevelPhase,
				Sensor:      sensor,
				Index:       i,
				JobIndex:    jobIdx,
				GlobalScore: confs[jobIdx].score(),
				Outlierness: Outlierness(z, opts.PhaseThreshold),
				Support:     phaseSupport(h, scores, sensor, i, opts),
			}, confs[jobIdx])
		}
	}
	return nil
}

// phaseSupport computes the paper's support value: for each
// corresponding sensor, support++ when it confirms the outlier at the
// same time (within a small tolerance window); then support is divided
// by the number of corresponding sensors (unless the raw-support
// ablation is on). Sensors without a physical twin can fall back to a
// soft sensor (virtual redundancy) when the option is enabled.
func phaseSupport(h *Hierarchy, scores map[string][]float64, sensor string, idx int, opts Options) float64 {
	corresponding := plant.Correspondence[sensor]
	if len(corresponding) == 0 {
		if opts.SoftSensorSupport {
			if ok, err := h.softSupport(sensor, idx, opts.PhaseThreshold); err == nil && ok {
				return 1
			}
		}
		return 0
	}
	const tolerance = 3 // samples: redundant sensors may lag slightly
	support := 0.0
	for _, other := range corresponding {
		ss, ok := scores[other]
		if !ok {
			continue
		}
		lo, hi := idx-tolerance, idx+tolerance
		if lo < 0 {
			lo = 0
		}
		if hi >= len(ss) {
			hi = len(ss) - 1
		}
		for i := lo; i <= hi; i++ {
			if ss[i] >= opts.PhaseThreshold {
				support++
				break
			}
		}
	}
	if opts.RawSupport {
		return support
	}
	return support / float64(len(corresponding))
}

// findJobOutliers starts Algorithm 1 at the job level.
func findJobOutliers(h *Hierarchy, opts Options, keep *topK, rep *Report) error {
	scores, err := h.jobLevelScores()
	if err != nil {
		return err
	}
	for jobIdx, z := range scores {
		if z < opts.JobThreshold {
			continue
		}
		conf, warns, err := globalScore(h, LevelJob, jobIdx, "", opts)
		if err != nil {
			return err
		}
		keep.add(&Outlier{
			Level:       LevelJob,
			Index:       jobIdx,
			JobIndex:    jobIdx,
			GlobalScore: conf.score(),
			Outlierness: Outlierness(z, opts.JobThreshold),
			// Job vectors have no redundant counterpart in this plant;
			// support stays 0 at this level.
		}, conf)
		rep.Warnings = append(rep.Warnings, warns...)
	}
	return nil
}

// findEnvOutliers starts Algorithm 1 at the environment level.
func findEnvOutliers(h *Hierarchy, opts Options, keep *topK, rep *Report) error {
	scores, err := h.envLevelScores()
	if err != nil {
		return err
	}
	for i, z := range scores {
		if z < opts.EnvThreshold {
			continue
		}
		jobIdx, err := h.Machine.JobIndexOfSample(i)
		if err != nil {
			return err
		}
		conf, warns, err := globalScore(h, LevelEnvironment, jobIdx, "room-temp", opts)
		if err != nil {
			return err
		}
		keep.add(&Outlier{
			Level:       LevelEnvironment,
			Sensor:      "room-temp",
			Index:       i,
			JobIndex:    jobIdx,
			GlobalScore: conf.score(),
			Outlierness: Outlierness(z, opts.EnvThreshold),
			Support:     envSupport(h, i, opts),
		}, conf)
		rep.Warnings = append(rep.Warnings, warns...)
	}
	return nil
}

// envSupport checks the humidity channel for a concurrent disturbance
// — the environment level's corresponding sensor (§4's example is the
// room temperature supporting another measurement; here the climate
// channels support each other).
func envSupport(h *Hierarchy, idx int, opts Options) float64 {
	hum := h.Plant.Environment.Dim("humidity")
	if hum == nil {
		return 0
	}
	// One-off tracker run; environment support queries are rare.
	tr := stats.NewEWMATracker(0.05)
	for i, v := range hum.Values {
		z := tr.Add(v)
		if i == idx {
			if z >= opts.EnvThreshold {
				return 1
			}
			return 0
		}
	}
	return 0
}

// findLineOutliers starts Algorithm 1 at the production-line level.
func findLineOutliers(h *Hierarchy, opts Options, keep *topK, rep *Report) error {
	scores, err := h.lineLevelScores()
	if err != nil {
		return err
	}
	for jobIdx, z := range scores {
		if z < opts.LineThreshold {
			continue
		}
		conf, warns, err := globalScore(h, LevelProductionLine, jobIdx, "", opts)
		if err != nil {
			return err
		}
		keep.add(&Outlier{
			Level:       LevelProductionLine,
			Index:       jobIdx,
			JobIndex:    jobIdx,
			GlobalScore: conf.score(),
			Outlierness: Outlierness(z, opts.LineThreshold),
			Support:     lineSupport(h, jobIdx, opts),
		}, conf)
		rep.Warnings = append(rep.Warnings, warns...)
	}
	return nil
}

// lineSupport checks sibling machines on the same line for a
// concurrent job-level deviation: a line-wide disturbance (bad
// material batch) shows on the corresponding machines.
func lineSupport(h *Hierarchy, jobIdx int, opts Options) float64 {
	var line *plant.Line
	for _, l := range h.Plant.Lines {
		for _, m := range l.Machines {
			if m.ID == h.Machine.ID {
				line = l
			}
		}
	}
	if line == nil || len(line.Machines) < 2 {
		return 0
	}
	confirming, siblings := 0, 0
	for _, m := range line.Machines {
		if m.ID == h.Machine.ID {
			continue
		}
		siblings++
		// Siblings share this hierarchy's plant cache, so their line
		// scores are computed once per machine, not once per lookup.
		sib, err := NewHierarchyWithCache(h.Plant, m.ID, h.cache)
		if err != nil {
			continue
		}
		ok, err := detectedAt(sib, LevelProductionLine, jobIdx, opts)
		if err == nil && ok {
			confirming++
		}
	}
	if siblings == 0 {
		return 0
	}
	if opts.RawSupport {
		return float64(confirming)
	}
	return float64(confirming) / float64(siblings)
}

// findProductionOutliers starts Algorithm 1 at the production level:
// is this machine an outlier among all machines?
func findProductionOutliers(h *Hierarchy, opts Options, keep *topK, rep *Report) error {
	scores, idx, err := h.productionLevelScores()
	if err != nil {
		return err
	}
	z := scores[idx]
	if z < opts.ProductionThreshold {
		return nil
	}
	// The production level has one finding per machine; its "index" is
	// the machine's position. The downward pass covers every job: the
	// warning fires only if no job shows lower-level trouble.
	bestJob, found := 0, false
	for jobIdx := range h.Machine.Jobs {
		ok, err := detectedAt(h, LevelProductionLine, jobIdx, opts)
		if err != nil {
			return err
		}
		if ok {
			bestJob, found = jobIdx, true
			break
		}
	}
	jobIdx := bestJob
	if !found {
		jobIdx = 0
	}
	conf, warns, err := globalScore(h, LevelProduction, jobIdx, "", opts)
	if err != nil {
		return err
	}
	keep.add(&Outlier{
		Level:       LevelProduction,
		Index:       idx,
		JobIndex:    jobIdx,
		GlobalScore: conf.score(),
		Outlierness: Outlierness(z, opts.ProductionThreshold),
		Support:     0,
	}, conf)
	rep.Warnings = append(rep.Warnings, warns...)
	return nil
}
