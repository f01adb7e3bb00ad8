package core

import (
	"cmp"
	"fmt"
	"slices"
)

// Options tunes Algorithm 1.
type Options struct {
	// Thresholds per level, in robust-z-like units. An outlier is
	// "detected in a level" when that level's score reaches the
	// threshold. Zero values take the defaults below.
	PhaseThreshold      float64
	JobThreshold        float64
	EnvThreshold        float64
	LineThreshold       float64
	ProductionThreshold float64
	// MaxOutliers bounds the reported outlier list (default 64).
	MaxOutliers int
	// DisableDownPass turns off the downward recursion of Algorithm 1
	// (exposed for the ablation benchmark).
	DisableDownPass bool
	// RawSupport reports the support count without dividing by the
	// number of corresponding sensors (ablation of the paper's
	// "support /= Number of Corresponding Sensors" step).
	RawSupport bool
	// SoftSensorSupport enables virtual redundancy (§5 soft sensor
	// modelling): sensors without a physical twin get their support
	// from a soft sensor predicting them out of the peer channels.
	SoftSensorSupport bool
}

func (o Options) withDefaults() Options {
	if o.PhaseThreshold <= 0 {
		o.PhaseThreshold = 6
	}
	if o.JobThreshold <= 0 {
		o.JobThreshold = 3.5
	}
	if o.EnvThreshold <= 0 {
		o.EnvThreshold = 6
	}
	if o.LineThreshold <= 0 {
		o.LineThreshold = 3
	}
	if o.ProductionThreshold <= 0 {
		o.ProductionThreshold = 2.5
	}
	if o.MaxOutliers <= 0 {
		o.MaxOutliers = 64
	}
	return o
}

// Outlier is the algorithm's result record: the paper's triple plus
// the location of the finding. The JSON form (levels as 1..5) is what
// the serving layer returns.
type Outlier struct {
	Level       Level   `json:"level"`
	Sensor      string  `json:"sensor,omitempty"` // phase level only
	Index       int     `json:"index"`            // position on the start level's axis
	JobIndex    int     `json:"job"`              // the job the finding falls into
	GlobalScore int     `json:"global_score"`
	Outlierness float64 `json:"outlierness"`
	Support     float64 `json:"support"`
	// SeenAt lists every level that confirmed the outlier during the
	// global-score recursion (includes the start level).
	SeenAt []Level `json:"seen_at"`
}

// Warning is a measurement-error warning from the downward pass: an
// outlier visible at Level but absent at Below.
type Warning struct {
	Level    Level  `json:"level"`
	Below    Level  `json:"below"`
	JobIndex int    `json:"job"`
	Sensor   string `json:"sensor,omitempty"`
	Reason   string `json:"reason"`
}

// Report is the output of FindHierarchicalOutliers.
type Report struct {
	StartLevel Level
	Outliers   []Outlier
	Warnings   []Warning
}

// FindHierarchicalOutliers is Algorithm 1. It chooses the
// level-appropriate detection algorithm, computes the outlier list at
// the start level, derives the support from corresponding sensors, and
// computes the global score by recursing up (outlier confirmed above ⇒
// score++) and down (outlier absent below ⇒ measurement-error
// warning). The outlier list is the opts.MaxOutliers strongest
// findings, strongest first, in a slice of exactly that many.
func FindHierarchicalOutliers(h *Hierarchy, startLevel Level, opts Options) (*Report, error) {
	if !startLevel.Valid() {
		return nil, fmt.Errorf("core: invalid start level %d", int(startLevel))
	}
	opts = opts.withDefaults()
	rep := &Report{StartLevel: startLevel}
	keep := topK{k: opts.MaxOutliers}
	if err := findOutliers(h, startLevel, opts, &keep, rep); err != nil {
		return nil, err
	}
	rep.Outliers = keep.ranked()
	return rep, nil
}

// findOutliers runs the start level's finder: every finding goes to
// keep, every measurement-error warning to rep.
func findOutliers(h *Hierarchy, startLevel Level, opts Options, keep *topK, rep *Report) error {
	switch startLevel {
	case LevelPhase:
		return findPhaseOutliers(h, opts, keep)
	case LevelJob:
		return findJobOutliers(h, opts, keep, rep)
	case LevelEnvironment:
		return findEnvOutliers(h, opts, keep, rep)
	case LevelProductionLine:
		return findLineOutliers(h, opts, keep, rep)
	default:
		return findProductionOutliers(h, opts, keep, rep)
	}
}

// candidate is one finding on its way into the ranked list: the
// outlier without its SeenAt (built only for the findings that stay),
// the confirmations SeenAt is built from, and the discovery number.
type candidate struct {
	Outlier
	conf confirmations
	seq  int
}

// rank is the report order on the outliers themselves: global score
// descending, outlierness descending, start-level position ascending;
// negative when a comes first. cmp.Compare places a NaN outlierness
// below every number instead of leaving it unordered.
func rank(a, b *Outlier) int {
	if c := cmp.Compare(b.GlobalScore, a.GlobalScore); c != 0 {
		return c
	}
	if c := cmp.Compare(b.Outlierness, a.Outlierness); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// before completes rank with the discovery order, which is what a
// stable sort of the finders' output by rank yields. Discovery numbers
// are unique, so the order is total.
func (a *candidate) before(b *candidate) bool {
	if c := rank(&a.Outlier, &b.Outlier); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// topK keeps the k first candidates under candidate.before out of any
// number added, in O(k) memory: a binary heap with the last-ranked kept
// candidate at the root, so a candidate that does not make the list
// costs one comparison.
type topK struct {
	k     int
	heap  []candidate
	added int // candidates so far; the next discovery number
}

func (t *topK) add(o *Outlier, conf confirmations) {
	seq := t.added
	t.added++
	h := t.heap
	if len(h) < t.k {
		h = append(h, candidate{*o, conf, seq})
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h[parent].before(&h[i]) {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
		t.heap = h
		return
	}
	// The newest candidate loses every tie to one already kept.
	if rank(o, &h[0].Outlier) >= 0 {
		return
	}
	h[0] = candidate{*o, conf, seq}
	for i := 0; ; {
		last := i
		if l := 2*i + 1; l < len(h) && h[last].before(&h[l]) {
			last = l
		}
		if r := 2*i + 2; r < len(h) && h[last].before(&h[r]) {
			last = r
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}

// ranked returns the kept outliers in report order, in a slice of their
// own: nothing the collector held stays reachable from it.
func (t *topK) ranked() []Outlier {
	if len(t.heap) == 0 {
		return nil
	}
	slices.SortFunc(t.heap, func(a, b candidate) int {
		if a.before(&b) {
			return -1
		}
		return 1
	})
	out := make([]Outlier, len(t.heap))
	for i := range t.heap {
		out[i] = t.heap[i].Outlier
		out[i].SeenAt = t.heap[i].conf.seenAt(out[i].Level)
	}
	return out
}

// detectedAt reports whether the given level confirms an outlier for
// the job at jobIdx (levels above phase resolve by job; production by
// machine).
func detectedAt(h *Hierarchy, level Level, jobIdx int, opts Options) (bool, error) {
	switch level {
	case LevelPhase:
		scores, err := h.phaseLevelScores()
		if err != nil {
			return false, err
		}
		lo := jobIdx * h.perJob
		for _, sensorScores := range scores {
			// Clamp per sensor: a short sensor stream must not truncate
			// the scan range of the sensors after it.
			hi := lo + h.perJob
			if hi > len(sensorScores) {
				hi = len(sensorScores)
			}
			for i := lo; i < hi; i++ {
				if sensorScores[i] >= opts.PhaseThreshold {
					return true, nil
				}
			}
		}
		return false, nil
	case LevelJob:
		scores, err := h.jobLevelScores()
		if err != nil {
			return false, err
		}
		if jobIdx < 0 || jobIdx >= len(scores) {
			return false, nil
		}
		return scores[jobIdx] >= opts.JobThreshold, nil
	case LevelEnvironment:
		scores, err := h.envLevelScores()
		if err != nil {
			return false, err
		}
		lo := jobIdx * h.perJob
		hi := lo + h.perJob
		if hi > len(scores) {
			hi = len(scores)
		}
		for i := lo; i < hi; i++ {
			if scores[i] >= opts.EnvThreshold {
				return true, nil
			}
		}
		return false, nil
	case LevelProductionLine:
		scores, err := h.lineLevelScores()
		if err != nil {
			return false, err
		}
		if jobIdx < 0 || jobIdx >= len(scores) {
			return false, nil
		}
		return scores[jobIdx] >= opts.LineThreshold, nil
	case LevelProduction:
		scores, idx, err := h.productionLevelScores()
		if err != nil {
			return false, err
		}
		return scores[idx] >= opts.ProductionThreshold, nil
	default:
		return false, fmt.Errorf("core: invalid level %d", int(level))
	}
}

// confirmations is the outcome of CalcGlobalScore: how many consecutive
// levels above and below the start level confirmed the outlier.
type confirmations struct{ up, down int }

// score is the paper's global score; the start level itself counts 1.
func (c confirmations) score() int { return 1 + c.up + c.down }

// seenAt lists the confirming levels in the order the passes visited
// them: the start level, then upward, then downward.
func (c confirmations) seenAt(start Level) []Level {
	seen := make([]Level, 0, c.score())
	seen = append(seen, start)
	for i := 1; i <= c.up; i++ {
		seen = append(seen, start+Level(i))
	}
	for i := 1; i <= c.down; i++ {
		seen = append(seen, start-Level(i))
	}
	return seen
}

// globalScore implements CalcGlobalScore of Algorithm 1: it counts the
// levels confirming the outlier, walking up from the start level, and
// runs the downward pass that emits measurement-error warnings.
func globalScore(h *Hierarchy, start Level, jobIdx int, sensor string, opts Options) (confirmations, []Warning, error) {
	var conf confirmations
	var warnings []Warning
	// Upward pass: CalcGlobalScore(level++, true). The recursion of
	// Algorithm 1 stops at the first level that does not confirm.
	for lv := start + 1; lv <= MaxLevel; lv++ {
		ok, err := detectedAt(h, lv, jobIdx, opts)
		if err != nil {
			return conf, nil, err
		}
		if !ok {
			break
		}
		conf.up++
	}
	// Downward pass: CalcGlobalScore(level--, false). If a lower level
	// shows no outlier while this level does, a measurement error must
	// be assumed (§4).
	if !opts.DisableDownPass {
		for lv := start - 1; lv >= MinLevel; lv-- {
			ok, err := detectedAt(h, lv, jobIdx, opts)
			if err != nil {
				return conf, nil, err
			}
			if !ok {
				warnings = append(warnings, Warning{
					Level:    start,
					Below:    lv,
					JobIndex: jobIdx,
					Sensor:   sensor,
					Reason: fmt.Sprintf("outlier at %s level not confirmed at %s level: possible wrong measurement",
						start, lv),
				})
				break
			}
			conf.down++
		}
	}
	return conf, warnings, nil
}
