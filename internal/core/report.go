package core

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/pkg/hod/wire"
)

// RankLess is the paper's combined-importance order: global score
// first (the more levels confirm, the more obvious), then support
// (corroborated findings over lone voices), then outlierness. Exported
// so fleet-level consumers can rank machine-tagged outlier lists with
// exactly the same comparator.
func RankLess(a, b Outlier) bool {
	if a.GlobalScore != b.GlobalScore {
		return a.GlobalScore > b.GlobalScore
	}
	if a.Support != b.Support {
		return a.Support > b.Support
	}
	return a.Outlierness > b.Outlierness
}

// Rank orders outliers by RankLess. It returns a new slice; the input
// is untouched.
func Rank(outliers []Outlier) []Outlier {
	out := append([]Outlier(nil), outliers...)
	sort.SliceStable(out, func(i, j int) bool { return RankLess(out[i], out[j]) })
	return out
}

// MachineOutlier is one entry of a fleet-wide ranking: an outlier and
// the machine whose report found it.
type MachineOutlier struct {
	Machine string
	Outlier Outlier
}

// RankFleet ranks per-machine reports fleet-wide; reports[i] belongs to
// machines[i]. Every outlier is tagged with its machine and the list is
// stable-sorted by RankLess, so equal triples keep machine order and,
// within a machine, report order. The fleet's total is len(ranked).
// The warnings come back tagged as well, in machine order.
func RankFleet(machines []string, reports []*Report) (ranked []MachineOutlier, warnings []wire.FleetWarning) {
	for i, rep := range reports {
		for _, o := range rep.Outliers {
			ranked = append(ranked, MachineOutlier{Machine: machines[i], Outlier: o})
		}
		for _, w := range rep.Warnings {
			warnings = append(warnings, wire.FleetWarning{Machine: machines[i], Reason: w.Reason})
		}
	}
	slices.SortStableFunc(ranked, func(a, b MachineOutlier) int {
		switch {
		case RankLess(a.Outlier, b.Outlier):
			return -1
		case RankLess(b.Outlier, a.Outlier):
			return 1
		}
		return 0
	})
	return ranked, warnings
}

// Classify applies the decision rule evaluated in EXPERIMENTS.md: an
// outlier with corroboration (support ≥ 0.5) that propagates upward
// (global score ≥ 2) is a process fault; an uncorroborated one is a
// suspected measurement error; everything else stays an unconfirmed
// observation.
type Classification string

// The three outcome classes of Classify.
const (
	ClassFault       Classification = "process-fault"
	ClassMeasurement Classification = "measurement-error"
	ClassUnconfirmed Classification = "unconfirmed"
)

// Classify labels one outlier.
func Classify(o Outlier) Classification {
	switch {
	case o.Support >= 0.5 && o.GlobalScore >= 2:
		return ClassFault
	case o.Support < 0.5 && o.Outlierness >= 0.5:
		return ClassMeasurement
	default:
		return ClassUnconfirmed
	}
}

// Summary aggregates a report per job for operator consumption.
type Summary struct {
	Machine  string       `json:"machine"`
	Start    string       `json:"start_level"`
	Jobs     []JobSummary `json:"jobs"`
	Warnings []string     `json:"warnings,omitempty"`
}

// JobSummary is the per-job digest.
type JobSummary struct {
	JobIndex   int            `json:"job"`
	Outliers   int            `json:"outliers"`
	MaxGlobal  int            `json:"max_global_score"`
	MaxSupport float64        `json:"max_support"`
	MaxOutlier float64        `json:"max_outlierness"`
	Class      Classification `json:"class"`
	SeenLevels []string       `json:"seen_levels"`
}

// Summarize digests a report into one row per affected job.
func Summarize(h *Hierarchy, rep *Report) *Summary {
	s := &Summary{Machine: h.Machine.ID, Start: rep.StartLevel.String()}
	byJob := map[int][]Outlier{}
	for _, o := range rep.Outliers {
		byJob[o.JobIndex] = append(byJob[o.JobIndex], o)
	}
	jobIdxs := make([]int, 0, len(byJob))
	for ji := range byJob {
		jobIdxs = append(jobIdxs, ji)
	}
	sort.Ints(jobIdxs)
	for _, ji := range jobIdxs {
		outliers := Rank(byJob[ji])
		top := outliers[0]
		levels := map[Level]bool{}
		for _, o := range outliers {
			for _, lv := range o.SeenAt {
				levels[lv] = true
			}
		}
		var seen []string
		for _, lv := range Levels() {
			if levels[lv] {
				seen = append(seen, lv.String())
			}
		}
		js := JobSummary{
			JobIndex:   ji,
			Outliers:   len(outliers),
			Class:      Classify(top),
			SeenLevels: seen,
		}
		for _, o := range outliers {
			if o.GlobalScore > js.MaxGlobal {
				js.MaxGlobal = o.GlobalScore
			}
			if o.Support > js.MaxSupport {
				js.MaxSupport = o.Support
			}
			if o.Outlierness > js.MaxOutlier {
				js.MaxOutlier = o.Outlierness
			}
		}
		s.Jobs = append(s.Jobs, js)
	}
	for _, w := range rep.Warnings {
		s.Warnings = append(s.Warnings, w.Reason)
	}
	return s
}

// WriteJSON emits the summary as indented JSON.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// String renders the summary as a text table.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine %s (start level %s)\n", s.Machine, s.Start)
	fmt.Fprintf(&b, "%-5s %-9s %-7s %-8s %-12s %-18s %s\n",
		"job", "outliers", "global", "support", "outlierness", "class", "seen")
	for _, j := range s.Jobs {
		fmt.Fprintf(&b, "%-5d %-9d %-7d %-8.2f %-12.3f %-18s %s\n",
			j.JobIndex, j.Outliers, j.MaxGlobal, j.MaxSupport, j.MaxOutlier, j.Class,
			strings.Join(j.SeenLevels, ","))
	}
	for _, w := range s.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	return b.String()
}
