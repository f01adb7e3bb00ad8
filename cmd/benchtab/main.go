// Command benchtab regenerates every table and figure of the paper
// from the implemented system and prints them as text tables.
//
// Usage:
//
//	benchtab -exp table1|fig1|fig2|fig3|alg1|ablation|flatvshier|all [-seed N] [-workers N]
//
// It prints tables only; each experiment's timing is a Go benchmark of
// the repository root (go test -bench . -run XXX).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, fig1, fig2, fig3, alg1, ablation, flatvshier, all")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "experiment fan-out width (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	experiments.Workers = *workers
	if err := run(*exp, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(exp string, seed int64) error {
	type job struct {
		id, title string
		fn        func(int64) (fmt.Stringer, error)
	}
	jobs := []job{
		{"table1", "Table 1 — Categorization of Literature on Outliers (with conformance AUC)",
			func(s int64) (fmt.Stringer, error) { return experiments.RunTable1(s) }},
		{"fig1", "Fig. 1 — Outlier types: detection AUC per point detector",
			func(s int64) (fmt.Stringer, error) { return experiments.RunFig1(s) }},
		{"fig2", "Fig. 2 — Hierarchy level census on the simulated plant",
			func(s int64) (fmt.Stringer, error) { return experiments.RunFig2(s) }},
		{"fig3", "Fig. 3 — Research fields of outlier detection (synthetic corpus)",
			func(s int64) (fmt.Stringer, error) { return experiments.RunFig3(s) }},
		{"alg1", "Algorithm 1 — global score / outlierness / support on the plant",
			func(s int64) (fmt.Stringer, error) { return experiments.RunAlg1(s) }},
		{"flatvshier", "E6 — flat single-level detection vs Algorithm 1",
			func(s int64) (fmt.Stringer, error) { return experiments.RunFlatVsHier(s) }},
		{"ablation", "Ablations — support normalisation, down pass, detector choice",
			func(s int64) (fmt.Stringer, error) { return experiments.RunAblation(s) }},
	}
	matched := false
	for _, j := range jobs {
		if exp != "all" && exp != j.id {
			continue
		}
		matched = true
		res, err := j.fn(seed)
		if err != nil {
			return fmt.Errorf("%s: %w", j.id, err)
		}
		fmt.Printf("== %s ==\n%s\n", j.title, res)
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
