// Command benchtab regenerates every table and figure of the paper
// from the implemented system and prints them as text tables.
//
// Usage:
//
//	benchtab -exp table1|fig1|fig2|fig3|alg1|ablation|flatvshier|all [-seed N] [-workers N] [-json FILE]
//
// With -json the per-experiment wall-clock timings are additionally
// written to FILE (conventionally BENCH_<tag>.json) so successive
// revisions can track the performance trajectory of the suite.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, fig1, fig2, fig3, alg1, ablation, flatvshier, all")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "experiment fan-out width (0 = GOMAXPROCS, 1 = sequential)")
	jsonPath := flag.String("json", "", "write per-experiment timings to this file (e.g. BENCH_baseline.json)")
	flag.Parse()

	experiments.Workers = *workers
	if err := run(*exp, *seed, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

// benchRecord is one timed experiment in the -json baseline.
type benchRecord struct {
	Experiment string  `json:"experiment"`
	Seconds    float64 `json:"seconds"`
}

// benchBaseline is the schema of the BENCH_*.json file.
type benchBaseline struct {
	GeneratedUnix int64         `json:"generated_unix"`
	Seed          int64         `json:"seed"`
	GoMaxProcs    int           `json:"gomaxprocs"`
	Workers       int           `json:"workers"`
	Records       []benchRecord `json:"records"`
}

func run(exp string, seed int64, jsonPath string) error {
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
	baseline := benchBaseline{
		GeneratedUnix: time.Now().Unix(),
		Seed:          seed,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Workers:       experiments.Workers,
	}
	matched := false
	for _, j := range jobs {
		if exp != "all" && exp != j.id {
			continue
		}
		matched = true
		began := time.Now()
		res, err := j.fn(seed)
		if err != nil {
			return fmt.Errorf("%s: %w", j.id, err)
		}
		baseline.Records = append(baseline.Records, benchRecord{
			Experiment: j.id,
			Seconds:    time.Since(began).Seconds(),
		})
		fmt.Printf("== %s ==\n%s\n", j.title, res)
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if jsonPath != "" {
		buf, err := json.MarshalIndent(baseline, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", jsonPath, err)
		}
	}
	return nil
}
