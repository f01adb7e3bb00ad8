// Command hodctl drives outlier detection through the public hod SDK:
// a single detection technique over CSV data, the full hierarchical
// algorithm (Algorithm 1) on a simulated plant, or a running hodserve
// fleet over its v1 HTTP API.
//
// Usage:
//
//	hodctl detect  -detector ar -csv data.csv [-column 1] [-top 10]
//	hodctl hier    [-seed N] [-machine id] [-level 1..5]
//	hodctl summary [-seed N] [-machine id] [-json]
//	hodctl replay  -addr http://host:8080 -plant id -sensors sensors.csv
//	hodctl report  -addr http://host:8080 -plant id [-level L] [-top K]
//	hodctl alerts  -addr http://host:8080 -plant id [-limit N]
//	hodctl watch   -addr http://host:8080 [-plants id,...] [-kinds alert,cube_delta,stats] [-key K]
//	hodctl cube    -addr http://host:8080 -plant id [-op slice|rollup|members|drilldown]
//	hodctl backup  -addr http://host:8080 -plant id -out plant.bak
//	hodctl restore -addr http://host:8080 -plant id -in plant.bak
//	hodctl soak    [-config scenario.json] [-short] [-runs 2] [-json]
//	hodctl cluster status|join|drain|fail|rebalance -addr http://router:8080
//	hodctl list
//
// Exit codes follow the usual convention: 0 on success (including
// -h/-help on any subcommand), 1 on a failed operation, 2 on a
// command-line mistake (unknown subcommand, bad flag, missing required
// flag) — always with the subcommand's usage on stderr.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/plant"
	"repro/pkg/hod"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches one subcommand and maps its error onto the exit code
// contract; kept separate from main so tests can drive the whole CLI
// in-process.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "detect":
		err = cmdDetect(args[1:])
	case "hier":
		err = cmdHier(args[1:])
	case "summary":
		err = cmdSummary(args[1:])
	case "replay":
		err = cmdReplay(args[1:])
	case "report":
		err = cmdReport(args[1:])
	case "alerts":
		err = cmdAlerts(args[1:])
	case "cube":
		err = cmdCube(args[1:])
	case "backup":
		err = cmdBackup(args[1:])
	case "restore":
		err = cmdRestore(args[1:])
	case "watch":
		err = cmdWatch(args[1:])
	case "soak":
		err = cmdSoak(args[1:])
	case "cluster":
		err = cmdCluster(args[1:])
	case "list":
		err = cmdList()
	default:
		fmt.Fprintf(flagOut, "hodctl: unknown command %q\n", args[0])
		usage()
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case isUsageError(err):
		fmt.Fprintln(flagOut, "hodctl:", err)
		return 2
	default:
		fmt.Fprintln(os.Stderr, "hodctl:", err)
		return 1
	}
}

// flagOut receives usage text and command-line diagnostics. Tests swap
// in a buffer to audit what each subcommand prints.
var flagOut io.Writer = os.Stderr

// usageError marks a command-line mistake (missing or inconsistent
// flags); run prints it and exits 2 instead of the operational exit 1.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return usageError{fmt.Sprintf(format, args...)}
}

func isUsageError(err error) bool {
	var ue usageError
	return errors.As(err, &ue)
}

// newFlagSet builds a subcommand flag set that reports bad flags back
// to run (exit 2) instead of exiting mid-parse, printing diagnostics
// and -h usage to flagOut.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(flagOut)
	return fs
}

// parseErr classifies a flag.Parse failure: -h/-help passes through
// (exit 0), anything else is a usage error — the flag package already
// printed the problem and the defaults to flagOut.
func parseErr(err error) error {
	if errors.Is(err, flag.ErrHelp) {
		return err
	}
	return usageError{err.Error()}
}

func usage() {
	fmt.Fprintln(flagOut, `usage:
  hodctl detect  -detector NAME -csv FILE [-column N] [-top K] [-fit-csv FILE]
  hodctl hier    [-seed N] [-machine ID] [-level 1..5]
  hodctl summary [-seed N] [-machine ID] [-json]
  hodctl replay  -addr URL -plant ID -sensors FILE [-jobs FILE] [-env FILE] [-batch N] [-register]
  hodctl report  -addr URL -plant ID [-level L] [-top K] [-machine ID] [-json]
  hodctl alerts  -addr URL -plant ID [-limit N] [-json]
  hodctl watch   -addr URL [-plants ID,...] [-kinds alert,cube_delta,stats] [-key K] [-n N] [-json]
  hodctl cube    -addr URL -plant ID [-op slice|rollup|members|drilldown] [-where dim=member,...] [-keep dims] [-dim D] [-json]
  hodctl backup  -addr URL -plant ID -out FILE
  hodctl restore -addr URL -plant ID -in FILE
  hodctl soak    [-config FILE] [-name S] [-short] [-runs N] [-dir DIR] [-seed N] [-json] [-list] [-v]
  hodctl cluster status|join|drain|fail|rebalance -addr URL [-node ID] [-node-addr URL] [-json]
  hodctl list`)
}

func cmdList() error {
	for _, info := range hod.Techniques() {
		sup := ""
		if info.Supervised {
			sup = " (supervised)"
		}
		caps := capString(info)
		fmt.Printf("%-22s %-4s %s %s%s\n", info.Name, info.Family, caps, info.Title, sup)
	}
	return nil
}

// capString renders the capability ✓ columns in Table 1 order, the way
// the registry prints them.
func capString(info hod.TechniqueInfo) string {
	mark := func(b bool) byte {
		if b {
			return 'x'
		}
		return '-'
	}
	return string([]byte{mark(info.Points), mark(info.Subsequences), mark(info.Series)})
}

func cmdDetect(args []string) error {
	fs := newFlagSet("detect")
	name := fs.String("detector", "ar", "detector name (see hodctl list)")
	csvPath := fs.String("csv", "", "CSV file with the series to score")
	fitPath := fs.String("fit-csv", "", "optional CSV with clean reference data for fitting")
	column := fs.Int("column", 0, "zero-based value column")
	top := fs.Int("top", 10, "print the K highest-scoring points")
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}
	if *csvPath == "" {
		return usagef("detect: -csv is required")
	}
	tech, err := hod.NewTechnique(*name)
	if err != nil {
		return err
	}
	values, err := readColumn(*csvPath, *column)
	if err != nil {
		return err
	}
	ref := values
	if *fitPath != "" {
		ref, err = readColumn(*fitPath, *column)
		if err != nil {
			return err
		}
	}
	if err := tech.Fit(ref); err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	scores, err := tech.ScorePoints(values)
	if err != nil {
		return err
	}
	type hit struct {
		idx   int
		score float64
	}
	hits := make([]hit, len(scores))
	for i, s := range scores {
		hits[i] = hit{i, s}
	}
	sort.Slice(hits, func(a, b int) bool { return hits[a].score > hits[b].score })
	if *top > len(hits) {
		*top = len(hits)
	}
	fmt.Printf("%-8s %-12s %-12s\n", "index", "value", "score")
	for _, h := range hits[:*top] {
		fmt.Printf("%-8d %-12.4f %-12.4f\n", h.idx, values[h.idx], h.score)
	}
	return nil
}

func cmdHier(args []string) error {
	fs := newFlagSet("hier")
	seed := fs.Int64("seed", 1, "plant simulation seed")
	machine := fs.String("machine", "", "machine ID (default: first)")
	level := fs.Int("level", 1, "start level 1..5")
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}
	p, err := hod.Simulate(hod.SimConfig{Seed: *seed, FaultRate: 0.25, MeasurementErrorRate: 0.25, JobsPerMachine: 12})
	if err != nil {
		return err
	}
	engine, err := hod.NewEngine(p, hod.WithMaxOutliers(20))
	if err != nil {
		return err
	}
	id := *machine
	if id == "" {
		id = p.Machines()[0]
	}
	rep, err := engine.Detect(context.Background(), id, hod.Level(*level))
	if err != nil {
		return err
	}
	fmt.Printf("machine %s, start level %s: %d outliers, %d warnings\n",
		id, rep.StartLevel, len(rep.Outliers), len(rep.Warnings))
	fmt.Printf("%-10s %-8s %-6s %-6s %-8s %-12s %-8s\n",
		"sensor", "index", "job", "gscore", "support", "outlierness", "seen-at")
	for _, o := range rep.Outliers {
		fmt.Printf("%-10s %-8d %-6d %-6d %-8.2f %-12.3f %v\n",
			o.Sensor, o.Index, o.JobIndex, o.GlobalScore, o.Support, o.Outlierness, o.SeenAt)
	}
	for _, w := range rep.Warnings {
		fmt.Printf("WARNING: %s\n", w.Reason)
	}
	return nil
}

func cmdSummary(args []string) error {
	fs := newFlagSet("summary")
	seed := fs.Int64("seed", 1, "plant simulation seed")
	machine := fs.String("machine", "", "machine ID (default: first)")
	asJSON := fs.Bool("json", false, "emit JSON instead of a table")
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}
	p, err := plant.Simulate(plant.Config{Seed: *seed, FaultRate: 0.25, MeasurementErrorRate: 0.25, JobsPerMachine: 12})
	if err != nil {
		return err
	}
	id := *machine
	if id == "" {
		id = p.Machines()[0].ID
	}
	h, err := core.NewHierarchy(p, id)
	if err != nil {
		return err
	}
	rep, err := core.FindHierarchicalOutliers(h, core.LevelPhase, core.Options{MaxOutliers: 512})
	if err != nil {
		return err
	}
	sum := core.Summarize(h, rep)
	if *asJSON {
		return sum.WriteJSON(os.Stdout)
	}
	fmt.Print(sum)
	return nil
}

func readColumn(path string, column int) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	var out []float64
	line := 0
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		line++
		if column >= len(rec) {
			return nil, fmt.Errorf("%s:%d: column %d out of range", path, line, column)
		}
		v, err := strconv.ParseFloat(rec[column], 64)
		if err != nil {
			if line == 1 {
				continue // header row
			}
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no numeric data in column %d", path, column)
	}
	return out, nil
}
