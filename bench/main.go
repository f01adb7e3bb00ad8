// Command bench is the repository's benchmark: four serving workloads
// against an in-process server behind a loopback listener, driven
// through pkg/hod.Client, with the layers measured from outside.
//
//	go run ./bench -workload all -seed 1            end-to-end metrics, one untraced pass each
//	go run ./bench -workload all -seed 1 -trace     + a traced pass: per-layer metrics, trace files
//	go run ./bench -workload live-mixed -repeat 5   spread of every metric against its bound
//
// The last line of standard output is one JSON object with the metrics
// of the (last) workload run — the contract BENCHMARK.json's driver
// reads. See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDirs is where a run writes: trace files into out, which survives
// when the user named it, and everything else — data dirs, replay logs —
// into scratch, which never does.
type outDirs struct{ out, scratch string }

func (d outDirs) tracePath(workload string) string {
	return filepath.Join(d.out, "trace-"+workload+".json")
}

// run is one pass over one workload.
type run struct {
	ctx  context.Context
	seed int64
	size sizing
	tr   *tracer // nil on the untraced pass
	dir  string  // scratch: data dirs and replay logs
	res  *result

	ingestBatch int // records per timed ingest request, set by the workload
}

// pass runs the workload once, traced or not. On the traced pass it
// also derives the span metrics and writes the trace file.
func pass(w workloadDef, seed int64, size sizing, dirs outDirs, traced bool) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	r := &run{ctx: ctx, seed: seed, size: size, dir: dirs.scratch, res: newResult(w.Name)}
	if traced {
		r.tr = newTracer(1 << 18)
	}
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if traced {
		r.spanMetrics(r.tr.spans, r.ingestBatch)
		if err := writeTrace(dirs.tracePath(w.Name), w.Name, r.tr.spans); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// measure produces the result of one workload: the untraced pass gives
// every metric that can be taken from outside; with traced set, a second
// pass with spans on adds the in-situ and replay metrics, and the ratio
// of the two passes' CPU per record is the cost of tracing itself.
func measure(w workloadDef, seed int64, size sizing, dirs outDirs, traced bool) (*result, error) {
	res, err := pass(w, seed, size, dirs, false)
	if err != nil {
		return nil, err
	}
	if traced {
		tres, err := pass(w, seed, size, dirs, true)
		if err != nil {
			return nil, err
		}
		res.attempted.Add(tres.attempted.Load())
		res.failed.Add(tres.failed.Load())
		res.faults = append(res.faults, tres.faults...)
		for name, v := range tres.values {
			if _, untraced := res.values[name]; !untraced {
				res.values[name] = v
				if n, ok := tres.samples[name]; ok {
					res.samples[name] = n
				}
			}
		}
		res.set("loadgen.trace_overhead_ratio", tres.values["cpu_s_per_mrec"]/res.values["cpu_s_per_mrec"])
		res.set("failed_ratio", res.failedRatio())
		res.complete(perLayer)
	}
	res.complete(endToEnd)
	return res, nil
}

// jsonLine is the driver's contract: with tracing off the end-to-end
// metrics, with tracing on the per-layer ones.
func jsonLine(res *result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.Name] = value{res.values[m.Name], m.Unit}
	}
	buf, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted.Load(), res.failed.Load(), metrics})
	return string(buf)
}

func (r *result) correct() bool { return r.failed.Load() == 0 && len(r.faults) == 0 }

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 10, "run length: sizes the plant counts and the timed loops")
		trace    = flag.Int("trace", 0, "1 adds a traced pass: per-layer metrics and trace files (bare -trace means 1)")
		repeat   = flag.Int("repeat", 0, "run N sets with seeds seed..seed+N-1 and check every spread against its bound")
		out      = flag.String("out", "", "directory for data dirs and trace files (default: a temp dir, removed on exit)")
	)
	flag.CommandLine.Parse(bareTrace(os.Args[1:]))
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *workload == "all" || *workload == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	// Everything the run writes lives inside the working directory, so a
	// checkout is all the benchmark touches.
	dirs, keep := outDirs{out: *out}, *out != ""
	if !keep {
		dirs.out = ".bench_out"
	}
	if err := os.MkdirAll(dirs.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(dirs.out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dirs.scratch = scratch
	if !keep {
		dirs.out = scratch // the trace files go with the rest
	}
	defer func() {
		_ = os.RemoveAll(scratch)
		if !keep {
			_ = os.Remove(".bench_out") // fails, rightly, while another run is using it
		}
	}()

	size := fullSizing(*seconds)
	fmt.Printf("bench: seed %d, %d s, GOMAXPROCS %d, %d bulk plants, %s live stream\n",
		*seed, *seconds, runtime.GOMAXPROCS(0), size.bulkPlants, size.liveDuration)
	if *repeat > 0 {
		return repeatSets(selected, *seed, size, dirs, *trace == 1, *repeat)
	}
	code := 0
	for _, w := range selected {
		res, err := measure(w, *seed, size, dirs, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("\n== %s: %d operations, %d failed\n", w.Name, res.attempted.Load(), res.failed.Load())
		fmt.Print(res.table(endToEnd))
		if *trace == 1 {
			fmt.Print(res.table(perLayer))
			fmt.Print(nanosecondTable(res, size))
			if keep {
				fmt.Printf("  trace: %s\n", dirs.tracePath(w.Name))
			}
		}
		for _, f := range res.faults {
			fmt.Println("  FAULT:", f)
		}
		if !res.correct() {
			code = 1
		}
		fmt.Println(jsonLine(res, *trace == 1))
	}
	return code
}

// bareTrace lets "-trace" stand alone as the issue writes it, while the
// driver passes "--trace 0|1".
func bareTrace(args []string) []string {
	out := append([]string(nil), args...)
	for i, a := range out {
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(out) || strings.HasPrefix(out[i+1], "-") {
			out[i] = "-trace=1"
		}
	}
	return out
}

// repeatSets is the benchmark's self-check: n full sets, each on its
// own seed, then per metric and workload the median, the extremes and
// the spread — the distance between the first and third quartile as a
// share of the median, the same statistic the driver gates on — beside
// the metric's bound. A spread above its bound refuses the baseline.
func repeatSets(selected []workloadDef, seed int64, size sizing, dirs outDirs, traced bool, n int) int {
	code := 0
	for _, w := range selected {
		series := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := measure(w, seed+int64(i), size, dirs, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.correct() {
				fmt.Printf("set %d of %s: %d failed operations %v\n", i, w.Name, res.failed.Load(), res.faults)
				code = 1
			}
			for name, v := range res.values {
				series[name] = append(series[name], v)
			}
		}
		fmt.Printf("\n== %s, %d sets\n  %-36s %12s %12s %12s %8s %6s\n", w.Name, n, "metric", "median", "min", "max", "spread", "bound")
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range defs {
				vs := series[m.Name]
				if len(vs) == 0 || !m.appliesTo(w.Name) {
					continue
				}
				sort.Float64s(vs)
				med, sp := median(vs), spread(vs)
				line := fmt.Sprintf("  %-36s %12.4f %12.4f %12.4f %8.4f", m.Name, med, vs[0], vs[len(vs)-1], sp)
				if m.Bound > 0 {
					line += fmt.Sprintf(" %6.2f", m.Bound)
					if sp > m.Bound && m.Name != "setup_s" {
						line += "  EXCEEDS ITS BOUND"
						code = 1
					}
				}
				fmt.Println(line)
			}
		}
	}
	return code
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// spread is (Q3 - Q1) / median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), 0 for
// fewer than two values.
func spread(sorted []float64) float64 {
	n := len(sorted)
	med := median(sorted)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(i int) float64 { // i-th quartile
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	sp := (q(3) - q(1)) / med
	if sp < 0 {
		sp = -sp
	}
	return sp
}
