package main

import (
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

// go test ./bench -run TestBenchmarkFile -update-benchmark rewrites
// BENCHMARK.json from the registry, like the repo's other golden files.
var updateBenchmark = flag.Bool("update-benchmark", false, "rewrite ../BENCHMARK.json from the registry")

// registryFile renders the registry in BENCHMARK.json's schema.
func registryFile() benchmarkFile {
	file := benchmarkFile{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, fileWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		file.EndToEnd = append(file.EndToEnd, fileMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		file.PerLayer = append(file.PerLayer, fileMetric{m.Name, m.Unit, m.Better, nil})
	}
	return file
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileMetric   `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkFileMatchesRegistry keeps BENCHMARK.json and the
// harness's own registry from drifting: same workloads, same metrics,
// same units, directions and bounds, in the same order.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	if *updateBenchmark {
		buf, err := json.MarshalIndent(registryFile(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the registry %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: file has %q (%q), registry %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	compare := func(kind string, got []fileMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: file has %d metrics, the registry %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: file has %+v, registry %+v", kind, i, g, m)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Bound):
				t.Errorf("%s: bound in the file differs from the registry's %v", m.Name, m.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", m.Name)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", file.RunSeconds)
	}
}

func TestRegistryNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			check(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			if m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
			for _, w := range m.on {
				if !seen[w] {
					t.Errorf("%s: measured on unknown workload %q", m.Name, w)
				}
			}
			hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range endToEnd {
		if len(m.on) != len(workloads) {
			t.Errorf("%s: an end-to-end metric must come from every workload", m.Name)
		}
	}
}

// TestEveryMetricEmittedOnce runs every workload, traced, on tiny
// plants: each registered metric must be emitted exactly once by the
// workloads it applies to and by no other, no operation may fail, and
// the oracle must hold. It also checks the issue's predictions that
// hold on any box: WAL replays do no work on the in-memory workloads,
// and the merged cube is rebuilt under live ingest but never during the
// quiescent query mix.
func TestEveryMetricEmittedOnce(t *testing.T) {
	for _, w := range workloads {
		res, err := measure(w, 1, tinySizing(), outDirs{t.TempDir(), t.TempDir()}, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.faults {
			t.Errorf("%s: %s", w.Name, f)
		}
		if res.failed.Load() != 0 || res.attempted.Load() == 0 {
			t.Errorf("%s: %d of %d operations failed", w.Name, res.failed.Load(), res.attempted.Load())
		}
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range list {
				v, ok := res.values[m.Name]
				if !ok {
					t.Errorf("%s: %s missing from the result", w.Name, m.Name)
				}
				if !m.appliesTo(w.Name) && v != 0 {
					t.Errorf("%s: %s = %v but is not measured here", w.Name, m.Name, v)
				}
			}
		}
		for _, m := range endToEnd {
			if res.values[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, res.values[m.Name])
			}
		}
		walWork := res.values["wal.append_always_us_per_batch_c1"] + res.values["wal.replay_ns_per_rec"]
		if durable := w.Name == wBulkBin || w.Name == wLive; durable != (walWork != 0) {
			t.Errorf("%s: wal replays measured %v, data dir: %v", w.Name, walWork, durable)
		}
		switch revs := res.values["server.data_revisions"]; {
		case w.Name == wLive && revs == 0:
			t.Error("live-mixed: the data revision never advanced under ingest")
		case w.Name == wStatic && revs != 0:
			t.Errorf("query-static: %v revisions during the quiescent phase", revs)
		}
		for traced, defs := range map[bool][]metricDef{true: perLayer, false: endToEnd} {
			var line struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(jsonLine(res, traced)), &line); err != nil || !line.Correct || len(line.Metrics) != len(defs) {
				t.Errorf("%s: JSON line (traced %v) has %d metrics, want %d (correct %v, %v)", w.Name, traced, len(line.Metrics), len(defs), line.Correct, err)
			}
		}
	}
}

func TestBareTraceFlag(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-workload", "all", "-trace"}, []string{"-workload", "all", "-trace=1"}},
		{[]string{"-trace", "-seed", "2"}, []string{"-trace=1", "-seed", "2"}},
		{[]string{"--trace", "0", "--seed", "2"}, []string{"--trace", "0", "--seed", "2"}},
		{[]string{"--trace", "1"}, []string{"--trace", "1"}},
	} {
		got := bareTrace(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("%v: got %v", c.in, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v: got %v, want %v", c.in, got, c.want)
			}
		}
	}
}
