package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/plant"
	"repro/internal/timeseries"
)

func simulate(t *testing.T, cfg plant.Config) *plant.Plant {
	t.Helper()
	p, err := plant.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hier(t *testing.T, p *plant.Plant, machine string) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(p, machine)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestLevelStringAndValidity(t *testing.T) {
	names := map[Level]string{
		LevelPhase:          "phase",
		LevelJob:            "job",
		LevelEnvironment:    "environment",
		LevelProductionLine: "production-line",
		LevelProduction:     "production",
	}
	for lv, want := range names {
		if lv.String() != want || !lv.Valid() {
			t.Fatalf("level %d: %q valid=%v", int(lv), lv.String(), lv.Valid())
		}
	}
	if Level(0).Valid() || Level(6).Valid() {
		t.Fatal("out-of-range levels must be invalid")
	}
	if len(Levels()) != 5 {
		t.Fatal("five levels expected")
	}
	if !strings.Contains(Level(9).String(), "Level(9)") {
		t.Fatal("unknown level string")
	}
}

func TestNewHierarchyUnknownMachine(t *testing.T) {
	p := simulate(t, plant.Config{Seed: 1})
	if _, err := NewHierarchy(p, "nope"); err == nil {
		t.Fatal("want error for unknown machine")
	}
}

func TestInvalidStartLevel(t *testing.T) {
	p := simulate(t, plant.Config{Seed: 1})
	h := hier(t, p, p.Machines()[0].ID)
	if _, err := FindHierarchicalOutliers(h, Level(0), Options{}); err == nil {
		t.Fatal("want error for invalid start level")
	}
}

func TestCleanPlantIsQuiet(t *testing.T) {
	p := simulate(t, plant.Config{Seed: 2})
	h := hier(t, p, p.Machines()[0].ID)
	rep, err := FindHierarchicalOutliers(h, LevelPhase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outliers) > 3 {
		t.Fatalf("clean plant produced %d phase outliers", len(rep.Outliers))
	}
}

// faultyMachine returns a machine of p with a process fault and one
// with a measurement error, or skips.
func eventMachines(t *testing.T, p *plant.Plant) (faulty, lying string) {
	t.Helper()
	for _, e := range p.Events {
		if e.Kind == plant.ProcessFault && faulty == "" {
			faulty = e.Machine
		}
		if e.Kind == plant.MeasurementError && lying == "" {
			lying = e.Machine
		}
	}
	if faulty == "" || lying == "" {
		t.Skip("simulation produced no usable events for this seed")
	}
	return faulty, lying
}

func TestProcessFaultHasHighSupportAndGlobalScore(t *testing.T) {
	p := simulate(t, plant.Config{Seed: 3, FaultRate: 0.4, JobsPerMachine: 10})
	faulty := ""
	for _, e := range p.Events {
		if e.Kind == plant.ProcessFault {
			faulty = e.Machine
			break
		}
	}
	if faulty == "" {
		t.Fatal("no fault injected")
	}
	h := hier(t, p, faulty)
	rep, err := FindHierarchicalOutliers(h, LevelPhase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outliers) == 0 {
		t.Fatal("fault not detected at phase level")
	}
	// Find outliers on temperature sensors inside the faulty job; the
	// fault is physical, so the redundant partner must support it.
	var supported, multiLevel bool
	for _, o := range rep.Outliers {
		if o.Sensor != "temp-a" && o.Sensor != "temp-b" {
			continue
		}
		if o.Support >= 1 {
			supported = true
		}
		if o.GlobalScore >= 2 {
			multiLevel = true
		}
	}
	if !supported {
		t.Fatal("process fault should be supported by the redundant sensor")
	}
	if !multiLevel {
		t.Fatal("process fault should propagate to at least one higher level")
	}
}

func TestMeasurementErrorHasZeroSupport(t *testing.T) {
	p := simulate(t, plant.Config{Seed: 4, MeasurementErrorRate: 0.5, JobsPerMachine: 10})
	lying := ""
	var ev plant.Event
	for _, e := range p.Events {
		if e.Kind == plant.MeasurementError {
			lying = e.Machine
			ev = e
			break
		}
	}
	if lying == "" {
		t.Fatal("no measurement error injected")
	}
	h := hier(t, p, lying)
	rep, err := FindHierarchicalOutliers(h, LevelPhase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The lying sensor's outliers must carry zero support.
	var found bool
	for _, o := range rep.Outliers {
		if o.Sensor == ev.Sensor && o.Support == 0 {
			found = true
		}
		if o.Sensor == ev.Sensor && o.Support > 0 {
			t.Fatalf("lying sensor outlier has support %v", o.Support)
		}
	}
	if !found {
		t.Fatal("measurement error not detected on the lying sensor")
	}
}

func TestSupportSeparatesFaultFromMeasurementError(t *testing.T) {
	// The paper's central claim: support distinguishes real faults
	// (confirmed by redundant sensors) from measurement errors.
	p := simulate(t, plant.Config{Seed: 5, FaultRate: 0.3, MeasurementErrorRate: 0.3, JobsPerMachine: 12})
	faultJobs := map[string]map[int]bool{}
	lieJobs := map[string]map[int]bool{}
	for _, e := range p.Events {
		ji := jobIndexOf(t, p, e)
		switch e.Kind {
		case plant.ProcessFault:
			if faultJobs[e.Machine] == nil {
				faultJobs[e.Machine] = map[int]bool{}
			}
			faultJobs[e.Machine][ji] = true
		case plant.MeasurementError:
			if lieJobs[e.Machine] == nil {
				lieJobs[e.Machine] = map[int]bool{}
			}
			lieJobs[e.Machine][ji] = true
		}
	}
	var faultSupports, lieSupports []float64
	for _, m := range p.Machines() {
		h := hier(t, p, m.ID)
		rep, err := FindHierarchicalOutliers(h, LevelPhase, Options{MaxOutliers: 512})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range rep.Outliers {
			if o.Sensor != "temp-a" && o.Sensor != "temp-b" {
				continue
			}
			switch {
			case faultJobs[m.ID][o.JobIndex] && !lieJobs[m.ID][o.JobIndex]:
				faultSupports = append(faultSupports, o.Support)
			case lieJobs[m.ID][o.JobIndex] && !faultJobs[m.ID][o.JobIndex]:
				lieSupports = append(lieSupports, o.Support)
			}
		}
	}
	if len(faultSupports) == 0 || len(lieSupports) == 0 {
		t.Skip("seed produced no separable events")
	}
	if mean(faultSupports) <= mean(lieSupports) {
		t.Fatalf("fault support %.2f should exceed measurement-error support %.2f",
			mean(faultSupports), mean(lieSupports))
	}
}

func jobIndexOf(t *testing.T, p *plant.Plant, e plant.Event) int {
	t.Helper()
	m, err := p.MachineByID(e.Machine)
	if err != nil {
		t.Fatal(err)
	}
	for ji, j := range m.Jobs {
		if j.ID == e.Job {
			return ji
		}
	}
	t.Fatalf("job %s not found", e.Job)
	return -1
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestStartAtJobLevelDownPassWarnings(t *testing.T) {
	p := simulate(t, plant.Config{Seed: 6, FaultRate: 0.4, JobsPerMachine: 12})
	var machine string
	for _, e := range p.Events {
		if e.Kind == plant.ProcessFault {
			machine = e.Machine
			break
		}
	}
	if machine == "" {
		t.Fatal("no fault injected")
	}
	h := hier(t, p, machine)
	rep, err := FindHierarchicalOutliers(h, LevelJob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outliers) == 0 {
		t.Fatal("faulty job not flagged at job level")
	}
	// Identify the machine's truly faulty jobs.
	m, err := p.MachineByID(machine)
	if err != nil {
		t.Fatal(err)
	}
	faulty := map[int]bool{}
	for ji, j := range m.Jobs {
		if j.Faulty {
			faulty[ji] = true
		}
	}
	// At least one truly faulty job must be flagged, confirmed below
	// (global score ≥ 2) and free of measurement warnings; benign
	// setup deviations may flag and warn — that is the algorithm
	// working as designed.
	warned := map[int]bool{}
	for _, w := range rep.Warnings {
		warned[w.JobIndex] = true
	}
	confirmed := false
	for _, o := range rep.Outliers {
		if faulty[o.JobIndex] && o.GlobalScore >= 2 && !warned[o.JobIndex] {
			confirmed = true
		}
		if faulty[o.JobIndex] && warned[o.JobIndex] {
			t.Fatalf("real fault in job %d raised a measurement warning", o.JobIndex)
		}
	}
	if !confirmed {
		t.Fatalf("no faulty job confirmed below job level: outliers=%+v warnings=%+v",
			rep.Outliers, rep.Warnings)
	}
}

func TestDownPassAblation(t *testing.T) {
	p := simulate(t, plant.Config{Seed: 6, FaultRate: 0.4, JobsPerMachine: 12})
	var machine string
	for _, e := range p.Events {
		if e.Kind == plant.ProcessFault {
			machine = e.Machine
			break
		}
	}
	h := hier(t, p, machine)
	with, err := FindHierarchicalOutliers(h, LevelJob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := FindHierarchicalOutliers(h, LevelJob, Options{DisableDownPass: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(without.Warnings) != 0 {
		t.Fatal("down pass disabled must not warn")
	}
	// Global scores can only shrink without the downward confirmations.
	if len(with.Outliers) != len(without.Outliers) {
		t.Fatalf("outlier counts differ: %d vs %d", len(with.Outliers), len(without.Outliers))
	}
	for i := range with.Outliers {
		if without.Outliers[i].GlobalScore > with.Outliers[i].GlobalScore {
			t.Fatal("down pass cannot reduce global score")
		}
	}
}

func TestOutliernessMapping(t *testing.T) {
	if Outlierness(0, 5) != 0 {
		t.Fatal("zero deviation should map to 0")
	}
	at := Outlierness(5, 5)
	if at != 0.5 {
		t.Fatalf("threshold maps to %v, want 0.5", at)
	}
	if Outlierness(50, 5) <= 0.9 {
		t.Fatal("extreme deviation should approach 1")
	}
	if Outlierness(-1, 5) != 0 {
		t.Fatal("negative deviation clamps to 0")
	}
	// Inf/(Inf+t) is NaN; a NaN would break the rank order and the
	// report's JSON encoding.
	if got := Outlierness(math.Inf(1), 5); got != 1 {
		t.Fatalf("infinite deviation maps to %v, want 1", got)
	}
}

// The phase detector reads every sensor as one stream per machine;
// sensors that disagree on its length cannot be profiled by position.
func TestPhaseLevelRefusesMisalignedSensors(t *testing.T) {
	p := simulate(t, plant.Config{Seed: 3, JobsPerMachine: 4})
	m := p.Machines()[0]
	m.Jobs[1].Phases[2].Sensors.Dim("temp-b").Name = "temp-c"
	_, err := FindHierarchicalOutliers(hier(t, p, m.ID), LevelPhase, Options{})
	if !errors.Is(err, timeseries.ErrMismatch) {
		t.Fatalf("err = %v, want timeseries.ErrMismatch", err)
	}
}

func TestMaxOutliersBound(t *testing.T) {
	p := simulate(t, plant.Config{Seed: 7, FaultRate: 0.8, MeasurementErrorRate: 0.8, JobsPerMachine: 12})
	h := hier(t, p, p.Machines()[0].ID)
	rep, err := FindHierarchicalOutliers(h, LevelPhase, Options{MaxOutliers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outliers) > 5 {
		t.Fatalf("MaxOutliers violated: %d", len(rep.Outliers))
	}
	// Sorted strongest-first.
	for i := 1; i < len(rep.Outliers); i++ {
		a, b := rep.Outliers[i-1], rep.Outliers[i]
		if a.GlobalScore < b.GlobalScore {
			t.Fatal("outliers not sorted by global score")
		}
	}
}

func TestSoftSensorSupportForUnpairedSensors(t *testing.T) {
	// Vibration has no physical twin. During a process fault the
	// vibration rises together with temperature and power, so the
	// soft sensor (predicting vibration from its peers) confirms the
	// deviation — support flips from 0 to 1 when the option is on.
	p := simulate(t, plant.Config{Seed: 9, FaultRate: 0.25, JobsPerMachine: 12})
	// Lower the phase threshold so the (smaller) vibration deviation
	// registers at all.
	optsOff := Options{PhaseThreshold: 3.5, MaxOutliers: 2048}
	optsOn := Options{PhaseThreshold: 3.5, MaxOutliers: 2048, SoftSensorSupport: true}

	vibSupport := func(opts Options) (withSupport, total int) {
		for _, m := range p.Machines() {
			faultJobs := map[int]bool{}
			any := false
			for ji, j := range m.Jobs {
				if j.Faulty {
					faultJobs[ji] = true
					any = true
				}
			}
			if !any {
				continue
			}
			h := hier(t, p, m.ID)
			rep, err := FindHierarchicalOutliers(h, LevelPhase, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range rep.Outliers {
				if o.Sensor != "vibration" || !faultJobs[o.JobIndex] {
					continue
				}
				total++
				if o.Support > 0 {
					withSupport++
				}
			}
		}
		return withSupport, total
	}
	offSup, offTotal := vibSupport(optsOff)
	onSup, onTotal := vibSupport(optsOn)
	if offTotal == 0 || onTotal == 0 {
		t.Skip("no vibration outliers at this threshold for this seed")
	}
	if offSup != 0 {
		t.Fatalf("without soft sensors vibration support should be 0, got %d/%d", offSup, offTotal)
	}
	if onSup == 0 {
		t.Fatalf("soft sensor should confirm fault-driven vibration outliers (0/%d)", onTotal)
	}
}

func TestStartAtProductionLevel(t *testing.T) {
	// Give one machine many faults so it deviates at plant scope.
	p := simulate(t, plant.Config{Seed: 8, FaultRate: 0.9, JobsPerMachine: 10, Lines: 1, MachinesPerLine: 4})
	// Find the machine with most faults.
	counts := map[string]int{}
	for _, e := range p.Events {
		if e.Kind == plant.ProcessFault {
			counts[e.Machine]++
		}
	}
	// All machines are faulty here; production level may or may not
	// flag ours — the API contract is simply "no error".
	h := hier(t, p, p.Machines()[0].ID)
	if _, err := FindHierarchicalOutliers(h, LevelProduction, Options{}); err != nil {
		t.Fatal(err)
	}
	// Environment level runs too.
	if _, err := FindHierarchicalOutliers(h, LevelEnvironment, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := FindHierarchicalOutliers(h, LevelProductionLine, Options{}); err != nil {
		t.Fatal(err)
	}
}
