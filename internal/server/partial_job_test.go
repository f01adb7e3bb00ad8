package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/plant"
)

// TestReportWithJobInProgressMatchesOffline pins the report of a live
// plant: more than a hundred jobs per machine arrive in time-major
// order and the stream stops three-quarters through the newest job,
// whose name sorts into the middle of the job list (job-101 < job-11).
// Every job after it then sits off the per-position phase profile and
// Algorithm 1 picks its bounded list out of thousands of candidates.
// /report per machine, at every start level, must be byte-identical to
// Algorithm 1 run offline on the plant the server assembled: then, once
// the job completes, after one corrected sample on one machine, and
// after a POST /jobs that moves one job's setpoint — each of which
// must advance the data revision the report is built at.
func TestReportWithJobInProgressMatchesOffline(t *testing.T) {
	cfg := plant.Config{
		Seed: 24, Lines: 1, MachinesPerLine: 2, JobsPerMachine: 101,
		PhaseSamples: 8, FaultRate: 0.3, MeasurementErrorRate: 0.3,
	}
	const maxOutliers = 64
	full, err := plant.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	phases, samples := len(plant.PhaseNames), cfg.PhaseSamples
	lastJob := cfg.JobsPerMachine - 1
	stopAt := phases * samples * 3 / 4 // time steps of the last job that arrive first

	// Time-major arrival: job, phase and sample index advance together
	// on every machine.
	var head, tail []Record
	for j := 0; j < cfg.JobsPerMachine; j++ {
		for ph := 0; ph < phases; ph++ {
			for ts := 0; ts < samples; ts++ {
				for _, m := range full.Machines() {
					job := m.Jobs[j]
					for _, dim := range job.Phases[ph].Sensors.Dims {
						rec := Record{
							Machine: m.ID, Job: job.ID, Phase: job.Phases[ph].Name,
							Sensor: dim.Name, T: ts, Value: dim.Values[ts],
						}
						if j == lastJob && ph*samples+ts >= stopAt {
							tail = append(tail, rec)
						} else {
							head = append(head, rec)
						}
					}
				}
			}
		}
	}

	srv := New(Options{Shards: 2, QueueDepth: 16, Workers: 2, MaxOutliers: maxOutliers})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const plantID = "plant-live"
	register(t, ts.URL, topoFromPlant(plantID, full))
	ingest := ts.URL + "/v1/plants/" + plantID + "/ingest"
	metas, err := json.Marshal(jobMetas(full))
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/"+plantID+"/jobs", "application/json", metas), http.StatusAccepted)
	env := envRecords(full)
	mustStatus(t, postRetry(t, ingest, "application/x-ndjson", ndjson(env)), http.StatusAccepted)
	sent := uint64(len(env))
	stream := func(recs []Record) {
		t.Helper()
		const chunk = 4000
		for lo := 0; lo < len(recs); lo += chunk {
			body := ndjson(recs[lo:min(lo+chunk, len(recs))])
			mustStatus(t, postRetry(t, ingest, "application/x-ndjson", body), http.StatusAccepted)
		}
		sent += uint64(len(recs))
		waitDrained(t, ts.URL, plantID, sent)
	}

	// assembled is the plant the server holds after `steps` time steps
	// of the last job: jobs in name order, the last one cut short.
	assembled := func(steps int) *plant.Plant {
		t.Helper()
		p, err := plant.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range p.Machines() {
			job := m.Jobs[lastJob]
			job.Phases = job.Phases[:(steps+samples-1)/samples]
			if rest := steps % samples; rest > 0 {
				for _, dim := range job.Phases[len(job.Phases)-1].Sensors.Dims {
					dim.Values = dim.Values[:rest]
				}
			}
			sort.Slice(m.Jobs, func(i, j int) bool { return m.Jobs[i].ID < m.Jobs[j].ID })
			if at := sort.Search(len(m.Jobs), func(i int) bool { return m.Jobs[i].ID >= job.ID }); at < 10 || at > len(m.Jobs)-10 {
				t.Fatalf("job %s sorts to position %d of %d, not mid-list", job.ID, at, len(m.Jobs))
			}
		}
		return p
	}

	var lastRev uint64
	check := func(stage string, p *plant.Plant) {
		t.Helper()
		var rev uint64
		cache := core.NewPlantCache(p)
		for _, m := range p.Machines() {
			h, err := core.NewHierarchyWithCache(p, m.ID, cache)
			if err != nil {
				t.Fatal(err)
			}
			for _, level := range core.Levels() {
				rep, err := core.FindHierarchicalOutliers(h, level, core.Options{MaxOutliers: maxOutliers})
				if err != nil {
					t.Fatal(err)
				}
				if level == core.LevelPhase && len(rep.Outliers) != maxOutliers {
					t.Fatalf("%s, machine %s: %d outliers, want the bound %d to bite", stage, m.ID, len(rep.Outliers), maxOutliers)
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/plants/%s/report?level=%d&top=40&machine=%s", ts.URL, plantID, level, m.ID))
				if err != nil {
					t.Fatal(err)
				}
				got := mustStatus(t, resp, http.StatusOK)
				var body struct {
					DataRevision uint64 `json:"data_revision"`
				}
				if err := json.Unmarshal(got, &body); err != nil {
					t.Fatal(err)
				}
				if rev == 0 {
					rev = body.DataRevision
				}
				if body.DataRevision != rev || rev <= lastRev {
					t.Fatalf("%s, machine %s, level %s: data_revision %d (stage opened at %d, previous stage %d)",
						stage, m.ID, level, body.DataRevision, rev, lastRev)
				}
				ranked := core.Rank(rep.Outliers)
				ranked = ranked[:min(40, len(ranked))]
				want := ReportResponse{
					Plant: plantID, Level: level.String(), Machines: []string{m.ID},
					TotalOutliers: len(rep.Outliers), TopK: 40, DataRevision: rev,
					Outliers: make([]FleetOutlier, 0, len(ranked)),
				}
				for _, o := range ranked {
					want.Outliers = append(want.Outliers, FleetOutlier{Machine: m.ID, Outlier: o.Wire()})
				}
				for _, w := range rep.Warnings {
					want.Warnings = append(want.Warnings, FleetWarning{Machine: m.ID, Reason: w.Reason})
				}
				wantBody, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, append(wantBody, '\n')) {
					t.Fatalf("%s, machine %s, level %s: /report differs from the offline run\nhttp:    %s\noffline: %s", stage, m.ID, level, got, wantBody)
				}
			}
		}
		lastRev = rev
	}

	stream(head)
	check("job in progress", assembled(stopAt))
	stream(tail)
	p := assembled(phases * samples)
	check("job complete", p)

	// One corrected sample on one machine: the record is not fresh, but
	// its value reaches the next view.
	m := p.Machines()[0]
	job := m.Jobs[3]
	dim := job.Phases[1].Sensors.Dims[0]
	dim.Values[2] += 40
	stream([]Record{{Machine: m.ID, Job: job.ID, Phase: job.Phases[1].Name, Sensor: dim.Name, T: 2, Value: dim.Values[2]}})
	check("one corrected sample", p)

	// A new nozzle setpoint (Setup[2]) for one job, nothing else.
	job = p.Machines()[1].Jobs[7]
	job.Setup[2] += 5
	moved, err := json.Marshal([]JobMeta{{Machine: job.Machine, Job: job.ID, Setup: job.Setup, CAQ: job.CAQ, Faulty: job.Faulty}})
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/"+plantID+"/jobs", "application/json", moved), http.StatusAccepted)
	check("one setpoint moved", p)
}
