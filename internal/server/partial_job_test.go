package server

import (
	"bytes"
	"encoding/json"
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
// /report per machine must be byte-identical to Algorithm 1 run offline
// on the plant the server assembled, then and once the job completes.
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

	check := func(stage string, p *plant.Plant) {
		t.Helper()
		cache := core.NewPlantCache(p)
		for _, m := range p.Machines() {
			h, err := core.NewHierarchyWithCache(p, m.ID, cache)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.FindHierarchicalOutliers(h, core.LevelPhase, core.Options{MaxOutliers: maxOutliers})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Outliers) != maxOutliers {
				t.Fatalf("%s, machine %s: %d outliers, want the bound %d to bite", stage, m.ID, len(rep.Outliers), maxOutliers)
			}
			resp, err := http.Get(ts.URL + "/v1/plants/" + plantID + "/report?level=phase&top=40&machine=" + m.ID)
			if err != nil {
				t.Fatal(err)
			}
			got := mustStatus(t, resp, http.StatusOK)
			var rev struct {
				DataRevision uint64 `json:"data_revision"`
			}
			if err := json.Unmarshal(got, &rev); err != nil {
				t.Fatal(err)
			}
			want := ReportResponse{
				Plant: plantID, Level: core.LevelPhase.String(), Machines: []string{m.ID},
				TotalOutliers: len(rep.Outliers), TopK: 40, DataRevision: rev.DataRevision,
			}
			for _, o := range core.Rank(rep.Outliers)[:40] {
				want.Outliers = append(want.Outliers, FleetOutlier{Machine: m.ID, Outlier: o.Wire()})
			}
			wantBody, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append(wantBody, '\n')) {
				t.Fatalf("%s, machine %s: /report differs from the offline run\nhttp:    %s\noffline: %s", stage, m.ID, got, wantBody)
			}
		}
	}

	stream(head)
	check("job in progress", assembled(stopAt))
	stream(tail)
	check("job complete", assembled(phases*samples))
}
