package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plant"
)

// TestReportViewLifecycle walks one plant's report view through its
// life: a report leaves a view at the current revision, a second report
// reuses it whole, an idempotent replay keeps it, and whatever moves
// the revision — a corrected record, changed job metadata — releases it
// at once, with no report in between. Identical metadata keeps it.
func TestReportViewLifecycle(t *testing.T) {
	p, err := plant.Simulate(plant.Config{
		Seed: 5, Lines: 1, MachinesPerLine: 2, JobsPerMachine: 4,
		PhaseSamples: 16, FaultRate: 0.3, MeasurementErrorRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Shards: 2, QueueDepth: 64, Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const id = "plant-view"
	register(t, ts.URL, topoFromPlant(id, p))
	ingestPlant(t, ts.URL, id, p)
	ps, _ := srv.plant(id)
	base := ts.URL + "/v1/plants/" + id
	machine := p.Machines()[0].ID

	report := func() { getBody(t, base+"/report?level=phase&top=5") }
	// cached reads the view and its hierarchy of machine the way a
	// report would, under reportMu.
	cached := func() (*reportView, *core.Hierarchy) {
		ps.reportMu.Lock()
		defer ps.reportMu.Unlock()
		v := ps.view.Load()
		if v == nil {
			return nil, nil
		}
		return v, v.hier[machine]
	}
	ingest := func(recs []Record) {
		t.Helper()
		want := ps.received.Load() + uint64(len(recs))
		mustStatus(t, postRetry(t, base+"/ingest", "application/x-ndjson", ndjson(recs)), http.StatusAccepted)
		waitDrained(t, ts.URL, id, want)
	}
	postMetas := func(metas []JobMeta) {
		t.Helper()
		body, err := json.Marshal(metas)
		if err != nil {
			t.Fatal(err)
		}
		mustStatus(t, postRetry(t, base+"/jobs", "application/json", body), http.StatusAccepted)
	}

	// 1. A report leaves a view at the current revision.
	report()
	v, h := cached()
	if v == nil || v.rev != ps.dataRev.Load() || h == nil {
		t.Fatalf("after a report: view %p, hierarchy %v, revision %d", v, h, ps.dataRev.Load())
	}
	rev := v.rev

	// 2. A second report at the same revision reuses it whole.
	report()
	if v2, h2 := cached(); v2 != v || h2 != h {
		t.Fatal("a second report at the same revision rebuilt the view or the hierarchy")
	}

	// 3. An idempotent replay writes nothing and keeps the view.
	recs := machineRecords(p)[:100]
	ingest(recs)
	if v2, _ := cached(); v2 != v || ps.dataRev.Load() != rev {
		t.Fatalf("an idempotent replay moved the revision %d → %d or dropped the view", rev, ps.dataRev.Load())
	}

	// 4. A corrected record moves the revision and releases the view,
	// though no report runs.
	fix := recs[0]
	fix.Value++
	ingest([]Record{fix})
	if v2, _ := cached(); v2 != nil || ps.dataRev.Load() != rev+1 {
		t.Fatalf("after a correction: view %p at revision %d, want none at %d", v2, ps.dataRev.Load(), rev+1)
	}

	// 5. Identical job metadata keeps the next view; changed metadata
	// releases it.
	report()
	v, _ = cached()
	if v == nil {
		t.Fatal("a report left no view")
	}
	metas := jobMetas(p)
	postMetas(metas)
	if v2, _ := cached(); v2 != v {
		t.Fatal("identical job metadata dropped the view")
	}
	metas[0].Faulty = !metas[0].Faulty
	postMetas(metas)
	if v2, _ := cached(); v2 != nil || ps.dataRev.Load() != rev+2 {
		t.Fatalf("after changed metadata: view %p at revision %d, want none at %d", v2, ps.dataRev.Load(), rev+2)
	}
}

// TestReportViewNeverStaleAtRest runs report builds against shard
// folds that move the revision, and stops the reports right as the
// last batch of each round is pushed, so a build can race the last
// bump. Once the plant is quiescent its cached view is either gone or
// at the current revision: a view published by a build the bump
// overtook must not outlive it.
func TestReportViewNeverStaleAtRest(t *testing.T) {
	ps := newPlantState(topoWithDefaults(binaryTestTopo()))
	ps.start(2, 64, math.Inf(1))
	defer ps.close()

	push := func(recs []Record) {
		t.Helper()
		refs, rejected, firstErr := resolveAsFrame(ps, recs)
		if rejected != 0 {
			t.Fatalf("record rejected: %s", firstErr)
		}
		// Each machine's refs go to its own shard, as admission routes them.
		for _, m := range []int32{0, 1} {
			var part []recordRef
			for _, r := range refs {
				if r.machine == m {
					part = append(part, r)
				}
			}
			for !ps.shards[ps.shardOf[m]].q.TryPush(shardBatch{refs: part}) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	const rounds, batches, perBatch = 40, 8, 16
	var sent uint64
	for round := range rounds {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					ps.reportMu.Lock()
					_, err := ps.snapshot()
					ps.reportMu.Unlock()
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for b := range batches {
			recs := make([]Record, 0, 2*perBatch)
			for i := range perBatch {
				at := (round*batches+b)*perBatch + i
				for _, m := range []string{"m0", "m1"} {
					recs = append(recs, Record{Machine: m, Job: "job", Phase: "heat", Sensor: "temp", T: at % maxSampleIndex, Value: float64(at)})
				}
			}
			push(recs)
			sent += uint64(len(recs))
		}
		close(stop)
		wg.Wait()
		for deadline := time.Now().Add(10 * time.Second); ps.received.Load() < sent; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of %d records folded", round, ps.received.Load(), sent)
			}
		}
		if v, cur := ps.view.Load(), ps.dataRev.Load(); v != nil && v.rev != cur {
			t.Fatalf("round %d: at rest the cached view is at revision %d, the plant at %d", round, v.rev, cur)
		}
	}
}
