package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plant"
	"repro/pkg/hod/wire"
)

func testConfig() plant.Config {
	return plant.Config{
		Seed: 5, Lines: 2, MachinesPerLine: 3, JobsPerMachine: 6,
		PhaseSamples: 40, FaultRate: 0.3, MeasurementErrorRate: 0.3,
	}
}

func topoFromPlant(id string, p *plant.Plant) Topology {
	topo := Topology{ID: id}
	for _, l := range p.Lines {
		tl := TopoLine{ID: l.ID}
		for _, m := range l.Machines {
			tl.Machines = append(tl.Machines, m.ID)
		}
		topo.Lines = append(topo.Lines, tl)
	}
	return topo
}

func machineRecords(p *plant.Plant) []Record {
	var out []Record
	for _, m := range p.Machines() {
		for _, job := range m.Jobs {
			for _, ph := range job.Phases {
				for _, dim := range ph.Sensors.Dims {
					for t, v := range dim.Values {
						out = append(out, Record{
							Machine: m.ID, Job: job.ID, Phase: ph.Name,
							Sensor: dim.Name, T: t, Value: v,
						})
					}
				}
			}
		}
	}
	return out
}

func envRecords(p *plant.Plant) []Record {
	var out []Record
	for _, dim := range p.Environment.Dims {
		for t, v := range dim.Values {
			out = append(out, Record{Env: true, Sensor: dim.Name, T: t, Value: v})
		}
	}
	return out
}

func jobMetas(p *plant.Plant) []JobMeta {
	var out []JobMeta
	for _, m := range p.Machines() {
		for _, job := range m.Jobs {
			out = append(out, JobMeta{
				Machine: m.ID, Job: job.ID,
				Setup: job.Setup, CAQ: job.CAQ, Faulty: job.Faulty,
			})
		}
	}
	return out
}

func ndjson(recs []Record) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		_ = enc.Encode(r)
	}
	return buf.Bytes()
}

// csvRecords converts a plantsim CSV body on the client side, as
// `hodctl replay` does: the server takes no CSV.
func csvRecords(t *testing.T, body string) []Record {
	t.Helper()
	recs, err := wire.DecodeCSV(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// csvBinary is a plantsim CSV body as the binary frame body a client
// sends for it.
func csvBinary(t *testing.T, body string) []byte {
	t.Helper()
	return binaryBody(t, csvRecords(t, body))
}

// postRetry POSTs body, retrying on 429 with the advertised backoff —
// the client contract the idempotent store makes safe.
func postRetry(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	for try := 0; try < 200; try++ {
		resp, err := http.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			return resp
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("batch never admitted after 200 retries")
	return nil
}

func mustStatus(t *testing.T, resp *http.Response, want int) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, want, body)
	}
	return body
}

// ingestPlant replays the whole plant (sensors in chunks, environment,
// job metadata) through the HTTP API and waits for the pipelines to
// drain.
func ingestPlant(t *testing.T, base, plantID string, p *plant.Plant) {
	t.Helper()
	recs := machineRecords(p)
	env := envRecords(p)
	const chunk = 5000
	for lo := 0; lo < len(recs); lo += chunk {
		hi := lo + chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		resp := postRetry(t, base+"/v1/plants/"+plantID+"/ingest", "application/x-ndjson", ndjson(recs[lo:hi]))
		mustStatus(t, resp, http.StatusAccepted)
	}
	resp := postRetry(t, base+"/v1/plants/"+plantID+"/ingest", "application/x-ndjson", ndjson(env))
	mustStatus(t, resp, http.StatusAccepted)

	metas, err := json.Marshal(jobMetas(p))
	if err != nil {
		t.Fatal(err)
	}
	resp = postRetry(t, base+"/v1/plants/"+plantID+"/jobs", "application/json", metas)
	mustStatus(t, resp, http.StatusAccepted)

	waitDrained(t, base, plantID, uint64(len(recs)+len(env)))
}

func waitDrained(t *testing.T, base, plantID string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/plants/" + plantID + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Received    uint64 `json:"received_records"`
			QueueDepths []int  `json:"queue_depths"`
		}
		body := mustStatus(t, resp, http.StatusOK)
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		drained := st.Received >= want
		for _, d := range st.QueueDepths {
			if d > 0 {
				drained = false
			}
		}
		if drained {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("pipelines did not drain %d records in time", want)
}

func register(t *testing.T, base string, topo Topology) {
	t.Helper()
	buf, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/plants", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, resp, http.StatusCreated)
}

// TestEndToEndMatchesBatchPipeline is the acceptance test: replaying a
// simulated trace through the ingest API yields exactly the outliers
// the batch core pipeline computes on the same data — per machine and
// fleet-ranked top-K.
func TestEndToEndMatchesBatchPipeline(t *testing.T) {
	p, err := plant.Simulate(testConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Batch reference: one shared cache, Algorithm 1 per machine. The
	// serving layer answers in wire shapes, so the expectation converts
	// through the same core Wire() conversion the server uses.
	cache := core.NewPlantCache(p)
	batch := map[string]*core.Report{}
	type taggedOutlier struct {
		machine string
		outlier core.Outlier
	}
	var ranked []taggedOutlier
	for _, m := range p.Machines() {
		h, err := core.NewHierarchyWithCache(p, m.ID, cache)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.FindHierarchicalOutliers(h, core.LevelPhase, core.Options{MaxOutliers: 512})
		if err != nil {
			t.Fatal(err)
		}
		batch[m.ID] = rep
		for _, o := range rep.Outliers {
			ranked = append(ranked, taggedOutlier{m.ID, o})
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return core.RankLess(ranked[i].outlier, ranked[j].outlier) })
	fleet := make([]FleetOutlier, len(ranked))
	for i, to := range ranked {
		fleet[i] = FleetOutlier{Machine: to.machine, Outlier: to.outlier.Wire()}
	}

	srv := New(Options{Shards: 3, QueueDepth: 16, Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	register(t, ts.URL, topoFromPlant("plant-e2e", p))
	ingestPlant(t, ts.URL, "plant-e2e", p)

	// Per-machine drill-down equality.
	for _, m := range p.Machines() {
		resp, err := http.Get(ts.URL + "/v1/plants/plant-e2e/report?level=phase&top=512&machine=" + m.ID)
		if err != nil {
			t.Fatal(err)
		}
		body := mustStatus(t, resp, http.StatusOK)
		var got ReportResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		// The serving layer ranks operator-facing output with the
		// paper's combined-importance order (core.Rank); apply the same
		// ranking to the batch report before comparing.
		wantRanked := core.Rank(batch[m.ID].Outliers)
		if len(got.Outliers) != len(wantRanked) {
			t.Fatalf("machine %s: %d outliers via HTTP, %d via batch", m.ID, len(got.Outliers), len(wantRanked))
		}
		for i := range wantRanked {
			if !reflect.DeepEqual(got.Outliers[i].Outlier, wantRanked[i].Wire()) {
				t.Fatalf("machine %s outlier %d differs:\nhttp:  %+v\nbatch: %+v",
					m.ID, i, got.Outliers[i].Outlier, wantRanked[i])
			}
		}
		if len(got.Warnings) != len(batch[m.ID].Warnings) {
			t.Fatalf("machine %s: %d warnings via HTTP, %d via batch", m.ID, len(got.Warnings), len(batch[m.ID].Warnings))
		}
	}

	// Fleet-ranked top-K equality.
	resp, err := http.Get(ts.URL + "/v1/plants/plant-e2e/report?level=1&top=10")
	if err != nil {
		t.Fatal(err)
	}
	var got ReportResponse
	if err := json.Unmarshal(mustStatus(t, resp, http.StatusOK), &got); err != nil {
		t.Fatal(err)
	}
	wantTop := fleet
	if len(wantTop) > 10 {
		wantTop = wantTop[:10]
	}
	if len(got.Outliers) != len(wantTop) {
		t.Fatalf("fleet top-K: got %d, want %d", len(got.Outliers), len(wantTop))
	}
	for i := range wantTop {
		if got.Outliers[i].Machine != wantTop[i].Machine ||
			!reflect.DeepEqual(got.Outliers[i].Outlier, wantTop[i].Outlier) {
			t.Fatalf("fleet outlier %d differs:\nhttp:  %+v\nbatch: %+v", i, got.Outliers[i], wantTop[i])
		}
	}
	if got.TotalOutliers != len(fleet) {
		t.Fatalf("total_outliers %d, want %d", got.TotalOutliers, len(fleet))
	}

	// Roll-up sanity: plant-level count equals every machine sample.
	resp, err = http.Get(ts.URL + "/v1/plants/plant-e2e/rollup?level=plant")
	if err != nil {
		t.Fatal(err)
	}
	var roll struct {
		Nodes []RollupNode `json:"nodes"`
	}
	if err := json.Unmarshal(mustStatus(t, resp, http.StatusOK), &roll); err != nil {
		t.Fatal(err)
	}
	if len(roll.Nodes) != 1 {
		t.Fatalf("plant rollup nodes = %d", len(roll.Nodes))
	}
	if want := len(machineRecords(p)); roll.Nodes[0].Count != want {
		t.Fatalf("plant rollup count %d, want %d", roll.Nodes[0].Count, want)
	}
	resp, err = http.Get(ts.URL + "/v1/plants/plant-e2e/rollup?level=machine")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mustStatus(t, resp, http.StatusOK), &roll); err != nil {
		t.Fatal(err)
	}
	if len(roll.Nodes) != len(p.Machines()) {
		t.Fatalf("machine rollup nodes = %d, want %d", len(roll.Nodes), len(p.Machines()))
	}
}

// TestBackpressure429 fills a shard queue with no consumer and checks
// the 429 + Retry-After contract.
func TestBackpressure429(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 2, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 1, PhaseSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	topo := topoWithDefaults(topoFromPlant("plant-bp", p))
	s := New(Options{})
	ps := newPlantState(topo)
	ps.makeShards(1, 1) // capacity 1 batch, and no worker draining it
	s.plants["plant-bp"] = ps
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec := ndjson([]Record{{
		Machine: p.Machines()[0].ID, Job: p.Machines()[0].Jobs[0].ID,
		Phase: "print", Sensor: "temp-a", T: 0, Value: 1,
	}})
	resp, err := http.Post(ts.URL+"/v1/plants/plant-bp/ingest", "application/x-ndjson", bytes.NewReader(rec))
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, resp, http.StatusAccepted)

	resp, err = http.Post(ts.URL+"/v1/plants/plant-bp/ingest", "application/x-ndjson", bytes.NewReader(rec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	mustStatus(t, resp, http.StatusTooManyRequests)
}

// TestConcurrentClientsSmoke hammers one plant from many goroutines —
// ingest, reports, rollups, cube queries, alerts — and relies on -race
// in CI to surface synchronization bugs.
func TestConcurrentClientsSmoke(t *testing.T) {
	p, err := plant.Simulate(plant.Config{
		Seed: 9, Lines: 2, MachinesPerLine: 2, JobsPerMachine: 3,
		PhaseSamples: 20, FaultRate: 0.4, MeasurementErrorRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Shards: 2, QueueDepth: 4, Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-smoke", p))

	recs := machineRecords(p)
	env := envRecords(p)
	var wg sync.WaitGroup
	clients := 6
	per := (len(recs) + clients - 1) / clients
	for c := 0; c < clients; c++ {
		lo := c * per
		hi := lo + per
		if hi > len(recs) {
			hi = len(recs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(chunk []Record) {
			defer wg.Done()
			const sub = 500
			for i := 0; i < len(chunk); i += sub {
				j := i + sub
				if j > len(chunk) {
					j = len(chunk)
				}
				resp := postRetry(t, ts.URL+"/v1/plants/plant-smoke/ingest", "application/x-ndjson", ndjson(chunk[i:j]))
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(recs[lo:hi])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postRetry(t, ts.URL+"/v1/plants/plant-smoke/ingest", "application/x-ndjson", ndjson(env))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	// Readers race the writers.
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for _, path := range []string{
					"/report?level=1&top=5", "/rollup?level=machine", "/alerts", "/stats",
					// The cube evaluator scans the shard cubes the workers
					// are folding into and ranks a job dictionary that grows.
					"/cube?op=rollup&keep=job,sensor", "/cube?op=members&dim=job",
				} {
					resp, err := http.Get(ts.URL + "/v1/plants/plant-smoke" + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	waitDrained(t, ts.URL, "plant-smoke", uint64(len(recs)+len(env)))

	resp, err := http.Get(ts.URL + "/v1/plants/plant-smoke/report?level=1&top=20")
	if err != nil {
		t.Fatal(err)
	}
	var rep ReportResponse
	if err := json.Unmarshal(mustStatus(t, resp, http.StatusOK), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Machines) != len(p.Machines()) {
		t.Fatalf("report covers %d machines, want %d", len(rep.Machines), len(p.Machines()))
	}
}

// TestGracefulShutdownDrains verifies Close drains admitted batches
// and subsequent ingests are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 4, Lines: 1, MachinesPerLine: 2, JobsPerMachine: 2, PhaseSamples: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Shards: 2, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-shut", p))

	recs := machineRecords(p)
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/plant-shut/ingest", "application/x-ndjson", ndjson(recs)),
		http.StatusAccepted)
	srv.Close() // must drain the admitted batch

	ps, _ := srv.plant("plant-shut")
	if got := ps.accepted.Load(); got != uint64(len(recs)) {
		t.Fatalf("after Close accepted=%d, want %d (drain incomplete)", got, len(recs))
	}
	resp, err := http.Post(ts.URL+"/v1/plants/plant-shut/ingest", "application/x-ndjson", bytes.NewReader(ndjson(recs[:1])))
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, resp, http.StatusServiceUnavailable)
}

// TestCSVIngest replays the plantsim wide-row schema, converted on the
// client side and sent as a binary frame.
func TestCSVIngest(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 2, PhaseSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-csv", p))

	var b strings.Builder
	b.WriteString("machine,job,phase,t," + strings.Join(plant.SensorNames, ",") + "\n")
	m := p.Machines()[0]
	rows := 0
	for _, job := range m.Jobs {
		for _, ph := range job.Phases {
			for ti := 0; ti < ph.Sensors.Len(); ti++ {
				fmt.Fprintf(&b, "%s,%s,%s,%d", m.ID, job.ID, ph.Name, ti)
				for _, v := range ph.Sensors.Row(ti) {
					fmt.Fprintf(&b, ",%g", v)
				}
				b.WriteString("\n")
				rows++
			}
		}
	}
	resp := postRetry(t, ts.URL+"/v1/plants/plant-csv/ingest", wire.ContentTypeBinary, csvBinary(t, b.String()))
	var ack struct {
		Records int `json:"records"`
	}
	if err := json.Unmarshal(mustStatus(t, resp, http.StatusAccepted), &ack); err != nil {
		t.Fatal(err)
	}
	if want := rows * len(plant.SensorNames); ack.Records != want {
		t.Fatalf("csv ingest admitted %d records, want %d", ack.Records, want)
	}
	waitDrained(t, ts.URL, "plant-csv", uint64(rows*len(plant.SensorNames)))
	resp, err = http.Get(ts.URL + "/v1/plants/plant-csv/report?level=1&top=5")
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, resp, http.StatusOK)
}

// TestJSONBodiesCarryContentLength pins that the one JSON body writer
// sends a Content-Length equal to the body, not a chunked stream, so a
// client can size its read buffer once: /cube (its own encoder) and
// /report (encoding/json) both.
func TestJSONBodiesCarryContentLength(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 2, PhaseSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-cl", p))
	ingestPlant(t, ts.URL, "plant-cl", p)
	for _, q := range []string{"/cube", "/report?level=phase&top=5"} {
		resp, err := http.Get(ts.URL + "/v1/plants/plant-cl" + q)
		if err != nil {
			t.Fatal(err)
		}
		body := mustStatus(t, resp, http.StatusOK)
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) ||
			resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q (transfer encoding %v), body of %d bytes",
				q, resp.Header.Get("Content-Length"), resp.TransferEncoding, len(body))
		}
	}
}

// TestValidationRejections counts bad records without failing a batch.
func TestValidationRejections(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 1, PhaseSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-val", p))

	m := p.Machines()[0]
	batch := []Record{
		{Machine: m.ID, Job: m.Jobs[0].ID, Phase: "print", Sensor: "temp-a", T: 0, Value: 1},
		{Machine: "ghost", Job: "j", Phase: "print", Sensor: "temp-a", T: 0, Value: 1},
		{Machine: m.ID, Job: m.Jobs[0].ID, Phase: "melt", Sensor: "temp-a", T: 0, Value: 1},
		{Machine: m.ID, Job: m.Jobs[0].ID, Phase: "print", Sensor: "nope", T: 0, Value: 1},
		{Machine: m.ID, Job: m.Jobs[0].ID, Phase: "print", Sensor: "temp-a", T: -1, Value: 1},
	}
	resp := postRetry(t, ts.URL+"/v1/plants/plant-val/ingest", "application/x-ndjson", ndjson(batch))
	var ack struct {
		Records  int `json:"records"`
		Rejected int `json:"rejected"`
	}
	if err := json.Unmarshal(mustStatus(t, resp, http.StatusAccepted), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Records != 1 || ack.Rejected != 4 {
		t.Fatalf("records=%d rejected=%d, want 1/4", ack.Records, ack.Rejected)
	}
}

// TestErrorEnvelopeAndStrictQueries pins satellite behaviour of the
// v1 protocol: every error body is the structured envelope
// {"error":{"code","message"}}, and malformed query integers are a 400
// instead of a silent fall-back to the default.
func TestErrorEnvelopeAndStrictQueries(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 1, PhaseSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-env", p))

	envelope := func(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		body := mustStatus(t, resp, wantStatus)
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("error body is not the envelope: %v (%s)", err, body)
		}
		if env.Err.Code != wantCode {
			t.Fatalf("error code %q, want %q (%s)", env.Err.Code, wantCode, body)
		}
		if env.Err.Message == "" {
			t.Fatalf("empty error message: %s", body)
		}
	}

	// Unknown plant → unknown_plant.
	resp, err := http.Get(ts.URL + "/v1/plants/ghost/stats")
	if err != nil {
		t.Fatal(err)
	}
	envelope(t, resp, http.StatusNotFound, wire.CodeUnknownPlant)

	// Malformed ?top and ?limit → bad_request, not the default.
	for _, path := range []string{
		"/v1/plants/plant-env/report?top=banana",
		"/v1/plants/plant-env/report?top=-3",
		"/v1/plants/plant-env/alerts?limit=1.5",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		envelope(t, resp, http.StatusBadRequest, wire.CodeBadRequest)
	}

	// Double registration → already_registered.
	buf, _ := json.Marshal(topoFromPlant("plant-env", p))
	resp, err = http.Post(ts.URL+"/v1/plants", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	envelope(t, resp, http.StatusConflict, wire.CodeAlreadyRegistered)

	// Report before any data → no_data.
	resp, err = http.Get(ts.URL + "/v1/plants/plant-env/report")
	if err != nil {
		t.Fatal(err)
	}
	envelope(t, resp, http.StatusConflict, wire.CodeNoData)

	// Undecodable ingest body → bad_request.
	resp, err = http.Post(ts.URL+"/v1/plants/plant-env/ingest", "application/x-ndjson", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	envelope(t, resp, http.StatusBadRequest, wire.CodeBadRequest)

	// A bad NDJSON line names the line and the key in the message, not
	// encoding/json's Go type names.
	m := p.Machines()[0]
	resp, err = http.Post(ts.URL+"/v1/plants/plant-env/ingest", "application/x-ndjson", strings.NewReader(
		fmt.Sprintf(`{"machine":%q,"job":"j","phase":"print","sensor":"temp-a","t":0,"value":1}`+"\n"+
			`{"machine":%q,"job":"j","phase":"print","sensor":"temp-a","t":"1","value":1}`+"\n", m.ID, m.ID)))
	if err != nil {
		t.Fatal(err)
	}
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(mustStatus(t, resp, http.StatusBadRequest), &env); err != nil {
		t.Fatal(err)
	}
	if msg := env.Err.Message; env.Err.Code != wire.CodeBadRequest || !strings.Contains(msg, "ndjson line 2") ||
		!strings.Contains(msg, `"t"`) || strings.Contains(msg, "Go struct field") {
		t.Fatalf("bad line answered %q: %q", env.Err.Code, msg)
	}
}

// TestCorrectedValueReachesSnapshot re-sends an existing cell with a
// different value and checks the next snapshot serves the correction
// (the streaming roll-up intentionally keeps first-seen values only).
func TestCorrectedValueReachesSnapshot(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 8, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 1, PhaseSamples: 6})
	if err != nil {
		t.Fatal(err)
	}
	topo := topoWithDefaults(topoFromPlant("corr", p))
	ps := newPlantState(topo)
	ps.start(1, 8, 1e9)
	defer ps.close()

	m := p.Machines()[0]
	cell := Record{Machine: m.ID, Job: m.Jobs[0].ID, Phase: "print", Sensor: "temp-a", T: 0, Value: 100}
	push := func(rec Record) {
		t.Helper()
		refs, rejected, firstErr := resolveAsFrame(ps, []Record{rec})
		if rejected != 0 {
			t.Fatalf("record rejected: %s", firstErr)
		}
		if !ps.shards[ps.shardOf[refs[0].machine]].q.TryPush(shardBatch{refs: refs}) {
			t.Fatal("push failed")
		}
	}
	push(cell)
	waitRev := func(min uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for ps.dataRev.Load() < min {
			if time.Now().After(deadline) {
				t.Fatalf("dataRev stuck at %d, want >= %d", ps.dataRev.Load(), min)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitRev(1)
	ps.reportMu.Lock()
	v, err := ps.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	am, err := v.plant.MachineByID(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := am.Jobs[0].Phases[0].Sensors.Dim("temp-a").Values[0]; got != 100 {
		t.Fatalf("initial value %v, want 100", got)
	}
	ps.reportMu.Unlock()

	// Correction: same cell, new value — not fresh, but must still
	// reach the next snapshot.
	cell.Value = 200
	push(cell)
	waitRev(2)
	ps.reportMu.Lock()
	defer ps.reportMu.Unlock()
	if v, err = ps.snapshot(); err != nil {
		t.Fatal(err)
	}
	am, err = v.plant.MachineByID(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := am.Jobs[0].Phases[0].Sensors.Dim("temp-a").Values[0]; got != 200 {
		t.Fatalf("corrected value %v did not reach the snapshot, want 200", got)
	}
}

// TestReplaySurvivesUnknownMachine is the successor of the old
// shard-worker nil-deref regression test: a WAL ref frame can name a
// machine the replaying plant does not register (a shipped log, a
// hand-edited meta.json). Interning makes the crash structurally
// impossible — an unresolvable record never becomes a recordRef — but
// the replay path must still count it as rejected and keep folding the
// rest of the entry.
func TestReplaySurvivesUnknownMachine(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 2, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 1, PhaseSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	topo := topoWithDefaults(topoFromPlant("plant-ghost", p))
	ps := newPlantState(topo)
	ps.makeShards(1, 8)
	ps.alertThreshold = 1e9
	defer ps.close()

	// A WAL ref entry is the tag plus a frame without its length prefix.
	replay := func(recs []Record) {
		t.Helper()
		if err := ps.replayPayload(append([]byte{walRefTag}, binaryBody(t, recs)[4:]...)); err != nil {
			t.Fatal(err)
		}
	}
	m := p.Machines()[0]
	replay([]Record{
		{Machine: "ghost", Job: "j", Phase: "print", Sensor: "temp-a", T: 0, Value: 1},
		{Machine: m.ID, Job: m.Jobs[0].ID, Phase: "print", Sensor: "temp-a", T: 0, Value: 1},
	})
	if got := ps.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	if got := ps.received.Load(); got != 1 {
		t.Fatalf("received = %d, want 1", got)
	}
	if got := ps.accepted.Load(); got != 1 {
		t.Fatalf("accepted = %d, want 1", got)
	}
	// Replay keeps folding after the drift: a second entry lands too.
	replay([]Record{
		{Machine: m.ID, Job: m.Jobs[0].ID, Phase: "print", Sensor: "temp-a", T: 1, Value: 2},
	})
	if got := ps.accepted.Load(); got != 2 {
		t.Fatalf("accepted = %d, want 2", got)
	}
}

// TestRollupUnencodableAnswersEnvelope: two admitted, finite samples
// (1e200 and -1e200 in one leaf) take the leaf's second moment to +Inf,
// which encoding/json refuses. The response must still be JSON — the
// internal-error envelope — not a 200 whose body the encoder abandoned
// after the header went out.
func TestRollupUnencodableAnswersEnvelope(t *testing.T) {
	srv := New(Options{Shards: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, binaryTestTopo())
	recs := []Record{
		{Machine: "m0", Job: "j", Phase: "heat", Sensor: "temp", T: 0, Value: 1e200},
		{Machine: "m0", Job: "j", Phase: "heat", Sensor: "temp", T: 1, Value: -1e200},
	}
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/plant-intern/ingest", "application/x-ndjson", ndjson(recs)), http.StatusAccepted)
	waitDrained(t, ts.URL, "plant-intern", 2)

	resp, err := http.Get(ts.URL + "/v1/plants/plant-intern/rollup?level=plant")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("status %d with a body that is not JSON (%q): %v", resp.StatusCode, body, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || env.Err.Code != wire.CodeInternal {
		t.Fatalf("status %d body %s, want the 500 internal envelope", resp.StatusCode, body)
	}
	// The plant keeps serving what does encode.
	var cr wire.CubeResponse
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/plants/plant-intern/cube"), &cr); err != nil || len(cr.Cells) != 1 {
		t.Fatalf("cube after the poisoned roll-up: %+v, %v", cr, err)
	}
}

// TestVectorDimsRejected pins the oversized setup/CAQ contract: the
// batch is refused with the structured 400 envelope and the dedicated
// vector_dims code instead of being silently truncated by padVector.
func TestVectorDimsRejected(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 1, PhaseSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-dims", p))

	m := p.Machines()[0]
	long := make([]float64, wire.DefaultSetupDims+1)
	metas, _ := json.Marshal([]JobMeta{{Machine: m.ID, Job: m.Jobs[0].ID, Setup: long}})
	resp, err := http.Post(ts.URL+"/v1/plants/plant-dims/jobs", "application/json", bytes.NewReader(metas))
	if err != nil {
		t.Fatal(err)
	}
	body := mustStatus(t, resp, http.StatusBadRequest)
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not the error envelope: %s", body)
	}
	if env.Err.Code != wire.CodeVectorDims {
		t.Fatalf("error code %q, want %q", env.Err.Code, wire.CodeVectorDims)
	}
	// Oversized CAQ trips the same gate.
	metas, _ = json.Marshal([]JobMeta{{Machine: m.ID, Job: m.Jobs[0].ID, CAQ: make([]float64, wire.DefaultCAQDims+1)}})
	resp, err = http.Post(ts.URL+"/v1/plants/plant-dims/jobs", "application/json", bytes.NewReader(metas))
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, resp, http.StatusBadRequest)
	// An exact-width vector is still welcome.
	metas, _ = json.Marshal([]JobMeta{{Machine: m.ID, Job: m.Jobs[0].ID,
		Setup: make([]float64, wire.DefaultSetupDims), CAQ: make([]float64, wire.DefaultCAQDims)}})
	resp, err = http.Post(ts.URL+"/v1/plants/plant-dims/jobs", "application/json", bytes.NewReader(metas))
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, resp, http.StatusAccepted)
}

// TestAlertRingWraparound pins recentAlerts ordering across the ring's
// wrap: oldest first, newest last, and a limit keeps the newest.
func TestAlertRingWraparound(t *testing.T) {
	ps := &plantState{}
	const extra = 100
	for i := 0; i < alertRingCap+extra; i++ {
		ps.pushAlert(Alert{T: i})
	}
	all := ps.recentAlerts(0)
	if len(all) != alertRingCap {
		t.Fatalf("ring holds %d alerts, want %d", len(all), alertRingCap)
	}
	if all[0].T != extra {
		t.Fatalf("oldest alert T=%d, want %d (ring did not evict oldest-first)", all[0].T, extra)
	}
	for i := 1; i < len(all); i++ {
		if all[i].T != all[i-1].T+1 {
			t.Fatalf("alerts out of order at %d: T=%d after T=%d", i, all[i].T, all[i-1].T)
		}
	}
	last := ps.recentAlerts(10)
	if len(last) != 10 || last[9].T != alertRingCap+extra-1 || last[0].T != alertRingCap+extra-10 {
		t.Fatalf("limit window wrong: first T=%d last T=%d", last[0].T, last[9].T)
	}
	// Before the ring fills, order is insertion order.
	small := &plantState{}
	for i := 0; i < 5; i++ {
		small.pushAlert(Alert{T: i})
	}
	got := small.recentAlerts(0)
	if len(got) != 5 || got[0].T != 0 || got[4].T != 4 {
		t.Fatalf("unfilled ring order wrong: %+v", got)
	}
}

// TestReceivedRecordsCountsIdempotentReplay pins the drain-watcher
// contract: re-sending an already-ingested trace advances
// received_records (accepted_records stays put), so WaitDrained-style
// polling terminates on replays.
func TestReceivedRecordsCountsIdempotentReplay(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 4, Lines: 1, MachinesPerLine: 2, JobsPerMachine: 2, PhaseSamples: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Shards: 2, QueueDepth: 16})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-replay", p))

	recs := machineRecords(p)
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/plant-replay/ingest", "application/x-ndjson", ndjson(recs)),
		http.StatusAccepted)
	waitDrained(t, ts.URL, "plant-replay", uint64(len(recs)))

	// Replay the identical trace: every record is an idempotent
	// overwrite, yet the drain target is still reached.
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/plant-replay/ingest", "application/x-ndjson", ndjson(recs)),
		http.StatusAccepted)
	waitDrained(t, ts.URL, "plant-replay", uint64(2*len(recs)))

	var st struct {
		Accepted uint64 `json:"accepted_records"`
		Received uint64 `json:"received_records"`
	}
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/plants/plant-replay/stats"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != uint64(len(recs)) {
		t.Fatalf("accepted = %d, want %d (replay must not double-count fresh cells)", st.Accepted, len(recs))
	}
	if st.Received != uint64(2*len(recs)) {
		t.Fatalf("received = %d, want %d", st.Received, 2*len(recs))
	}
}
