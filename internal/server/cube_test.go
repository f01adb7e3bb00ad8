package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/olap"
	"repro/internal/plant"
	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// plantCSVBodies renders the whole machine trace as plantsim-schema CSV
// bodies, one per machine — "the same CSVs" both the HTTP replay and
// the offline cube are built from.
func plantCSVBodies(p *plant.Plant) []string {
	var out []string
	for _, m := range p.Machines() {
		var b strings.Builder
		b.WriteString("machine,job,phase,t," + strings.Join(plant.SensorNames, ",") + "\n")
		for _, job := range m.Jobs {
			for _, ph := range job.Phases {
				for ti := 0; ti < ph.Sensors.Len(); ti++ {
					fmt.Fprintf(&b, "%s,%s,%s,%d", m.ID, job.ID, ph.Name, ti)
					for _, v := range ph.Sensors.Row(ti) {
						fmt.Fprintf(&b, ",%g", v)
					}
					b.WriteString("\n")
				}
			}
		}
		out = append(out, b.String())
	}
	return out
}

// cubeQueries is the query battery every cube equality check runs:
// full slice, per-dimension constraints, roll-ups, drill-downs, and a
// members listing.
func cubeQueries(p *plant.Plant) []string {
	m0 := p.Machines()[0].ID
	return []string{
		"/cube",
		"/cube?op=slice&where=" + url.QueryEscape("machine="+m0),
		"/cube?op=slice&where=" + url.QueryEscape("phase=print") + "&where=" + url.QueryEscape("sensor=temp-a"),
		"/cube?op=rollup&keep=line,sensor",
		"/cube?op=rollup&keep=machine",
		"/cube?op=rollup&keep=phase&where=" + url.QueryEscape("line="+p.Lines[0].ID),
		"/cube?op=drilldown&dim=machine&where=" + url.QueryEscape("line="+p.Lines[0].ID),
		"/cube?op=drilldown&dim=phase&where=" + url.QueryEscape("machine="+m0),
		"/cube?op=members&dim=sensor",
	}
}

// offlineCubeResponse evaluates one /cube query string against a
// batch-built SDK cube and renders it exactly like the server does —
// the byte-identical expectation.
func offlineCubeResponse(t *testing.T, cube *hod.Cube, plantID, query string) []byte {
	t.Helper()
	u, err := url.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	vals := u.Query()
	q := hod.CubeQuery{Op: vals.Get("op"), Dim: vals.Get("dim")}
	if keep := vals.Get("keep"); keep != "" {
		q.Keep = strings.Split(keep, ",")
	}
	if raw := vals["where"]; len(raw) > 0 {
		q.Where = map[string]string{}
		for _, w := range raw {
			dim, member, _ := strings.Cut(w, "=")
			q.Where[dim] = member
		}
	}
	resp, err := cube.Query(q)
	if err != nil {
		t.Fatalf("offline %s: %v", query, err)
	}
	resp.Plant = plantID
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCubeE2ECrashRecoveryMatchesOffline is the cube acceptance test:
// a plantsim-schema CSV trace replayed over HTTP as `hodctl replay`
// sends it (converted to binary frames) — with the server killed and
// restarted from its data dir mid-trace — must answer every cube query
// byte-identical to a cube built offline from the same CSVs.
func TestCubeE2ECrashRecoveryMatchesOffline(t *testing.T) {
	p, err := plant.Simulate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const plantID = "plant-cube"
	topo := topoWithDefaults(topoFromPlant(plantID, p))
	bodies := plantCSVBodies(p)

	// Offline reference: decode the same CSV bodies and batch-build the
	// SDK cube.
	var recs []wire.Record
	for _, body := range bodies {
		recs = append(recs, csvRecords(t, body)...)
	}
	offline, err := hod.CubeFromRecords(topo, recs)
	if err != nil {
		t.Fatal(err)
	}

	// Victim: durable, killed after the first 60% of the machines'
	// CSVs; the tail is ingested after recovery, so the final cube
	// mixes snapshot/WAL-recovered cells with live-folded ones.
	dataDir := t.TempDir()
	victim := New(durableOptions(dataDir))
	if err := victim.Open(); err != nil {
		t.Fatal(err)
	}
	tsV := httptest.NewServer(victim.Handler())
	register(t, tsV.URL, topo)
	cut := len(bodies) * 6 / 10
	for _, body := range bodies[:cut] {
		mustStatus(t, postRetry(t, tsV.URL+"/v1/plants/"+plantID+"/ingest", wire.ContentTypeBinary, csvBinary(t, body)),
			http.StatusAccepted)
	}
	tsV.Close()
	victim.Kill() // no drain, no final snapshot

	restarted := New(durableOptions(dataDir))
	if err := restarted.Open(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer restarted.Close()
	tsR := httptest.NewServer(restarted.Handler())
	defer tsR.Close()
	for _, body := range bodies[cut:] {
		mustStatus(t, postRetry(t, tsR.URL+"/v1/plants/"+plantID+"/ingest", wire.ContentTypeBinary, csvBinary(t, body)),
			http.StatusAccepted)
	}
	waitDrained(t, tsR.URL, plantID, uint64(len(recs)))

	for _, q := range cubeQueries(p) {
		want := offlineCubeResponse(t, offline, plantID, q)
		got := getBody(t, tsR.URL+"/v1/plants/"+plantID+q)
		if !bytes.Equal(want, got) {
			t.Fatalf("%s differs from the offline cube:\noffline: %s\nserved:  %s", q, want, got)
		}
	}

	// A second restart serves from the re-baselined snapshot (Close
	// compacted the WAL) and still matches offline, byte for byte.
	restarted.Close()
	third := New(durableOptions(dataDir))
	if err := third.Open(); err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	defer third.Close()
	tsT := httptest.NewServer(third.Handler())
	defer tsT.Close()
	for _, q := range cubeQueries(p) {
		want := offlineCubeResponse(t, offline, plantID, q)
		got := getBody(t, tsT.URL+"/v1/plants/"+plantID+q)
		if !bytes.Equal(want, got) {
			t.Fatalf("%s differs after snapshot-based restart", q)
		}
	}
}

// TestCubeQueryValidation pins the 400 envelope for malformed cube
// queries.
func TestCubeQueryValidation(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 1, PhaseSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-cq", p))

	for name, q := range map[string]string{
		"unknown op":        "?op=pivot",
		"unknown where dim": "?where=galaxy%3Dg",
		"bad where":         "?where=machine",
		"dup where":         "?where=phase%3Dprint&where=phase%3Dmelt",
		"rollup no keep":    "?op=rollup",
		"unknown keep":      "?op=rollup&keep=galaxy",
		"members no dim":    "?op=members",
		"drill pinned dim":  "?op=drilldown&dim=line&where=line%3Dl",
	} {
		resp, err := http.Get(ts.URL + "/v1/plants/plant-cq/cube" + q)
		if err != nil {
			t.Fatal(err)
		}
		body := mustStatus(t, resp, http.StatusBadRequest)
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Err.Code != wire.CodeBadRequest {
			t.Fatalf("%s: error body %s", name, body)
		}
	}

	// An empty plant answers with an empty cube, not an error.
	resp, err := http.Get(ts.URL + "/v1/plants/plant-cq/cube")
	if err != nil {
		t.Fatal(err)
	}
	var cr wire.CubeResponse
	if err := json.Unmarshal(mustStatus(t, resp, http.StatusOK), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.TotalCells != 0 || len(cr.Cells) != 0 || cr.Op != wire.CubeOpSlice {
		t.Fatalf("empty cube response %+v", cr)
	}

	// With one cell folded: a where member the plant never saw, and
	// registered members no cell combines, are empty 200s — cells
	// absent, the constraint echoed, total_cells the whole cube.
	m := p.Machines()[0]
	csv := "machine,job,phase,t,temp-a\n" + fmt.Sprintf("%s,%s,print,0,1.5\n", m.ID, m.Jobs[0].ID)
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/plant-cq/ingest", wire.ContentTypeBinary, csvBinary(t, csv)), http.StatusAccepted)
	waitDrained(t, ts.URL, "plant-cq", 1)
	const dims = `"dims":["line","machine","job","phase","sensor"]`
	for q, want := range map[string]string{
		"?where=machine%3Dghost": `{"plant":"plant-cq","op":"slice",` + dims + `,"where":["machine=ghost"],"total_cells":1}` + "\n",
		"?where=phase%3Dcooldown&where=sensor%3Dtemp-a": `{"plant":"plant-cq","op":"slice",` + dims +
			`,"where":["phase=cooldown","sensor=temp-a"],"total_cells":1}` + "\n",
	} {
		if got := getBody(t, ts.URL+"/v1/plants/plant-cq/cube"+q); string(got) != want {
			t.Fatalf("%s:\ngot  %swant %s", q, got, want)
		}
	}
}

// TestCubeNegotiation: /cube answers the binary body only to a request
// whose Accept header names it, and to any other the JSON the offline
// cube renders, byte for byte; both carry Vary: Accept. An error is the
// JSON envelope whatever was asked for, and the SDK, which asks only
// for the binary body, surfaces it as the *APIError it always did.
func TestCubeNegotiation(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 2, MachinesPerLine: 2, JobsPerMachine: 2, PhaseSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	const plantID = "plant-neg"
	topo := topoWithDefaults(topoFromPlant(plantID, p))
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topo)
	register(t, ts.URL, topoWithDefaults(Topology{ID: "plant-of", Lines: []TopoLine{{ID: "l", Machines: []string{"l/m1", "l/m2"}}}}))
	recs := machineRecords(p)
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/"+plantID+"/ingest", "application/x-ndjson", ndjson(recs)), http.StatusAccepted)
	overflow := []Record{
		{Machine: "l/m1", Job: "j1", Phase: "print", Sensor: "temp-a", Value: 1e308},
		{Machine: "l/m2", Job: "j1", Phase: "print", Sensor: "temp-a", Value: 1e308},
	}
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/plant-of/ingest", "application/x-ndjson", ndjson(overflow)), http.StatusAccepted)
	waitDrained(t, ts.URL, plantID, uint64(len(recs)))
	waitDrained(t, ts.URL, "plant-of", uint64(len(overflow)))
	offline, err := hod.CubeFromRecords(topo, recs)
	if err != nil {
		t.Fatal(err)
	}

	get := func(path, accept string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, q := range cubeQueries(p) {
		path := "/v1/plants/" + plantID + q
		want := offlineCubeResponse(t, offline, plantID, q)
		for _, accept := range []string{"", "*/*", "application/json", "text/html, application/json;q=0.9"} {
			resp := get(path, accept)
			body := mustStatus(t, resp, http.StatusOK)
			if ct, vary := resp.Header.Get("Content-Type"), resp.Header.Get("Vary"); ct != "application/json" || vary != "Accept" || !bytes.Equal(body, want) {
				t.Fatalf("%s, Accept %q: %s (Vary %q)\n got %s\nwant %s", q, accept, ct, vary, body, want)
			}
		}
		var wantVal wire.CubeResponse
		if err := json.Unmarshal(want, &wantVal); err != nil {
			t.Fatal(err)
		}
		for _, accept := range []string{wire.ContentTypeCube, "application/json;q=0.5, APPLICATION/X-HOD-CUBE;q=1"} {
			resp := get(path, accept)
			body := mustStatus(t, resp, http.StatusOK)
			if ct, vary := resp.Header.Get("Content-Type"), resp.Header.Get("Vary"); ct != wire.ContentTypeCube || vary != "Accept" {
				t.Fatalf("%s, Accept %q: Content-Type %q, Vary %q", q, accept, ct, vary)
			}
			if got, err := wire.DecodeCubeBinary(body); err != nil || !reflect.DeepEqual(got, wantVal) {
				t.Fatalf("%s, Accept %q: binary body decodes to %+v (%v), want %+v", q, accept, got, err, wantVal)
			}
		}
	}

	client := hod.NewClient(ts.URL)
	for _, c := range []struct {
		plant  string
		q      hod.CubeQuery
		status int
		code   string
	}{
		{plantID, hod.CubeQuery{Where: map[string]string{"galaxy": "g"}}, http.StatusBadRequest, wire.CodeBadRequest},
		{"plant-of", hod.CubeQuery{Op: wire.CubeOpRollup, Keep: []string{"sensor"}}, http.StatusInternalServerError, wire.CodeInternal},
	} {
		resp := get("/v1/plants/"+c.plant+"/cube?"+c.q.Encode().Encode(), wire.ContentTypeCube)
		body := mustStatus(t, resp, c.status)
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || resp.Header.Get("Content-Type") != "application/json" || env.Err.Code != c.code {
			t.Fatalf("%+v: %s %s", c.q, resp.Header.Get("Content-Type"), body)
		}
		_, err := client.Cube(context.Background(), c.plant, c.q)
		var apiErr *hod.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != c.status || apiErr.Code != c.code || apiErr.Message != env.Err.Message {
			t.Fatalf("%+v: client error %v, want %d %s %q", c.q, err, c.status, c.code, env.Err.Message)
		}
	}
}

// TestCubeSliceAllocatesWithAnswerNotCube: once a record has advanced
// the data revision, a machine slice must cost what its answer costs —
// the evaluator scans the shard cubes in place and translates only the
// matching cells — not a rebuild of all N cells.
func TestCubeSliceAllocatesWithAnswerNotCube(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 4, MachinesPerLine: 8, JobsPerMachine: 4, PhaseSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Shards: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-alloc", p))
	recs := machineRecords(p)
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/plant-alloc/ingest", "application/x-ndjson", ndjson(recs)), http.StatusAccepted)
	waitDrained(t, ts.URL, "plant-alloc", uint64(len(recs)))

	m0 := p.Machines()[0].ID
	path := "/v1/plants/plant-alloc/cube?where=" + url.QueryEscape("machine="+m0)
	var cr wire.CubeResponse
	if err := json.Unmarshal(getBody(t, ts.URL+path), &cr); err != nil {
		t.Fatal(err)
	}
	n := cr.TotalCells
	if want := 32 * 4 * len(plant.PhaseNames) * len(plant.SensorNames); n != want || len(cr.Cells) != n/32 {
		t.Fatalf("cube has %d cells (want %d), slice %d", n, want, len(cr.Cells))
	}

	// One more record — a fresh sample in an existing cell, so N
	// stays put — makes every query that follows run at a new revision.
	more := recs[len(recs)-1]
	more.T++
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/plant-alloc/ingest", "application/x-ndjson", ndjson([]Record{more})), http.StatusAccepted)
	waitDrained(t, ts.URL, "plant-alloc", uint64(len(recs)+1))

	handler := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	allocs := testing.AllocsPerRun(20, func() {
		// A new revision per run: bump it the way a fold does.
		srv.plants["plant-alloc"].dataRev.Add(1)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
	if bound := float64(n) / 4; allocs >= bound {
		t.Fatalf("machine slice of %d cells out of %d allocates %.0f times per request, want < %.0f", n/32, n, allocs, bound)
	}
}

// TestCubeSkipsNonFiniteRecords: a NaN sample in a CSV batch is
// rejected by ingest validation (the PR 4 non-finite policy) and never
// reaches the cube — the cube's own ErrNonFinite gate is the second
// line of defence.
func TestCubeSkipsNonFiniteRecords(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 1, PhaseSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-nan", p))

	m := p.Machines()[0]
	csv := "machine,job,phase,t,temp-a\n" +
		fmt.Sprintf("%s,%s,print,0,1.5\n", m.ID, m.Jobs[0].ID) +
		fmt.Sprintf("%s,%s,print,1,NaN\n", m.ID, m.Jobs[0].ID)
	resp := postRetry(t, ts.URL+"/v1/plants/plant-nan/ingest", wire.ContentTypeBinary, csvBinary(t, csv))
	var ack wire.IngestAck
	if err := json.Unmarshal(mustStatus(t, resp, http.StatusAccepted), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Records != 1 || ack.Rejected != 1 {
		t.Fatalf("ack %+v, want 1 admitted / 1 rejected", ack)
	}
	waitDrained(t, ts.URL, "plant-nan", 1)

	var cr wire.CubeResponse
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/plants/plant-nan/cube"), &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Cells) != 1 || cr.Cells[0].Count != 1 || cr.Cells[0].Sum != 1.5 {
		t.Fatalf("cube cells %+v, want the single finite sample", cr.Cells)
	}
}

// TestCubeSumOverflowAnswers500: two accepted samples of 1e308 on two
// machines roll up onto their shared sensor with a sum past float64's
// range. The question is valid and the data was accepted, so the
// refusal is the server's limit — 500 with the internal code — and not
// a 400 that blames the client. Questions whose groups do not overflow
// still answer.
func TestCubeSumOverflowAnswers500(t *testing.T) {
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoWithDefaults(Topology{ID: "plant-of", Lines: []TopoLine{{ID: "l", Machines: []string{"l/m1", "l/m2"}}}}))
	recs := []Record{
		{Machine: "l/m1", Job: "j1", Phase: "print", Sensor: "temp-a", T: 0, Value: 1e308},
		{Machine: "l/m2", Job: "j1", Phase: "print", Sensor: "temp-a", T: 0, Value: 1e308},
	}
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/plant-of/ingest", "application/x-ndjson", ndjson(recs)), http.StatusAccepted)
	waitDrained(t, ts.URL, "plant-of", uint64(len(recs)))

	for _, q := range []string{"?op=rollup&keep=sensor", "?op=drilldown&dim=phase"} {
		resp, err := http.Get(ts.URL + "/v1/plants/plant-of/cube" + q)
		if err != nil {
			t.Fatal(err)
		}
		body := mustStatus(t, resp, http.StatusInternalServerError)
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Err.Code != wire.CodeInternal || !strings.Contains(env.Err.Message, "sum overflow") {
			t.Fatalf("%s: error body %s", q, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/plants/plant-of/cube?op=rollup&keep=machine")
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, resp, http.StatusOK)
}

// TestRestoreRejectsMalformedCells: a forged backup cannot smuggle a
// malformed cube cell past the gate — a cell beyond the sensor columns,
// beside a column without samples, with a negative count or a
// non-finite aggregate — all refused with the generic bad_request code,
// never silently dropped by the decoder.
// A cell carries no coordinate of its own: its machine, job, phase and
// sensor are where it sits, vetted with the store
// (TestRestoreValidatesJobVectors).
func TestRestoreRejectsMalformedCells(t *testing.T) {
	restoreForged(t, forgedCubeCases)
}

// TestControlCharIdentifiersRejected: cube coordinates are built from
// registered identifiers and the free-form job id; a member carrying
// the cube's reserved 0x1f key separator could collide two distinct
// coordinates onto one cell, so both registration and ingest refuse
// control characters.
func TestControlCharIdentifiersRejected(t *testing.T) {
	// Registration: a phase with the separator is a 400.
	bad := topoWithDefaults(Topology{ID: "ctl", Lines: []TopoLine{{ID: "l", Machines: []string{"l/m1"}}}})
	bad.Phases = append(bad.Phases, "print\x1fx")
	if err := bad.Validate(); err == nil {
		t.Fatal("topology with a control-character phase validated")
	}

	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 1, PhaseSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-ctl", p))

	// Ingest: a job id with the separator is rejected per-record.
	m := p.Machines()[0]
	batch := []Record{{Machine: m.ID, Job: "j\x1fx", Phase: "print", Sensor: "temp-a", T: 0, Value: 1}}
	resp := postRetry(t, ts.URL+"/v1/plants/plant-ctl/ingest", "application/x-ndjson", ndjson(batch))
	var ack wire.IngestAck
	if err := json.Unmarshal(mustStatus(t, resp, http.StatusAccepted), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Records != 0 || ack.Rejected != 1 {
		t.Fatalf("ack %+v, want the control-character job rejected", ack)
	}
}

// TestRollupLevelEchoesComputed pins the resolved-level contract: the
// echoed Level is the one rollup computed, including the default.
func TestRollupLevelEchoesComputed(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 1, PhaseSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	topo := topoWithDefaults(topoFromPlant("plant-echo", p))
	ps := newPlantState(topo)
	ps.makeShards(1, 1)
	level, _, err := ps.rollup("")
	if err != nil || level != "plant" {
		t.Fatalf("rollup(\"\") resolved to %q, %v; want plant", level, err)
	}
	level, _, err = ps.rollup("sensor")
	if err != nil || level != "sensor" {
		t.Fatalf("rollup(sensor) resolved to %q, %v", level, err)
	}

	srv := New(Options{})
	defer srv.Close()
	srv.plants["plant-echo"] = ps
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for query, want := range map[string]string{"": "plant", "?level=machine": "machine"} {
		var rr wire.RollupResponse
		if err := json.Unmarshal(getBody(t, ts.URL+"/v1/plants/plant-echo/rollup"+query), &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Level != want {
			t.Fatalf("rollup%s echoed level %q, want %q", query, rr.Level, want)
		}
	}
}

// TestCubePinnedScanVisitsOnlyPinnedMachines: a question pinning a line
// or a machine walks only the cells of the machine stores it names —
// the rest add their count, so TotalCells still counts the whole cube —
// and answers exactly as a walk of every store does.
func TestCubePinnedScanVisitsOnlyPinnedMachines(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 3, Lines: 2, MachinesPerLine: 3, JobsPerMachine: 2, PhaseSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	ps := newPlantState(topoWithDefaults(topoFromPlant("plant-pins", p)))
	ps.makeShards(2, 8)
	ps.alertThreshold = 1e18
	foldPlant(t, ps, machineRecords(p))

	perMachine := 2 * len(plant.PhaseNames) * len(plant.SensorNames)
	all := len(p.Machines()) * perMachine
	m0, line0 := p.Machines()[0].ID, p.Lines[0].ID
	for _, c := range []struct {
		q        olap.Query
		machines int // stores the scan may walk
	}{
		{olap.Query{Where: map[string]string{"machine": m0}}, 1},
		{olap.Query{Where: map[string]string{"line": line0}}, len(p.Lines[0].Machines)},
		{olap.Query{Where: map[string]string{"line": line0, "machine": m0}}, 1},
		{olap.Query{Op: wire.CubeOpDrilldown, Dim: "job", Where: map[string]string{"machine": m0, "phase": plant.PhaseNames[0]}}, 1},
		{olap.Query{Op: wire.CubeOpRollup, Keep: []string{"sensor"}, Where: map[string]string{"line": line0}}, len(p.Lines[0].Machines)},
		{olap.Query{Where: map[string]string{"phase": plant.PhaseNames[0]}}, len(p.Machines())},
	} {
		visits := 0
		pinned := ps.cubeView()
		scan := pinned.Scan
		pinned.Scan = func(pins []olap.Pin, visit func(*olap.IntCell)) int {
			if visit == nil {
				return scan(pins, nil)
			}
			return scan(pins, func(c *olap.IntCell) { visits++; visit(c) })
		}
		full := ps.cubeView()
		full.Scan = func(_ []olap.Pin, visit func(*olap.IntCell)) int { return scan(nil, visit) }

		got, err := pinned.Answer(c.q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.Answer(c.q)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%+v: a pinned scan answers\n%s\na full one\n%s", c.q, gotJSON, wantJSON)
		}
		if got.TotalCells != all {
			t.Fatalf("%+v: TotalCells %d, the cube holds %d", c.q, got.TotalCells, all)
		}
		if want := c.machines * perMachine; visits != want {
			t.Fatalf("%+v: the scan visited %d cells, want the %d of %d machine(s)", c.q, visits, want, c.machines)
		}
	}
}
