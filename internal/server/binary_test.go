package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/gateway"
	"repro/internal/plant"
	"repro/pkg/hod/wire"
)

func binaryBody(t *testing.T, recs []Record) []byte {
	t.Helper()
	body, err := wire.EncodeBinary(recs)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postBinaryChunks(t *testing.T, base, plantID string, chunks [][]Record) {
	t.Helper()
	for _, c := range chunks {
		resp := postRetry(t, base+"/v1/plants/"+plantID+"/ingest", wire.ContentTypeBinary, binaryBody(t, c))
		mustStatus(t, resp, http.StatusAccepted)
	}
}

// TestBinaryIngestByteIdenticalToNDJSON is the binary-path acceptance
// test: the same trace replayed as binary columnar frames into a
// durable server answers every query byte-identically to an NDJSON
// replay into an in-memory control — and keeps doing so after a kill
// and a WAL-replay restart, proving the binary frames logged verbatim
// in the WAL rebuild the exact same state.
func TestBinaryIngestByteIdenticalToNDJSON(t *testing.T) {
	p, err := plant.Simulate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const plantID = "plant-binary"
	topo := topoFromPlant(plantID, p)
	chunks := traceChunks(p, 1500)
	total := 0
	for _, c := range chunks {
		total += len(c)
	}

	// Control: uninterrupted, in-memory, NDJSON.
	control := New(Options{Shards: 3, QueueDepth: 64, Workers: 2})
	defer control.Close()
	tsC := httptest.NewServer(control.Handler())
	defer tsC.Close()
	register(t, tsC.URL, topo)
	postChunks(t, tsC.URL, plantID, chunks)
	postJobs(t, tsC.URL, plantID, p)
	waitDrained(t, tsC.URL, plantID, uint64(total))

	// Subject: durable, binary frames all the way down.
	dataDir := t.TempDir()
	subject := New(durableOptions(dataDir))
	if err := subject.Open(); err != nil {
		t.Fatal(err)
	}
	tsS := httptest.NewServer(subject.Handler())
	register(t, tsS.URL, topo)
	postBinaryChunks(t, tsS.URL, plantID, chunks)
	postJobs(t, tsS.URL, plantID, p)
	waitDrained(t, tsS.URL, plantID, uint64(total))

	queries := []string{
		"/report?level=1&top=512",
		"/report?level=2&top=64",
		"/report?level=4",
		"/rollup?level=sensor",
		"/rollup?level=machine",
		"/rollup?level=plant",
		"/cube?op=slice",
		"/cube?op=rollup&keep=machine,sensor",
		"/cube?op=drilldown&dim=phase&where=machine%3D" + url.QueryEscape(p.Machines()[0].ID),
	}
	for _, q := range queries {
		want := getBody(t, tsC.URL+"/v1/plants/"+plantID+q)
		got := getBody(t, tsS.URL+"/v1/plants/"+plantID+q)
		if string(want) != string(got) {
			t.Fatalf("binary ingest diverged from NDJSON on %s:\nndjson: %s\nbinary: %s", q, want, got)
		}
	}

	// Kill without drain or snapshot: recovery must replay the
	// binary-tagged WAL frames through the same fold path.
	tsS.Close()
	subject.Kill()
	restarted := New(durableOptions(dataDir))
	if err := restarted.Open(); err != nil {
		t.Fatalf("recovery from binary WAL failed: %v", err)
	}
	defer restarted.Close()
	tsR := httptest.NewServer(restarted.Handler())
	defer tsR.Close()
	for _, q := range queries {
		want := getBody(t, tsC.URL+"/v1/plants/"+plantID+q)
		got := getBody(t, tsR.URL+"/v1/plants/"+plantID+q)
		if string(want) != string(got) {
			t.Fatalf("binary WAL recovery diverged on %s:\nndjson: %s\nrecovered: %s", q, want, got)
		}
	}
}

// TestBinaryFrameHTTPRejections pins the admission contract of the
// binary path: structural damage rejects the whole request with 400
// and the bad_frame code, identifier drift stays a per-record
// rejection with the text path's messages — and neither wedges the
// shard pipelines for the next valid batch.
func TestBinaryFrameHTTPRejections(t *testing.T) {
	srv := New(Options{Shards: 2, QueueDepth: 16, Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	topo := Topology{
		ID:      "plant-frames",
		Lines:   []TopoLine{{ID: "line-0", Machines: []string{"m-0", "m-1"}}},
		Phases:  []string{"heat"},
		Sensors: []string{"temp"},
	}
	register(t, ts.URL, topo)
	ingestURL := ts.URL + "/v1/plants/plant-frames/ingest"

	valid := []Record{
		{Machine: "m-0", Job: "job-1", Phase: "heat", Sensor: "temp", T: 0, Value: 20},
		{Machine: "m-1", Job: "job-1", Phase: "heat", Sensor: "temp", T: 0, Value: 21},
	}
	// Resolve the server's defaulted phase/sensor names so the frames
	// reference real identifiers.
	probe := postRetry(t, ingestURL, "application/x-ndjson", ndjson(valid))
	body := mustStatus(t, probe, http.StatusAccepted)
	var ack wire.IngestAck
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Rejected > 0 {
		t.Fatalf("probe batch rejected: %s", ack.FirstRejection)
	}

	wantBadFrame := func(t *testing.T, raw []byte) {
		t.Helper()
		resp := postRetry(t, ingestURL, wire.ContentTypeBinary, raw)
		errBody := mustStatus(t, resp, http.StatusBadRequest)
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(errBody, &env); err != nil {
			t.Fatalf("error envelope: %v in %s", err, errBody)
		}
		if env.Err.Code != wire.CodeBadFrame {
			t.Fatalf("error code %q, want %q (%s)", env.Err.Code, wire.CodeBadFrame, errBody)
		}
	}

	good := binaryBody(t, valid)

	t.Run("truncated", func(t *testing.T) {
		wantBadFrame(t, good[:len(good)-3])
	})
	t.Run("garbage", func(t *testing.T) {
		wantBadFrame(t, []byte("this is not a frame at all, not even close"))
	})
	t.Run("oversized length prefix", func(t *testing.T) {
		raw := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(raw, wire.MaxFrameBytes+1)
		wantBadFrame(t, raw)
	})
	t.Run("dictionary index out of range", func(t *testing.T) {
		raw := append([]byte(nil), good...)
		// The machine column starts right after the u32 record count,
		// which follows the last sensor dictionary entry.
		i := len(raw) - 2*(5*4+8) // two records of five i32 columns + one f64
		binary.LittleEndian.PutUint32(raw[i:], 1<<20)
		wantBadFrame(t, raw)
	})
	t.Run("unknown machine stays per-record", func(t *testing.T) {
		recs := append([]Record{{Machine: "ghost", Job: "job-1", Phase: "heat", Sensor: "temp", T: 1, Value: 5}}, valid...)
		recs[1].T, recs[2].T = 1, 1
		resp := postRetry(t, ingestURL, wire.ContentTypeBinary, binaryBody(t, recs))
		ackBody := mustStatus(t, resp, http.StatusAccepted)
		var a wire.IngestAck
		if err := json.Unmarshal(ackBody, &a); err != nil {
			t.Fatal(err)
		}
		if a.Rejected != 1 || a.Records != 2 {
			t.Fatalf("ack %+v, want 2 admitted / 1 rejected", a)
		}
		if !strings.Contains(a.FirstRejection, `unregistered machine "ghost"`) {
			t.Fatalf("first rejection %q lost the text path's message", a.FirstRejection)
		}
	})
	t.Run("pipelines not wedged", func(t *testing.T) {
		recs := append([]Record(nil), valid...)
		for i := range recs {
			recs[i].T = 2
		}
		resp := postRetry(t, ingestURL, wire.ContentTypeBinary, binaryBody(t, recs))
		mustStatus(t, resp, http.StatusAccepted)
		waitDrained(t, ts.URL, "plant-frames", 6)
	})
}

// binaryTestTopo is a hand-rolled topology for plantState-level tests:
// explicit phases/sensors, two machines across two lines.
func binaryTestTopo() Topology {
	return Topology{
		ID:         "plant-intern",
		Lines:      []TopoLine{{ID: "l0", Machines: []string{"m0"}}, {ID: "l1", Machines: []string{"m1"}}},
		Phases:     []string{"heat", "cool"},
		Sensors:    []string{"temp", "pressure"},
		EnvSensors: []string{"hall-temp"},
	}
}

func binaryTestRecords() []Record {
	return []Record{
		{Machine: "m0", Job: "job-b", Phase: "heat", Sensor: "temp", T: 0, Value: 1},
		{Machine: "m0", Job: "job-a", Phase: "cool", Sensor: "pressure", T: 1, Value: 2},
		{Machine: "m1", Job: "job-c", Phase: "heat", Sensor: "temp", T: 0, Value: 3},
		{Env: true, Sensor: "hall-temp", T: 0, Value: 19},
	}
}

// resolveAsFrame resolves records the way handleIngest resolves a
// decoded text body: built into one frame, then through resolveFrame.
func resolveAsFrame(ps *plantState, recs []Record) ([]recordRef, int, string) {
	fb := wire.NewFrameBuilder()
	for _, rec := range recs {
		fb.Add(rec)
	}
	return ps.resolveFrame(nil, fb.Frame(), new(resolveScratch))
}

// foldPlant resolves and folds records straight through the shard fold
// path (no workers), the way WAL replay does.
func foldPlant(t testing.TB, ps *plantState, recs []Record) {
	t.Helper()
	refs, rejected, firstErr := resolveAsFrame(ps, recs)
	if rejected > 0 {
		t.Fatalf("resolve rejected %d: %s", rejected, firstErr)
	}
	ps.foldResolved(refs, 0)
}

// TestSnapshotRoundTripPreservesJobInterns pins the intern-table
// snapshot contract: a restore reproduces the exact job-id assignment
// the snapshot was captured under.
func TestSnapshotRoundTripPreservesJobInterns(t *testing.T) {
	ps := newPlantState(topoWithDefaults(binaryTestTopo())) // as registration fills it in
	ps.makeShards(2, 8)
	ps.alertThreshold = 1e18
	foldPlant(t, ps, binaryTestRecords())

	payload, _ := ps.encodeState(false)
	restored, _, err := decodeState(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := ps.in.jobs.Names()
	if got := restored.in.jobs.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored interns %v, want %v", got, want)
	}
	for wantID, name := range want {
		if id, ok := restored.in.jobs.ID(name); !ok || int(id) != wantID {
			t.Fatalf("job %q restored as id %d (ok=%v), want %d", name, id, ok, wantID)
		}
	}
}

// TestIngestSteadyStateZeroAlloc is the zero-alloc gate of admission:
// once identifiers are interned and cells exist, both halves of the
// per-record hot path — batch resolution at admission and the shard
// fold — run without a single allocation. Admission is gated in both
// of its shapes: a text body's records built into a frame and
// resolved, and a decoded binary frame resolved.
func TestIngestSteadyStateZeroAlloc(t *testing.T) {
	ps := newPlantState(binaryTestTopo())
	ps.makeShards(1, 8)
	ps.alertThreshold = 1e18
	recs := binaryTestRecords()
	foldPlant(t, ps, recs) // warm: intern jobs, materialise cells

	refs := make([]recordRef, 0, len(recs))
	fb := wire.NewFrameBuilder()
	var sc resolveScratch
	buildAndResolve := func() {
		fb.Reset()
		for _, rec := range recs {
			fb.Add(rec)
		}
		var rejected int
		refs, rejected, _ = ps.resolveFrame(refs[:0], fb.Frame(), &sc)
		if rejected > 0 {
			t.Fatal("resolution rejected a warm record")
		}
	}
	if n := testing.AllocsPerRun(1000, buildAndResolve); n != 0 {
		t.Fatalf("build + resolveFrame allocates %v per run on interned identifiers, want 0", n)
	}

	if n := testing.AllocsPerRun(1000, func() {
		ps.foldRefs(refs)
	}); n != 0 {
		t.Fatalf("foldRefs allocates %v per run on an idempotent replay, want 0", n)
	}
	// Wired to a push hub, the fold builds no stats event for a plant
	// nobody subscribes to — a subscriber of another plant's included.
	ps.hub = gateway.NewHub()
	defer ps.hub.Close()
	ps.hub.Subscribe([]wire.Channel{{Kind: wire.EventStats, Plant: "elsewhere"}}, nil, 0)
	if n := testing.AllocsPerRun(1000, func() {
		ps.foldRefs(refs)
	}); n != 0 {
		t.Fatalf("foldRefs allocates %v per run on an idempotent replay with no subscriber, want 0", n)
	}

	fr := new(wire.Frame)
	body := binaryBody(t, recs)
	if err := wire.DecodeFrame(body[4:], fr); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		var rejected int
		refs, rejected, _ = ps.resolveFrame(refs[:0], fr, &sc)
		if rejected > 0 {
			t.Fatal("frame resolution rejected a warm record")
		}
	}); n != 0 {
		t.Fatalf("resolveFrame allocates %v per run on a decoded frame, want 0", n)
	}
}

// TestOutOfRangeTimestampRejectedByEveryCodec posts one record whose t
// does not fit the frame's i32 column, as NDJSON and as a binary frame.
// Both must reject it with the same reason, and neither may store it at
// a wrapped t (1<<32+3 wraps to 3).
func TestOutOfRangeTimestampRejectedByEveryCodec(t *testing.T) {
	srv := New(Options{Shards: 2, QueueDepth: 16, Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const plantID = "plant-t-range"
	register(t, ts.URL, Topology{
		ID:      plantID,
		Lines:   []TopoLine{{ID: "line-0", Machines: []string{"m-0"}}},
		Phases:  []string{"heat"},
		Sensors: []string{"temp"},
	})
	ingestURL := ts.URL + "/v1/plants/" + plantID + "/ingest"
	rec := func(tt int) Record {
		return Record{Machine: "m-0", Job: "job-1", Phase: "heat", Sensor: "temp", T: tt, Value: 20}
	}
	ack := func(contentType string, body []byte) wire.IngestAck {
		t.Helper()
		var a wire.IngestAck
		if err := json.Unmarshal(mustStatus(t, postRetry(t, ingestURL, contentType, body), http.StatusAccepted), &a); err != nil {
			t.Fatal(err)
		}
		return a
	}

	bad := []Record{rec(1<<32 + 3)}
	text := ack("application/x-ndjson", ndjson(bad))
	bin := ack(wire.ContentTypeBinary, binaryBody(t, bad))
	if text != bin {
		t.Fatalf("codecs disagree on an out-of-range t:\nndjson: %+v\nbinary: %+v", text, bin)
	}
	if text.Records != 0 || text.Rejected != 1 || !strings.Contains(text.FirstRejection, "out of [0, ") {
		t.Fatalf("ack %+v, want 0 admitted / 1 rejected for the t range", text)
	}

	// Two valid samples; a wrapped third would show in the roll-up.
	ack("application/x-ndjson", ndjson([]Record{rec(0), rec(1)}))
	waitDrained(t, ts.URL, plantID, 2)
	var roll wire.RollupResponse
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/plants/"+plantID+"/rollup?level=plant"), &roll); err != nil {
		t.Fatal(err)
	}
	if len(roll.Nodes) != 1 || roll.Nodes[0].Count != 2 {
		t.Fatalf("plant roll-up %+v, want exactly the 2 valid samples", roll.Nodes)
	}
}

// oneMachineServer serves a fresh server with one registered plant of
// one machine ("m-0"), phase "heat" and sensor "temp".
func oneMachineServer(t *testing.T, plantID string) (base string) {
	t.Helper()
	srv := New(Options{Shards: 2, QueueDepth: 16, Workers: 1})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	register(t, ts.URL, Topology{
		ID:      plantID,
		Lines:   []TopoLine{{ID: "line-0", Machines: []string{"m-0"}}},
		Phases:  []string{"heat"},
		Sensors: []string{"temp"},
	})
	return ts.URL
}

// TestIngestMediaTypes pins the two ingest doors. A binary frame body
// goes to the frame decoder; every other body is NDJSON, whatever
// media type curl or a script sends it with. CSV and JSON types are
// refused whole with bad_request, naming the accepted formats, rather
// than misread as NDJSON.
func TestIngestMediaTypes(t *testing.T) {
	base := oneMachineServer(t, "plant-media")
	one := []Record{{Machine: "m-0", Job: "job-1", Phase: "heat", Sensor: "temp", T: 0, Value: 20}}
	for _, tc := range []struct {
		name, contentType string
		body              []byte
		status            int
	}{
		{"ndjson", "application/x-ndjson", ndjson(one), http.StatusAccepted},
		{"no media type", "", ndjson(one), http.StatusAccepted},
		{"curl default", "application/x-www-form-urlencoded", ndjson(one), http.StatusAccepted},
		{"binary", wire.ContentTypeBinary, binaryBody(t, one), http.StatusAccepted},
		{"csv", "text/csv", []byte("machine,job,phase,t,temp\nm-0,job-1,heat,0,20\n"), http.StatusBadRequest},
		{"csv with params", "application/csv; charset=utf-8", []byte("machine,job,phase,t,temp\nm-0,job-1,heat,0,20\n"), http.StatusBadRequest},
		{"json array", "application/json", []byte(`[{"machine":"m-0","job":"job-1","phase":"heat","sensor":"temp","t":0,"value":20}]`), http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, base+"/v1/plants/plant-media/ingest", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body := mustStatus(t, resp, tc.status)
			if tc.status == http.StatusAccepted {
				var ack wire.IngestAck
				if err := json.Unmarshal(body, &ack); err != nil || ack.Records != 1 || ack.Rejected != 0 {
					t.Fatalf("ack %s (%v), want 1 admitted", body, err)
				}
				return
			}
			var env wire.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatal(err)
			}
			if env.Err.Code != wire.CodeBadRequest {
				t.Fatalf("code %q, want %q", env.Err.Code, wire.CodeBadRequest)
			}
			for _, want := range []string{"application/x-ndjson", wire.ContentTypeBinary, "hodctl replay"} {
				if !strings.Contains(env.Err.Message, want) {
					t.Errorf("message %q does not name %q", env.Err.Message, want)
				}
			}
		})
	}
}

// TestBinaryIngestRejectsInvalidUTF8JobIDs posts one binary body whose
// frame carries two job names that are not valid UTF-8. A frame holds
// raw bytes, so they reach admission intact; admitted, both would
// answer as "\ufffd" — two members and two cells under one name. They
// are refused per record, and the valid record beside them is admitted.
func TestBinaryIngestRejectsInvalidUTF8JobIDs(t *testing.T) {
	const plantID = "plant-utf8"
	base := oneMachineServer(t, plantID)
	rec := func(job string) Record {
		return Record{Machine: "m-0", Job: job, Phase: "heat", Sensor: "temp", T: 0, Value: 20}
	}
	resp := postRetry(t, base+"/v1/plants/"+plantID+"/ingest", wire.ContentTypeBinary,
		binaryBody(t, []Record{rec("\xff"), rec("\xfe"), rec("job-1")}))
	var ack wire.IngestAck
	if err := json.Unmarshal(mustStatus(t, resp, http.StatusAccepted), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Records != 1 || ack.Rejected != 2 || !strings.Contains(ack.FirstRejection, "not valid UTF-8") {
		t.Fatalf("ack %+v, want 1 admitted / 2 rejected as invalid UTF-8", ack)
	}
	waitDrained(t, base, plantID, 1)
	var cr wire.CubeResponse
	if err := json.Unmarshal(getBody(t, base+"/v1/plants/"+plantID+"/cube?op=members&dim=job"), &cr); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cr.Members, []string{"job-1"}) {
		t.Fatalf("job members %q, want only job-1", cr.Members)
	}
}

// FuzzIngestBodies is the differential of the ingest codecs: the same
// batch sent as an NDJSON body and as a binary body must admit the same
// refs, reject the same records with the same first reason, and grow
// the job table in the same order. Each side runs on a fresh plant
// through decodeBody, the handler's decode-and-resolve step. The
// binary body encodes the records the NDJSON body decodes to, since
// JSON rewrites invalid UTF-8. JSON cannot carry a non-finite value;
// such a batch enters the text side after the decoder and the binary
// side unchanged. A binary-only arm posts the raw fuzzed job string,
// which a frame carries byte for byte: every job name it admits must
// be valid UTF-8 and round-trip through encoding/json unchanged, so no
// two admitted names can answer as one.
func FuzzIngestBodies(f *testing.F) {
	f.Add("m0", "job-a", "heat", "temp", false, int64(0), 1.5)
	f.Add("ghost", "job-a", "heat", "temp", false, int64(1), 2.0)
	f.Add("m1", "job\x01ctl", "cool", "pressure", false, int64(2), 3.0)
	f.Add("m0", "", "heat", "temp", false, int64(3), 4.0)
	f.Add("m0", "job-a", "heat", "temp", false, int64(4), math.NaN())
	f.Add("m0", "job-a", "heat", "temp", false, int64(1<<32+3), 5.0)
	f.Add("m0", "job-a", "heat", "temp", false, int64(-1), 6.0)
	f.Add("m1", "job-b", "bake", "humidity", false, int64(5), 7.0)
	f.Add("", "", "", "hall-temp", true, int64(6), 19.0)
	f.Add("", "", "", "temp", true, int64(7), math.Inf(1))
	f.Add("m0", "job-\xff", "heat", "temp", false, int64(8), 8.0)
	f.Add("m0", "\xff", "heat", "temp", false, int64(9), 9.0)
	f.Add("m1", "\xfe", "cool", "pressure", false, int64(10), 10.0)
	f.Fuzz(func(t *testing.T, machine, job, phase, sensor string, env bool, ts int64, value float64) {
		fuzzed := Record{Machine: machine, Job: job, Phase: phase, Sensor: sensor, T: int(ts), Value: value, Env: env}
		raw := []Record{fuzzed, {Machine: "m0", Job: job, Phase: "heat", Sensor: "temp", T: 0, Value: 1}}
		if body, err := wire.EncodeBinary(raw); err == nil {
			rawPS := newPlantState(binaryTestTopo())
			if _, code, err := rawPS.decodeBody(bytes.NewReader(body), wire.ContentTypeBinary, ingestScratchPool.New().(*ingestScratch)); err != nil {
				t.Fatalf("binary body refused (%s): %v", code, err)
			}
			for _, name := range rawPS.in.jobs.Names() {
				enc, err := json.Marshal(name)
				var back string
				if err == nil {
					err = json.Unmarshal(enc, &back)
				}
				if !utf8.ValidString(name) || err != nil || back != name {
					t.Fatalf("admitted job %q does not round-trip through JSON (got %q, %v)", name, back, err)
				}
			}
		}
		recs := []Record{
			fuzzed,
			{Machine: "m0", Job: job, Phase: "heat", Sensor: "temp", T: 0, Value: 1},
			{Machine: "m1", Job: "job-x", Phase: phase, Sensor: sensor, T: 1, Value: value},
			{Machine: machine, Job: "job-y", Phase: "cool", Sensor: "pressure", T: int(ts), Value: 2},
			{Env: !env, Machine: "m1", Job: job, Phase: "cool", Sensor: sensor, T: 2, Value: 3},
		}
		textPS, binPS := newPlantState(binaryTestTopo()), newPlantState(binaryTestTopo())
		var text resolvedBody
		if body, err := wire.EncodeNDJSON(recs); err == nil {
			var code string
			if text, code, err = textPS.decodeBody(bytes.NewReader(body), "application/x-ndjson", ingestScratchPool.New().(*ingestScratch)); err != nil {
				t.Fatalf("NDJSON body refused (%s): %v", code, err)
			}
			if recs, err = wire.DecodeNDJSON(bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		} else {
			text.records = len(recs)
			text.refs, text.rejected, text.firstErr = resolveAsFrame(textPS, recs)
		}
		body, err := wire.EncodeBinary(recs)
		if err != nil {
			t.Skip("batch does not fit a frame:", err)
		}
		bin, code, err := binPS.decodeBody(bytes.NewReader(body), wire.ContentTypeBinary, ingestScratchPool.New().(*ingestScratch))
		if err != nil {
			t.Fatalf("binary body refused (%s): %v", code, err)
		}
		if !reflect.DeepEqual(text, bin) {
			t.Fatalf("codecs disagree on %+v:\nndjson: %+v\nbinary: %+v", recs, text, bin)
		}
		if tj, bj := textPS.in.jobs.Names(), binPS.in.jobs.Names(); !slices.Equal(tj, bj) {
			t.Fatalf("job tables diverged: ndjson %q, binary %q", tj, bj)
		}
	})
}
