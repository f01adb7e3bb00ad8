package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/plant"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/pkg/hod/wire"
)

// forgedState is the smallest state decodeState accepts that still holds
// one of everything a forger can aim at: a job with vectors, a sample
// and the cube cell beside it, an environment series, a leaf, a tracker,
// an alert.
func forgedState() *snapState {
	topo := topoWithDefaults(Topology{ID: "forged", Lines: []TopoLine{{ID: "l", Machines: []string{"l/m1"}}}})
	return &snapState{
		Topo:       topo,
		JobInterns: []string{"j1"},
		Machines: []snapMachine{{Jobs: []snapJob{{
			Setup: make([]float64, topo.SetupDims), CAQ: make([]float64, topo.CAQDims), HasMeta: true,
			Phases: [][][]float64{{{1.5}}},
			Cells:  [][]snapCell{{{Count: 1, Sum: 1.5, Min: 1.5, Max: 1.5}}},
		}},
			Leaves:   []stats.OnlineState{{N: 1, Mean: 1.5, Min: 1.5, Max: 1.5}},
			Trackers: []stats.EWMAState{{Alpha: trackerAlpha, Mean: 1.5, Started: true}},
		}},
		Env:     [][]float64{{19}},
		DataRev: 1, Accepted: 2, Received: 2,
		Alerts:   []wire.Alert{{Seq: 1, Machine: "l/m1", Phase: "preparation", Sensor: "temp-a", Value: 1.5, Score: 9}},
		AlertSeq: 1,
	}
}

// forgedCase breaks forgedState in one way; code is the error code
// POST /restore must answer it with.
type forgedCase struct {
	name   string
	mutate func(*snapState)
	code   string
}

// forgedStoreCases aim at the stores, the dictionaries, the leaves and
// the trackers. The first three are the gate handleJobs enforces with
// vector_dims; the rest are ids and lengths applyState would index with.
var forgedStoreCases = []forgedCase{
	{"oversized setup", func(st *snapState) { j := &st.Machines[0].Jobs[0]; j.Setup = append(j.Setup, 1) }, wire.CodeVectorDims},
	{"oversized caq", func(st *snapState) { j := &st.Machines[0].Jobs[0]; j.CAQ = append(j.CAQ, 1) }, wire.CodeVectorDims},
	{"nan setup", func(st *snapState) { st.Machines[0].Jobs[0].Setup[0] = math.NaN() }, wire.CodeVectorDims},
	{"machine beyond the topology", func(st *snapState) { st.Machines = append(st.Machines, snapMachine{}) }, wire.CodeBadRequest},
	{"job id beyond the job table", func(st *snapState) { st.Machines[0].Jobs[0].Job = 7 }, wire.CodeBadRequest},
	{"negative job id", func(st *snapState) { st.Machines[0].Jobs[0].Job = -1 }, wire.CodeBadRequest},
	{"job stored twice", func(st *snapState) { m := &st.Machines[0]; m.Jobs = append(m.Jobs, m.Jobs[0]) }, wire.CodeBadRequest},
	{"phase beyond the topology", func(st *snapState) {
		st.Machines[0].Jobs[0].Phases = make([][][]float64, len(st.Topo.Phases)+1)
	}, wire.CodeBadRequest},
	{"sensor beyond the topology", func(st *snapState) {
		st.Machines[0].Jobs[0].Phases[0] = make([][]float64, len(st.Topo.Sensors)+1)
	}, wire.CodeBadRequest},
	{"environment sensor beyond the topology", func(st *snapState) {
		st.Env = make([][]float64, len(st.Topo.EnvSensors)+1)
	}, wire.CodeBadRequest},
	{"duplicate job name", func(st *snapState) { st.JobInterns = []string{"j1", "j1"} }, wire.CodeBadRequest},
	{"control character in a job name", func(st *snapState) { st.JobInterns = []string{"j\x1fprint"} }, wire.CodeBadRequest},
	{"invalid UTF-8 in a job name", func(st *snapState) { st.JobInterns = []string{"j\xff"} }, wire.CodeBadRequest},
	{"empty job name", func(st *snapState) { st.JobInterns = []string{""} }, wire.CodeBadRequest},
	{"leaves beyond the topology", func(st *snapState) {
		st.Machines[0].Leaves = make([]stats.OnlineState, len(st.Topo.Phases)*len(st.Topo.Sensors)+1)
	}, wire.CodeBadRequest},
	{"trackers beyond the topology", func(st *snapState) {
		st.Machines[0].Trackers = make([]stats.EWMAState, len(st.Topo.Sensors)+1)
	}, wire.CodeBadRequest},
	{"alert above the sequence mark", func(st *snapState) { st.Alerts[0].Seq = 2 }, wire.CodeBadRequest},
}

// forgedCubeCases aim at the cube cells, which applyState writes into
// the grid of the samples they sit beside: cells where no grid will be,
// and aggregates an olap.IntCell never holds.
var forgedCubeCases = []forgedCase{
	{"cells beyond the topology", func(st *snapState) {
		st.Machines[0].Jobs[0].Cells[0] = make([]snapCell, len(st.Topo.Sensors)+1)
	}, wire.CodeBadRequest},
	{"cells for a phase without samples", func(st *snapState) {
		j := &st.Machines[0].Jobs[0]
		j.Phases = append(j.Phases, nil)
		j.Cells = append(j.Cells, j.Cells[0])
	}, wire.CodeBadRequest},
	{"cells for more phases than samples", func(st *snapState) {
		j := &st.Machines[0].Jobs[0]
		j.Cells = append(j.Cells, j.Cells[0])
	}, wire.CodeBadRequest},
	{"negative count", func(st *snapState) { st.Machines[0].Jobs[0].Cells[0][0].Count = -1 }, wire.CodeBadRequest},
	{"non-finite sum", func(st *snapState) { st.Machines[0].Jobs[0].Cells[0][0].Sum = math.Inf(1) }, wire.CodeBadRequest},
}

func encodeForged(t testing.TB, st *snapState) []byte {
	t.Helper()
	payload, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// restoreForged posts each case to POST /restore and wants a 400 with
// the case's code — never a panic, never a plant. The unmutated state
// restores, so every case fails for the reason it names.
func restoreForged(t *testing.T, cases []forgedCase) {
	t.Helper()
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	restore := func(st *snapState) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/plants/forged/restore", "application/octet-stream",
			bytes.NewReader(wal.EncodeSnapshot(1, encodeForged(t, st))))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, c := range cases {
		st := forgedState()
		c.mutate(st)
		body := mustStatus(t, restore(st), http.StatusBadRequest)
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Err.Code != c.code {
			t.Fatalf("%s: error body %s, want code %s", c.name, body, c.code)
		}
	}
	mustStatus(t, restore(forgedState()), http.StatusCreated)
	if got := getBody(t, ts.URL+"/v1/plants/forged/rollup?level=sensor"); !strings.Contains(string(got), `"l/m1/preparation/temp-a"`) {
		t.Fatalf("restored forged plant answers %s", got)
	}
}

// livePlant folds a small trace and job metadata straight into a plant
// (no workers, so job ids are assigned in trace order).
func livePlant(t testing.TB) *plantState {
	t.Helper()
	ps := newPlantState(binaryTestTopo())
	ps.makeShards(2, 8)
	ps.alertThreshold = 1e18
	foldPlant(t, ps, binaryTestRecords())
	ps.applyJobMetas([]JobMeta{{Machine: "m0", Job: "job-a", Setup: []float64{1, 2, 3}, CAQ: []float64{4}, Faulty: true}})
	return ps
}

// fuzzSeeds is the seed corpus of FuzzRestoreState: the payload of a
// live plant's backup, the forged baseline and every forged case.
func fuzzSeeds(t testing.TB) [][]byte {
	seeds := [][]byte{
		encodeForged(t, livePlant(t).captureState()),
		encodeForged(t, forgedState()),
	}
	for _, c := range slices.Concat(forgedStoreCases, forgedCubeCases) {
		st := forgedState()
		c.mutate(st)
		seeds = append(seeds, encodeForged(t, st))
	}
	return seeds
}

// FuzzRestoreState feeds arbitrary snapshot payloads — what POST
// /restore and a seeding standby hand decodeState once the envelope's
// CRC checked out — through decode and validation. Whatever is accepted
// must load into a fresh plant and capture back as a state that is
// itself accepted, without panicking. The seeds are built from the
// current snapState on every run, so none can go stale, and run as unit
// tests under plain go test.
func FuzzRestoreState(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := decodeState(payload)
		if err != nil {
			return
		}
		ps := newPlantState(st.Topo)
		ps.makeShards(2, 1)
		ps.applyState(st)
		if _, _, err := ps.rollup("sensor"); err != nil {
			t.Fatal(err)
		}
		again, err := encodeState(ps.captureState())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeState(again); err != nil {
			t.Fatalf("an accepted state captured back as one that is refused: %v", err)
		}
	})
}

// TestSnapshotBytesDeterministic: the snapshot bytes are a function of
// the state. Two captures of one quiescent plant — its jobs sitting in
// maps, interned in whatever order three shard workers raced to —
// encode identically, and so does the capture of a plant the first
// capture was applied to, even one with a different shard count.
func TestSnapshotBytesDeterministic(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 9, Lines: 2, MachinesPerLine: 3, JobsPerMachine: 3, PhaseSamples: 6})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Shards: 3, QueueDepth: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	register(t, ts.URL, topoFromPlant("plant-bytes", p))
	ingestPlant(t, ts.URL, "plant-bytes", p)
	ps, _ := srv.plant("plant-bytes")

	capture := func(ps *plantState) []byte {
		st := ps.captureState()
		st.ShardSeqs = nil // one entry per shard: the one field that is not plant state
		return encodeForged(t, st)
	}
	first := capture(ps)
	for i := 0; i < 10; i++ {
		if again := capture(ps); !bytes.Equal(first, again) {
			t.Fatalf("capture %d of the same quiescent plant encodes differently (%d vs %d bytes)", i+2, len(again), len(first))
		}
	}
	st, err := decodeState(first)
	if err != nil {
		t.Fatal(err)
	}
	restored := newPlantState(st.Topo)
	restored.makeShards(2, 8)
	restored.applyState(st)
	if round := capture(restored); !bytes.Equal(first, round) {
		t.Fatalf("capture → apply → capture changed the bytes (%d vs %d)", len(round), len(first))
	}
}

// TestOlderSnapshotFormatRefused: testdata holds one backup per retired
// format — backup_format0.snap from the commit before the format tag
// existed (untagged gob, name-keyed maps), backup_format1.snap from the
// last commit that kept leaves, trackers and cube cells in id-keyed
// lists of their own. gob would decode either into the current snapState
// without complaint — every field it does not recognise dropped, a
// restored plant missing its aggregates — so both ways in refuse them by
// the first byte: POST /restore with a 400, Open with an error that
// names the plant directory.
func TestOlderSnapshotFormatRefused(t *testing.T) {
	for _, fixture := range []string{"backup_format0.snap", "backup_format1.snap"} {
		t.Run(fixture, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			if _, payload, err := wal.DecodeSnapshot(old); err != nil {
				t.Fatalf("fixture is not a framed snapshot: %v", err)
			} else if _, err := decodeState(payload); !errors.Is(err, errSnapFormat) {
				t.Fatalf("decodeState of the payload: %v, want errSnapFormat", err)
			}

			srv := New(Options{})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			resp, err := http.Post(ts.URL+"/v1/plants/old/restore", "application/octet-stream", bytes.NewReader(old))
			if err != nil {
				t.Fatal(err)
			}
			body := mustStatus(t, resp, http.StatusBadRequest)
			var env wire.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil || env.Err.Code != wire.CodeBadRequest ||
				!strings.Contains(env.Err.Message, errSnapFormat.Error()) {
				t.Fatalf("restore of the backup answered %s", body)
			}
			if _, ok := srv.plant("old"); ok {
				t.Fatal("a refused backup left a plant behind")
			}

			// The same bytes as a data dir's snapshot file, beside the
			// meta.json the old server would have written.
			dataDir := t.TempDir()
			plantDir := filepath.Join(dataDir, "old")
			topo := Topology{ID: "old", Lines: []TopoLine{{ID: "l0", Machines: []string{"m0"}}},
				Phases: []string{"heat", "cool"}, Sensors: []string{"temp"}, EnvSensors: []string{"hall"}}
			if err := persistMeta(plantDir, topoWithDefaults(topo)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(plantDir, wal.SnapshotName), old, 0o644); err != nil {
				t.Fatal(err)
			}
			err = New(durableOptions(dataDir)).Open()
			if !errors.Is(err, errSnapFormat) || !strings.Contains(err.Error(), "plant dir old") {
				t.Fatalf("Open over the snapshot: %v, want errSnapFormat naming the plant dir", err)
			}
		})
	}
}

// TestFormat2BackupStillServes: backup_format2.snap was written by the
// last commit whose snapshots carried the per-machine and environment
// revision counters (snapMachine.Rev, snapState.EnvRev) the report path
// no longer keeps. gob skips stream fields the struct lacks, so the
// backup is still format 2: POST /restore and Open both take it and
// answer with the bodies that commit served for it, which
// backup_format2.bodies.json holds by query.
func TestFormat2BackupStillServes(t *testing.T) {
	backup, err := os.ReadFile(filepath.Join("testdata", "backup_format2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join("testdata", "backup_format2.bodies.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	queries := slices.Sorted(maps.Keys(want))
	answers := func(how, base string) {
		t.Helper()
		for _, q := range queries {
			if got := getBody(t, base+"/v1/plants/format2"+q); string(got) != want[q] {
				t.Fatalf("%s: %s differs from the body served before the revision counters went:\ngot  %s\nwant %s", how, q, got, want[q])
			}
		}
	}

	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/plants/format2/restore", "application/octet-stream", bytes.NewReader(backup))
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, resp, http.StatusCreated)
	answers("restore", ts.URL)

	// The same bytes as a data dir's snapshot file, beside its meta.json.
	_, payload, err := wal.DecodeSnapshot(backup)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeState(payload)
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	plantDir := filepath.Join(dataDir, "format2")
	if err := persistMeta(plantDir, st.Topo); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(plantDir, wal.SnapshotName), backup, 0o644); err != nil {
		t.Fatal(err)
	}
	re := New(durableOptions(dataDir))
	if err := re.Open(); err != nil {
		t.Fatalf("Open over the format-2 snapshot: %v", err)
	}
	defer re.Close()
	tr := httptest.NewServer(re.Handler())
	defer tr.Close()
	answers("Open", tr.URL)
}

// TestReplayRefusesUnknownWALTag: a WAL entry is a record frame or job
// metadata, told apart by its first byte; anything else — the gob
// entries of logs older than the frames, a tag from a newer version —
// stops replay with errWalTag instead of being guessed at.
func TestReplayRefusesUnknownWALTag(t *testing.T) {
	ps := newPlantState(binaryTestTopo())
	ps.makeShards(1, 8)
	for name, payload := range map[string][]byte{
		"empty":       {},
		"gob entry":   {0x2a, 0xff, 0x81, 0x03, 0x01, 0x01},
		"unknown tag": {0xB3, 0x00},
	} {
		if err := ps.replayPayload(payload); !errors.Is(err, errWalTag) {
			t.Errorf("%s: replay error %v, want errWalTag", name, err)
		}
	}
	if got := ps.received.Load() + ps.rejected.Load(); got != 0 {
		t.Fatalf("a refused entry moved the counters by %d", got)
	}
}

// TestJobMetadataSurvivesKill: job metadata is acknowledged once it is
// in shard 0's WAL as a walJobsTag entry; a kill before any snapshot
// brings it back through replay, vectors and the faulty flag exact, and
// replaying it does not move the data revision a report is cached under.
func TestJobMetadataSurvivesKill(t *testing.T) {
	dataDir := t.TempDir()
	srv := New(durableOptions(dataDir))
	if err := srv.Open(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	register(t, ts.URL, binaryTestTopo())
	metas := []JobMeta{
		{Machine: "m0", Job: "job-a", Setup: []float64{1, 0.1, 215.5}, CAQ: []float64{0.25, 1e-9}, Faulty: true},
		{Machine: "m1", Job: "job-c", Setup: []float64{2, 0.2, 210}, CAQ: []float64{0.5}},
	}
	body, err := json.Marshal(metas)
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/plant-intern/jobs", "application/json", body), http.StatusAccepted)
	before, _ := srv.plant("plant-intern")
	wantRev := before.dataRev.Load()
	ts.Close()
	srv.Kill()

	re := New(durableOptions(dataDir))
	if err := re.Open(); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ps, ok := re.plant("plant-intern")
	if !ok {
		t.Fatal("plant not recovered")
	}
	for _, m := range metas {
		id, ok := ps.in.jobs.ID(m.Job)
		if !ok {
			t.Fatalf("job %s not re-interned by replay", m.Job)
		}
		mid, _ := ps.in.machines.ID(m.Machine)
		js := ps.mstores[mid].jobsByID[id]
		if js == nil || !js.hasMeta || js.faulty != m.Faulty || !reflect.DeepEqual(js.setup, m.Setup) || !reflect.DeepEqual(js.caq, m.CAQ) {
			t.Fatalf("job %s recovered as %+v, want %+v", m.Job, js, m)
		}
	}
	if got := ps.dataRev.Load(); got != wantRev {
		t.Fatalf("data revision %d after replay, %d before the kill", got, wantRev)
	}
}

// TestJobsGateKeepsDataDirRecoverable: validateState refuses a snapshot
// whose job table holds a control character, so no live path may intern
// one. /jobs applies the ingest gate — the bad entry is counted as
// rejected and never reaches the table or the WAL — and the data dir
// reopens after the Close snapshot and again from the re-baselined one.
func TestJobsGateKeepsDataDirRecoverable(t *testing.T) {
	dataDir := t.TempDir()
	srv := New(durableOptions(dataDir))
	if err := srv.Open(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	register(t, ts.URL, binaryTestTopo())
	body, err := json.Marshal([]JobMeta{
		{Machine: "m0", Job: "j\x1f", Setup: []float64{1, 2, 3}},
		{Machine: "m0", Job: "job-a", Setup: []float64{1, 2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.JobsAck
	resp := postRetry(t, ts.URL+"/v1/plants/plant-intern/jobs", "application/json", body)
	if err := json.Unmarshal(mustStatus(t, resp, http.StatusAccepted), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Jobs != 1 || ack.Rejected != 1 || !strings.Contains(ack.FirstRejection, "control character") {
		t.Fatalf("ack %+v, want one job taken and the control-character one rejected", ack)
	}
	ts.Close()
	srv.Close()

	for i := 0; i < 2; i++ {
		re := New(durableOptions(dataDir))
		if err := re.Open(); err != nil {
			t.Fatalf("reopen %d: %v", i, err)
		}
		ps, ok := re.plant("plant-intern")
		if !ok {
			t.Fatal("plant not recovered")
		}
		if names := ps.in.jobs.Names(); !reflect.DeepEqual(names, []string{"job-a"}) {
			t.Fatalf("job table %q after reopen %d, want only job-a", names, i)
		}
		re.Close()
	}
}

// TestRestoredPlantReopens: a restore writes the backup's topology twice
// — as meta.json and inside the baseline snapshot — and Open refuses a
// plant dir whose two copies disagree. A machine name that is not valid
// UTF-8 (a backup is gob, it can hold one; meta.json is JSON, it cannot)
// must not turn that check into a server that no longer starts.
func TestRestoredPlantReopens(t *testing.T) {
	st := forgedState()
	st.Topo.Lines[0].Machines[0] = "l/m\xff1"
	st.Alerts = nil
	dataDir := t.TempDir()
	srv := New(durableOptions(dataDir))
	if err := srv.Open(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	resp, err := http.Post(ts.URL+"/v1/plants/forged/restore", "application/octet-stream",
		bytes.NewReader(wal.EncodeSnapshot(3, encodeForged(t, st))))
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, resp, http.StatusCreated)
	rollup := func(base string) (rr wire.RollupResponse) {
		t.Helper()
		if err := json.Unmarshal(getBody(t, base+"/v1/plants/forged/rollup?level=sensor"), &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}
	want := rollup(ts.URL)
	ts.Close()
	srv.Kill()

	re := New(durableOptions(dataDir))
	if err := re.Open(); err != nil {
		t.Fatalf("reopening a restored plant: %v", err)
	}
	defer re.Close()
	tsR := httptest.NewServer(re.Handler())
	defer tsR.Close()
	if got := rollup(tsR.URL); len(got.Nodes) != 1 || !reflect.DeepEqual(want, got) {
		t.Fatalf("roll-up after reopen %+v, before %+v", got, want)
	}

	// A meta.json edited to another topology is the hard error.
	meta := filepath.Join(dataDir, "forged", plantMetaName)
	buf, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
	if err := os.WriteFile(meta, bytes.Replace(buf, []byte(`"temp-a"`), []byte(`"temp-z"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(durableOptions(dataDir)).Open(); err == nil || !strings.Contains(err.Error(), "different topology") {
		t.Fatalf("Open with a meta.json of another topology: %v", err)
	}
}

// TestRestartWithDifferentShardCount: a snapshot holds nothing per
// shard but its WAL positions. A plant snapshotted under three shards
// and reopened under two — the third WAL directory replayed and dropped
// — answers with the same bytes, and again after a kill that leaves
// only the WAL tail.
func TestRestartWithDifferentShardCount(t *testing.T) {
	p, err := plant.Simulate(plant.Config{Seed: 5, Lines: 2, MachinesPerLine: 3, JobsPerMachine: 2, PhaseSamples: 6})
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	queries := []string{"/rollup?level=sensor", "/cube?op=slice", "/report?level=1&top=64", "/alerts?limit=512"}
	answers := func(base string) (out [][]byte) {
		for _, q := range queries {
			out = append(out, getBody(t, base+"/v1/plants/plant-reshard"+q))
		}
		return out
	}
	var want [][]byte
	for gen, shards := range []int{3, 2, 4} {
		opts := durableOptions(dataDir)
		opts.Shards = shards
		srv := New(opts)
		if err := srv.Open(); err != nil {
			t.Fatalf("generation %d (%d shards): %v", gen, shards, err)
		}
		ts := httptest.NewServer(srv.Handler())
		if gen == 0 {
			register(t, ts.URL, topoFromPlant("plant-reshard", p))
			ingestPlant(t, ts.URL, "plant-reshard", p)
			want = answers(ts.URL)
		}
		for i, got := range answers(ts.URL) {
			if !bytes.Equal(want[i], got) {
				t.Fatalf("generation %d (%d shards): %s differs:\nwant %s\ngot  %s", gen, shards, queries[i], want[i], got)
			}
		}
		ts.Close()
		if gen == 0 {
			srv.Close() // snapshot under three shards
		} else {
			srv.Kill()
		}
	}
}
