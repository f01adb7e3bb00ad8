package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/olap"
	"repro/internal/plant"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/pkg/hod/wire"
)

// forgery is a snapshot payload spelled out field by field in the
// layout encodeState writes (see snapFormat), every count written as
// the length of its slice and every slice written whole, so a test can
// write what encodeState never would: more machines, leaves or columns
// than the topology has, ids outside their dictionary, values the live
// paths refuse.
type forgery struct {
	topo     []byte
	jobs     []string
	counters [5]uint64
	seqs     []uint64
	machines []forgedMachine
	env      []forgedColumn
	alertSeq uint64
	alerts   []wire.Alert
	trailing []byte
}

type forgedMachine struct {
	leaves   []stats.OnlineState
	trackers []forgedTracker
	jobs     []forgedJob
}

type forgedTracker struct {
	st      stats.EWMAState
	started byte // written in place of st.Started
}

type forgedJob struct {
	id              uint32
	faulty, hasMeta byte
	setup, caq      []float64
	phases          [][]forgedColumn // nil: no grid
}

type forgedColumn struct {
	n      uint32
	blocks []forgedBlock
	cell   olap.IntCell // Count 0: no cell, and nothing after the count
}

type forgedBlock struct {
	blk  uint32
	vals block
}

func (c forgedColumn) appendTo(b []byte) []byte {
	b = appendU32(appendU32(b, int(c.n)), len(c.blocks))
	for _, bl := range c.blocks {
		b = appendF64(appendU32(b, int(bl.blk)), bl.vals[:]...)
	}
	return b
}

func (f *forgery) bytes() []byte {
	b := appendStr([]byte{snapFormat}, string(f.topo))
	b = appendU32(b, len(f.jobs))
	for _, name := range f.jobs {
		b = appendStr(b, name)
	}
	b = appendU64(b, f.counters[:]...)
	b = appendU64(appendU32(b, len(f.seqs)), f.seqs...)
	for _, m := range f.machines {
		for _, l := range m.leaves {
			b = appendF64(appendU64(b, uint64(l.N)), l.Mean, l.M2, l.Min, l.Max)
		}
		for _, tk := range m.trackers {
			b = append(appendF64(b, tk.st.Alpha, tk.st.Mean, tk.st.Variance), tk.started)
		}
		b = appendU32(b, len(m.jobs))
		for _, j := range m.jobs {
			b = append(appendU32(b, int(j.id)), j.faulty, j.hasMeta)
			b = appendF64(appendU32(b, len(j.setup)), j.setup...)
			b = appendF64(appendU32(b, len(j.caq)), j.caq...)
			for _, cols := range j.phases {
				if b = append(b, bit(cols != nil)); cols == nil {
					continue
				}
				for _, c := range cols {
					b = appendU64(c.appendTo(b), uint64(c.cell.Count))
					if c.cell.Count != 0 {
						b = appendF64(b, c.cell.Sum, c.cell.Min, c.cell.Max)
					}
				}
			}
		}
	}
	for _, c := range f.env {
		b = c.appendTo(b)
	}
	b = appendU64(b, f.alertSeq)
	b = appendU32(b, len(f.alerts))
	for _, a := range f.alerts {
		b = appendStr(appendStr(appendStr(appendU64(b, a.Seq), a.Machine), a.Phase), a.Sensor)
		b = appendF64(appendU64(b, uint64(a.T)), a.Value, a.Score)
	}
	return append(b, f.trailing...)
}

// oneSample is a column holding v at t = 0.
func oneSample(v float64) forgedColumn {
	var bl forgedBlock
	fillNaN(bl.vals[:])
	bl.vals[0] = v
	return forgedColumn{n: 1, blocks: []forgedBlock{bl}}
}

// forgedState is the smallest payload decodeState accepts that still
// holds one of everything a forger can aim at: a job with vectors, a
// sample and the cube cell beside it, an environment sample, a leaf, a
// tracker, an alert.
func forgedState() *forgery {
	topo := topoWithDefaults(Topology{ID: "forged", Lines: []TopoLine{{ID: "l", Machines: []string{"l/m1"}}}})
	nPhases, nSensors := len(topo.Phases), len(topo.Sensors)
	cols := make([]forgedColumn, nSensors)
	cols[0] = oneSample(1.5)
	cols[0].cell = olap.IntCell{Count: 1, Sum: 1.5, Min: 1.5, Max: 1.5}
	m := forgedMachine{
		leaves:   make([]stats.OnlineState, nPhases*nSensors),
		trackers: make([]forgedTracker, nSensors),
		jobs: []forgedJob{{
			hasMeta: 1, setup: make([]float64, topo.SetupDims), caq: make([]float64, topo.CAQDims),
			phases: make([][]forgedColumn, nPhases),
		}},
	}
	m.jobs[0].phases[0] = cols
	m.leaves[0] = stats.OnlineState{N: 1, Mean: 1.5, Min: 1.5, Max: 1.5}
	m.trackers[0] = forgedTracker{st: stats.EWMAState{Alpha: trackerAlpha, Mean: 1.5}, started: 1}
	env := make([]forgedColumn, len(topo.EnvSensors))
	env[0] = oneSample(19)
	return &forgery{
		topo:     topoJSON(topo),
		jobs:     []string{"j1"},
		counters: [5]uint64{1, 2, 2, 0, 0},
		machines: []forgedMachine{m},
		env:      env,
		alertSeq: 1,
		alerts:   []wire.Alert{{Seq: 1, Machine: "l/m1", Phase: "preparation", Sensor: "temp-a", Value: 1.5, Score: 9}},
	}
}

// forgedCase breaks forgedState in one way; code is the error code
// POST /restore must answer it with.
type forgedCase struct {
	name   string
	mutate func(*forgery)
	code   string
}

func forgedJob0(f *forgery) *forgedJob       { return &f.machines[0].jobs[0] }
func forgedGrid0(f *forgery) *[]forgedColumn { return &f.machines[0].jobs[0].phases[0] }

// forgedStoreCases aim at the stores, the dictionaries, the leaves and
// the trackers. The first three are the gate handleJobs enforces with
// vector_dims; the rest are ids, counts and lengths the decoder would
// index or allocate with, and bytes it would not write back.
var forgedStoreCases = []forgedCase{
	{"oversized setup", func(f *forgery) { j := forgedJob0(f); j.setup = append(j.setup, 1) }, wire.CodeVectorDims},
	{"oversized caq", func(f *forgery) { j := forgedJob0(f); j.caq = append(j.caq, 1) }, wire.CodeVectorDims},
	{"nan setup", func(f *forgery) { forgedJob0(f).setup[0] = math.NaN() }, wire.CodeVectorDims},
	{"machine beyond the topology", func(f *forgery) { f.machines = append(f.machines, f.machines[0]) }, wire.CodeBadRequest},
	{"job id beyond the job table", func(f *forgery) { forgedJob0(f).id = 7 }, wire.CodeBadRequest},
	{"negative job id", func(f *forgery) { forgedJob0(f).id = math.MaxUint32 }, wire.CodeBadRequest},
	{"job stored twice", func(f *forgery) { m := &f.machines[0]; m.jobs = append(m.jobs, m.jobs[0]) }, wire.CodeBadRequest},
	{"phase beyond the topology", func(f *forgery) { j := forgedJob0(f); j.phases = append(j.phases, j.phases[0]) }, wire.CodeBadRequest},
	{"sensor beyond the topology", func(f *forgery) { g := forgedGrid0(f); *g = append(*g, forgedColumn{}) }, wire.CodeBadRequest},
	{"environment sensor beyond the topology", func(f *forgery) { f.env = append(f.env, forgedColumn{}) }, wire.CodeBadRequest},
	{"duplicate job name", func(f *forgery) { f.jobs = []string{"j1", "j1"} }, wire.CodeBadRequest},
	{"control character in a job name", func(f *forgery) { f.jobs = []string{"j\x1fprint"} }, wire.CodeBadRequest},
	{"invalid UTF-8 in a job name", func(f *forgery) { f.jobs = []string{"j\xff"} }, wire.CodeBadRequest},
	{"empty job name", func(f *forgery) { f.jobs = []string{""} }, wire.CodeBadRequest},
	{"leaves beyond the topology", func(f *forgery) { m := &f.machines[0]; m.leaves = append(m.leaves, m.leaves[0]) }, wire.CodeBadRequest},
	{"trackers beyond the topology", func(f *forgery) { m := &f.machines[0]; m.trackers = append(m.trackers, m.trackers[0]) }, wire.CodeBadRequest},
	{"alert above the sequence mark", func(f *forgery) { f.alerts[0].Seq = 2 }, wire.CodeBadRequest},
	{"topology not as registration stores it", func(f *forgery) { f.topo = bytes.Replace(f.topo, []byte("l/m1"), []byte("l/m\xff"), 1) }, wire.CodeBadRequest},
	{"column beyond the t range", func(f *forgery) {
		c := &(*forgedGrid0(f))[0]
		c.n, c.blocks[0].blk = maxSampleIndex+blockLen, maxSampleIndex/blockLen
	}, wire.CodeBadRequest},
	{"column longer than its last block", func(f *forgery) { f.env[0].n = blockLen + 1 }, wire.CodeBadRequest},
	{"blocks out of order", func(f *forgery) {
		c := &(*forgedGrid0(f))[0]
		c.n, c.blocks = 3*blockLen, []forgedBlock{{blk: 1}, {blk: 0}, {blk: 2}}
	}, wire.CodeBadRequest},
	{"tracker flag", func(f *forgery) { f.machines[0].trackers[0].started = 2 }, wire.CodeBadRequest},
	{"job flag", func(f *forgery) { forgedJob0(f).faulty = 2 }, wire.CodeBadRequest},
	{"trailing byte", func(f *forgery) { f.trailing = []byte{0} }, wire.CodeBadRequest},
}

// forgedCubeCases aim at the cube cells, which the decoder writes into
// the grid beside the column they aggregate: cells beside no sample,
// and aggregates an olap.IntCell never holds.
var forgedCubeCases = []forgedCase{
	{"cells beyond the topology", func(f *forgery) {
		g := forgedGrid0(f)
		*g = append(*g, forgedColumn{cell: (*g)[0].cell})
	}, wire.CodeBadRequest},
	{"cells for a phase without samples", func(f *forgery) {
		c := &(*forgedGrid0(f))[0]
		c.n, c.blocks = 0, nil
	}, wire.CodeBadRequest},
	{"cells for more phases than samples", func(f *forgery) {
		j := forgedJob0(f)
		j.phases[1] = make([]forgedColumn, len(j.phases[0]))
		j.phases[1][0].cell = j.phases[0][0].cell
	}, wire.CodeBadRequest},
	{"negative count", func(f *forgery) { (*forgedGrid0(f))[0].cell.Count = -1 }, wire.CodeBadRequest},
	{"non-finite sum", func(f *forgery) { (*forgedGrid0(f))[0].cell.Sum = math.Inf(1) }, wire.CodeBadRequest},
}

// restoreForged posts each case to POST /restore and wants a 400 with
// the case's code — never a panic, never a plant. The unmutated forgery
// restores, so every case fails for the reason it names.
func restoreForged(t *testing.T, cases []forgedCase) {
	t.Helper()
	srv := New(Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	restore := func(f *forgery) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/plants/forged/restore", "application/octet-stream",
			bytes.NewReader(wal.EncodeSnapshot(1, f.bytes())))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, c := range cases {
		f := forgedState()
		c.mutate(f)
		body := mustStatus(t, restore(f), http.StatusBadRequest)
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
	ps := newPlantState(topoWithDefaults(binaryTestTopo())) // as registration fills it in
	ps.makeShards(2, 8)
	ps.alertThreshold = 1e18
	foldPlant(t, ps, binaryTestRecords())
	ps.applyJobMetas([]JobMeta{{Machine: "m0", Job: "job-a", Setup: []float64{1, 2, 3}, CAQ: []float64{4}, Faulty: true}})
	return ps
}

// fuzzSeeds is the seed corpus of FuzzRestoreState: the payload of a
// live plant's snapshot with its WAL positions, the forged baseline and
// every forged case.
func fuzzSeeds(t testing.TB) [][]byte {
	ps := livePlant(t)
	ps.shards[1].foldedSeq.Store(42)
	live, _ := ps.encodeState(true)
	seeds := [][]byte{live, forgedState().bytes()}
	for _, c := range slices.Concat(forgedStoreCases, forgedCubeCases) {
		f := forgedState()
		c.mutate(f)
		seeds = append(seeds, f.bytes())
	}
	return seeds
}

// reencode captures a plant decodeState returned, with the WAL
// positions it returned beside it.
func reencode(ps *plantState, seqs []uint64) []byte {
	ps.makeShards(max(1, len(seqs)), 1)
	for i, seq := range seqs {
		ps.shards[i].foldedSeq.Store(seq)
	}
	payload, _ := ps.encodeState(len(seqs) > 0)
	return payload
}

// FuzzRestoreState feeds arbitrary snapshot payloads — what Open, POST
// /restore and a seeding standby hand decodeState once the envelope's
// CRC checked out — through the one decoder. Whatever it accepts must
// serve a roll-up without panicking and be in canonical form: the
// capture of the decoded plant encodes to the payload, byte for byte.
// The seeds are built from the current encoder and forgery on every
// run, so none can go stale, and run as unit tests under plain go test.
func FuzzRestoreState(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		ps, seqs, err := decodeState(payload)
		if err != nil {
			return
		}
		if _, _, err := ps.rollup("sensor"); err != nil {
			t.Fatal(err)
		}
		if again := reencode(ps, seqs); !bytes.Equal(again, payload) {
			t.Fatalf("an accepted payload of %d bytes captures back as %d other bytes", len(payload), len(again))
		}
	})
}

// allocated returns the bytes f allocates: the least of three runs, so
// that a goroutine another test left behind cannot add to it.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestForgedCountsRefusedWithinInput: every count in a payload is
// checked against the topology and the bytes left before anything is
// allocated by it, so a payload claiming 2³¹ jobs or blocks is refused
// having allocated no more than a constant factor of its own length.
func TestForgedCountsRefusedWithinInput(t *testing.T) {
	// patch overwrites the u32 at byte at of a forgery's payload.
	patch := func(f *forgery, at func(f *forgery) int) []byte {
		b := f.bytes()
		binary.LittleEndian.PutUint32(b[at(f):], 1<<31)
		return b
	}
	jobNames := func(f *forgery) int { return 1 + 4 + len(f.topo) }
	positions := func(f *forgery) int { return jobNames(f) + 4 + 4 + len("j1") + 5*8 }
	machineJobs := func(f *forgery) int {
		m := f.machines[0]
		return positions(f) + 4 + len(m.leaves)*minLeaf + len(m.trackers)*minTracker
	}
	noJobs, noAlerts, wide := forgedState(), forgedState(), forgedState()
	noJobs.machines[0].jobs, noAlerts.alerts = nil, nil
	topo := topoWithDefaults(Topology{ID: "wide", Lines: []TopoLine{{ID: "l", Machines: []string{"m0", "m1", "m2", "m3"}}}})
	for i := range 400 {
		topo.Phases = append(topo.Phases, fmt.Sprintf("p%d", i))
		topo.Sensors = append(topo.Sensors, fmt.Sprintf("s%d", i))
	}
	wide.topo, wide.machines, wide.env = topoJSON(topo), make([]forgedMachine, 4), nil
	cases := map[string][]byte{
		"2^31 job names":         patch(forgedState(), jobNames),
		"2^31 shard positions":   patch(forgedState(), positions),
		"2^31 jobs on a machine": patch(noJobs, machineJobs),
		"2^31 alerts":            patch(noAlerts, func(f *forgery) int { return len(f.bytes()) - 4 }),
		"2^31 topology bytes":    appendU32([]byte{snapFormat}, 1<<31),
		"a topology of 4 × 400 × 400 leaves in a few KiB": wide.bytes(),
	}
	for name, p := range cases {
		var err error
		got := allocated(func() { _, _, err = decodeState(p) })
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if limit := 64*uint64(len(p)) + 4<<10; got > limit {
			t.Fatalf("%s: refused (%v) having allocated %d bytes for a %d-byte payload, want at most %d", name, err, got, len(p), limit)
		}
		t.Logf("%s: %d bytes in, %d allocated: %v", name, len(p), got, err)
	}
}

// TestSnapshotBytesDeterministic: the snapshot bytes are a function of
// the state. Two captures of one quiescent plant — its jobs sitting in
// maps, interned in whatever order three shard workers raced to —
// encode identically, and so does the capture of the plant the first
// capture decodes to, under a different shard count.
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

	// Without positions: one entry per shard is the one field that is
	// not plant state.
	first, _ := ps.encodeState(false)
	for i := 0; i < 10; i++ {
		if again, _ := ps.encodeState(false); !bytes.Equal(first, again) {
			t.Fatalf("capture %d of the same quiescent plant encodes differently (%d vs %d bytes)", i+2, len(again), len(first))
		}
	}
	restored, _, err := decodeState(first)
	if err != nil {
		t.Fatal(err)
	}
	restored.makeShards(2, 8)
	if round, _ := restored.encodeState(false); !bytes.Equal(first, round) {
		t.Fatalf("capture → decode → capture changed the bytes (%d vs %d)", len(round), len(first))
	}
}

// TestOlderSnapshotFormatRefused: testdata holds one backup per retired
// format — backup_format0.snap from the commit before the format tag
// existed (untagged gob, name-keyed maps), backup_format1.snap from the
// last commit that kept leaves, trackers and cube cells in id-keyed
// lists of their own, backup_format2.snap from the last commit that
// wrote a gob of nested slices. No reader of theirs is left, so both
// ways in refuse them by the first byte: POST /restore with a 400, Open
// with an error that names the plant directory.
func TestOlderSnapshotFormatRefused(t *testing.T) {
	for _, fixture := range []string{"backup_format0.snap", "backup_format1.snap", "backup_format2.snap"} {
		t.Run(fixture, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			if _, payload, err := wal.DecodeSnapshot(old); err != nil {
				t.Fatalf("fixture is not a framed snapshot: %v", err)
			} else if _, _, err := decodeState(payload); !errors.Is(err, errSnapFormat) {
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

// TestFormat3BackupServes: backup_format3.snap is backup_format2.snap
// converted once — read by the last format-2 reader into a plant, and
// that plant written by the format-3 encoder. POST /restore and Open
// both take it and answer with the bodies the format-2 commit served
// for the original, which backup_format2.bodies.json holds by query.
func TestFormat3BackupServes(t *testing.T) {
	backup, err := os.ReadFile(filepath.Join("testdata", "backup_format3.snap"))
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
				t.Fatalf("%s: %s differs from the body served for the format-2 backup:\ngot  %s\nwant %s", how, q, got, want[q])
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
	ps, _, err := decodeState(payload)
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	plantDir := filepath.Join(dataDir, "format2")
	if err := persistMeta(plantDir, ps.topo); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(plantDir, wal.SnapshotName), backup, 0o644); err != nil {
		t.Fatal(err)
	}
	re := New(durableOptions(dataDir))
	if err := re.Open(); err != nil {
		t.Fatalf("Open over the format-3 snapshot: %v", err)
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

// TestJobsGateKeepsDataDirRecoverable: decodeState refuses a snapshot
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

// TestBareJobsSnapshotReopens: the least a job takes in a snapshot is
// its id, two flags, two empty vectors and one absent-phase flag per
// phase — what /jobs leaves for metadata without setup or CAQ before
// any sample arrives. Ten such jobs on the last machine are followed
// only by the environment columns and the alert ring, so the decoder's
// per-job floor must not exceed that least, or it refuses what the
// encoder wrote: the payload decodes and re-encodes byte for byte, and
// the data dir reopens from the Close snapshot.
func TestBareJobsSnapshotReopens(t *testing.T) {
	dataDir := t.TempDir()
	srv := New(durableOptions(dataDir))
	if err := srv.Open(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	register(t, ts.URL, binaryTestTopo())
	var metas []JobMeta
	for i := range 10 {
		metas = append(metas, JobMeta{Machine: "m1", Job: fmt.Sprintf("bare-%d", i)})
	}
	body, err := json.Marshal(metas)
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, postRetry(t, ts.URL+"/v1/plants/plant-intern/jobs", "application/json", body), http.StatusAccepted)
	ps, _ := srv.plant("plant-intern")
	payload, _ := ps.encodeState(false)
	decoded, seqs, err := decodeState(payload)
	if err != nil {
		t.Fatalf("a snapshot of ten bare jobs refused: %v", err)
	}
	if round := reencode(decoded, seqs); !bytes.Equal(round, payload) {
		t.Fatalf("decode → capture changed the bytes (%d vs %d)", len(round), len(payload))
	}
	ts.Close()
	srv.Close()

	re := New(durableOptions(dataDir))
	if err := re.Open(); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ps, ok := re.plant("plant-intern")
	if !ok {
		t.Fatal("plant not recovered")
	}
	if got := len(ps.mstores[1].jobsByID); got != len(metas) {
		t.Fatalf("%d jobs on m1 after reopen, want %d", got, len(metas))
	}
}

// TestRestoredPlantReopens: a restore writes the backup's topology twice
// — as meta.json and inside the baseline snapshot — and Open refuses a
// plant dir whose two copies disagree. A backup carries its topology as
// the bytes meta.json holds, and the decoder refuses any other bytes
// (the forged case "topology not as registration stores it": a machine
// name that is not valid UTF-8, which JSON cannot hold), so a restored
// plant always reopens.
func TestRestoredPlantReopens(t *testing.T) {
	dataDir := t.TempDir()
	srv := New(durableOptions(dataDir))
	if err := srv.Open(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	resp, err := http.Post(ts.URL+"/v1/plants/forged/restore", "application/octet-stream",
		bytes.NewReader(wal.EncodeSnapshot(3, forgedState().bytes())))
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
