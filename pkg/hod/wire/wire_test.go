package wire

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire_golden.json from the current encoders")

// goldenCases pins the JSON encoding of every request/response type of
// the v1 protocol. Each case is encoded, compared byte-for-byte against
// testdata/wire_golden.json, and round-tripped back into its Go type —
// so an SDK refactor cannot silently move a field, rename a tag, or
// change omitempty behaviour without updating the golden file (and
// thereby declaring a protocol change).
func goldenCases() []struct {
	Name  string
	Value any
} {
	return []struct {
		Name  string
		Value any
	}{
		{"record_machine", Record{Machine: "line-1/m1", Job: "j1", Phase: "print", Sensor: "temp-a", T: 7, Value: 21.5}},
		{"record_env", Record{Env: true, Sensor: "room-temp", T: 3, Value: 19.25}},
		{"job_meta", JobMeta{Machine: "line-1/m1", Job: "j1", Setup: []float64{0.2, 40, 210, 1, 0.5}, CAQ: []float64{0.1, 2, 3, 40, 0.2, 1}, Faulty: true}},
		{"topology", Topology{ID: "p1", Lines: []TopoLine{{ID: "line-1", Machines: []string{"line-1/m1", "line-1/m2"}}}, Phases: []string{"print"}, Sensors: []string{"temp-a"}, EnvSensors: []string{"room-temp"}, SetupDims: 5, CAQDims: 6}},
		{"topology_minimal", Topology{ID: "p2", Lines: []TopoLine{{ID: "l", Machines: []string{"m"}}}}},
		{"register_ack", RegisterAck{ID: "p1", Lines: 2, Machines: 6, Shards: 4, QueueDepth: 64}},
		{"plant_list", PlantList{Plants: []string{"p1", "p2"}}},
		{"ingest_ack", IngestAck{Records: 120, Rejected: 2, FirstRejection: `unknown sensor "nope"`}},
		{"ingest_ack_clean", IngestAck{Records: 120}},
		{"jobs_ack", JobsAck{Jobs: 11, Rejected: 1, FirstRejection: "missing job id"}},
		{"outlier", Outlier{Level: LevelPhase, Sensor: "temp-a", Index: 41, JobIndex: 2, GlobalScore: 3, Outlierness: 0.75, Support: 1, SeenAt: []Level{LevelPhase, LevelJob, LevelEnvironment}}},
		{"warning", Warning{Level: LevelJob, Below: LevelPhase, JobIndex: 4, Sensor: "temp-b", Reason: "outlier at job level not confirmed at phase level: possible wrong measurement"}},
		{"fleet_outlier", FleetOutlier{Machine: "line-1/m1", Outlier: Outlier{Level: LevelPhase, Sensor: "power", Index: 9, JobIndex: 0, GlobalScore: 1, Outlierness: 0.5, Support: 0, SeenAt: []Level{LevelPhase}}}},
		{"fleet_warning", FleetWarning{Machine: "line-1/m1", Reason: "possible wrong measurement"}},
		{"report_response", ReportResponse{
			Plant: "p1", Level: "phase", Machines: []string{"line-1/m1"}, Missing: []string{"line-1/m2"},
			TotalOutliers: 1, TopK: 20,
			Outliers:     []FleetOutlier{{Machine: "line-1/m1", Outlier: Outlier{Level: LevelPhase, Sensor: "temp-a", Index: 1, GlobalScore: 2, Outlierness: 0.6, Support: 1, SeenAt: []Level{LevelPhase, LevelJob}}}},
			Warnings:     []FleetWarning{{Machine: "line-1/m1", Reason: "r"}},
			DataRevision: 12,
		}},
		{"rollup_node", RollupNode{Key: "line-1/m1/print", Count: 40, Mean: 1.5, Std: 0.25, Min: 1, Max: 2}},
		{"cube_cell", CubeCell{Coord: []string{"line-1", "line-1/m1", "j1", "print", "temp-a"}, Count: 40, Sum: 60, Mean: 1.5, Min: 1, Max: 2}},
		{"cube_response", CubeResponse{
			Plant: "p1", Op: CubeOpDrilldown, Dims: []string{"line", "machine"},
			Where:      []string{"line=line-1"},
			Cells:      []CubeCell{{Coord: []string{"line-1", "line-1/m1"}, Count: 2, Sum: 6, Mean: 3, Min: 2, Max: 4}},
			TotalCells: 12,
		}},
		{"cube_response_members", CubeResponse{
			Plant: "p1", Op: CubeOpMembers, Dims: []string{"line", "machine", "job", "phase", "sensor"},
			Members: []string{"print", "recoat"}, TotalCells: 12,
		}},
		{"rollup_response", RollupResponse{Plant: "p1", Level: "machine", Nodes: []RollupNode{{Key: "line-1/m1", Count: 2, Mean: 3, Std: 0, Min: 3, Max: 3}}}},
		{"alert", Alert{Seq: 41, Machine: "line-1/m1", Phase: "print", Sensor: "vibration", T: 99, Value: 6.5, Score: 11.25}},
		{"alerts_response", AlertsResponse{Plant: "p1", Alerts: []Alert{{Seq: 1, Machine: "m", Phase: "p", Sensor: "s", T: 1, Value: 2, Score: 9}}}},
		{"stats_response", StatsResponse{Plant: "p1", AcceptedRecords: 1000, ReceivedRecords: 1010, RejectedRecords: 4, ShedBatches: 2, DataRevision: 17, Shards: 4, QueueDepths: []int{0, 1, 0, 0}, WALSegments: 3, SnapshotRev: 2}},
		{"restore_ack", RestoreAck{ID: "p1", Machines: 6, Records: 1010, SnapshotRev: 2}},
		{"error_envelope", ErrorEnvelope{Err: ErrorBody{Code: CodeBackpressure, Message: "ingest queue full, retry the batch"}}},
		{"event_alert", Event{Kind: EventAlert, Plant: "p1", Seq: 42, Coalesced: true,
			Alerts: []Alert{{Seq: 42, Machine: "line-1/m1", Phase: "print", Sensor: "vibration", T: 99, Value: 6.5, Score: 11.25}}}},
		{"event_cube_delta", Event{Kind: EventCubeDelta, Plant: "p1", Revision: 17}},
		{"event_stats", Event{Kind: EventStats, Plant: "p1", Revision: 17,
			Stats: &StatsResponse{Plant: "p1", AcceptedRecords: 10, ReceivedRecords: 10, DataRevision: 17, Shards: 1, QueueDepths: []int{0}}}},
		{"subscribe_request", SubscribeRequest{Channels: []string{"alerts:p1", "cube:*"},
			AfterSeq: map[string]uint64{"p1": 42}, AfterRev: map[string]uint64{"p1": 17}}},
		{"cluster_node", ClusterNode{ID: "n1", Addr: "http://10.0.0.1:8080", State: NodeActive}},
		{"cluster_membership", ClusterMembership{Epoch: 3, Nodes: []ClusterNode{
			{ID: "n1", Addr: "http://10.0.0.1:8080", State: NodeActive},
			{ID: "n2", Addr: "http://10.0.0.2:8080", State: NodeDraining}}}},
		{"cluster_placement", ClusterPlacement{Plant: "p1", Owner: "n1", Standby: "n2"}},
		{"cluster_status_response", ClusterStatusResponse{Epoch: 3,
			Nodes:      []ClusterNode{{ID: "n1", Addr: "http://10.0.0.1:8080", State: NodeActive}},
			Placements: []ClusterPlacement{{Plant: "p1", Owner: "n1"}}}},
		{"cluster_node_request", ClusterNodeRequest{ID: "n3", Addr: "http://10.0.0.3:8080"}},
		{"cluster_plant_request", ClusterPlantRequest{Plant: "p1"}},
		{"cluster_ack", ClusterAck{Epoch: 4, Moved: 2}},
		{"error_envelope_failover", ErrorEnvelope{Err: ErrorBody{Code: CodeFailover, Message: "plant move in progress"}}},
	}
}

func goldenPath() string { return filepath.Join("testdata", "wire_golden.json") }

func TestGoldenWireCompat(t *testing.T) {
	got := map[string]json.RawMessage{}
	for _, c := range goldenCases() {
		raw, err := json.Marshal(c.Value)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if r, ok := c.Value.(CubeResponse); ok {
			// The cube body's own encoder is held to the same bytes.
			if app, err := AppendCubeResponse(nil, &r); err != nil || !bytes.Equal(app, raw) {
				t.Errorf("%s: AppendCubeResponse gives %s (%v), json.Marshal %s", c.Name, app, err, raw)
			}
		}
		got[c.Name] = raw
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath())
		return
	}
	blob, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./pkg/hod/wire -update-golden` once): %v", err)
	}
	want := map[string]json.RawMessage{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases() {
		w, ok := want[c.Name]
		if !ok {
			t.Errorf("%s: missing from golden file — new wire type? re-run with -update-golden and review the protocol diff", c.Name)
			continue
		}
		var wc, gc bytes.Buffer
		if err := json.Compact(&wc, w); err != nil {
			t.Fatalf("%s: golden entry is not valid JSON: %v", c.Name, err)
		}
		if err := json.Compact(&gc, got[c.Name]); err != nil {
			t.Fatal(err)
		}
		if wc.String() != gc.String() {
			t.Errorf("%s: wire encoding drifted from the pinned v1 protocol\n got: %s\nwant: %s", c.Name, gc.String(), wc.String())
		}
	}
	for name := range want {
		found := false
		for _, c := range goldenCases() {
			if c.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("golden entry %q has no matching case — wire type removed without updating the golden file", name)
		}
	}
}

// TestGoldenRoundTrip decodes each golden entry back into its Go type
// and re-encodes it, proving the tags parse what they emit.
func TestGoldenRoundTrip(t *testing.T) {
	for _, c := range goldenCases() {
		raw, err := json.Marshal(c.Value)
		if err != nil {
			t.Fatal(err)
		}
		back := reflect.New(reflect.TypeOf(c.Value))
		if err := json.Unmarshal(raw, back.Interface()); err != nil {
			t.Fatalf("%s: decode: %v", c.Name, err)
		}
		if !reflect.DeepEqual(back.Elem().Interface(), c.Value) {
			t.Errorf("%s: round trip changed the value\n got: %+v\nwant: %+v", c.Name, back.Elem().Interface(), c.Value)
		}
	}
}

// TestIngestBodyFormats decodes one batch from every body a client
// builds: NDJSON (the curl door), a plantsim CSV converted on the
// client side, and the binary frame those converted records are sent
// as.
func TestIngestBodyFormats(t *testing.T) {
	want := []Record{
		{Machine: "m", Job: "j", Phase: "print", Sensor: "temp-a", T: 0, Value: 1.5},
		{Machine: "m", Job: "j", Phase: "print", Sensor: "temp-b", T: 0, Value: 2.5},
	}
	nd, err := EncodeNDJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	fromNDJSON, err := DecodeNDJSON(bytes.NewReader(nd))
	if err != nil {
		t.Fatalf("ndjson: %v", err)
	}
	fromCSV, err := DecodeCSV(strings.NewReader("machine,job,phase,t,temp-a,temp-b\nm,j,print,0,1.5,2.5\n"))
	if err != nil {
		t.Fatalf("csv: %v", err)
	}
	bin, err := EncodeBinary(fromCSV)
	if err != nil {
		t.Fatal(err)
	}
	fromBinary, err := DecodeBinary(bytes.NewReader(bin))
	if err != nil {
		t.Fatalf("binary: %v", err)
	}
	for name, got := range map[string][]Record{"ndjson": fromNDJSON, "csv": fromCSV, "csv as binary": fromBinary} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
	if _, err := DecodeCSV(strings.NewReader("t,room-temp\n0,19.5\nx,20\n")); err == nil {
		t.Error("bad env CSV t accepted")
	}
	got, err := DecodeCSV(strings.NewReader("t,room-temp\n0,19.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Env || got[0].Sensor != "room-temp" {
		t.Errorf("env CSV decoded to %+v", got)
	}
}

func TestTopologyValidate(t *testing.T) {
	ok := Topology{ID: "p", Lines: []TopoLine{{ID: "l", Machines: []string{"m"}}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Topology{
		"no id":       {Lines: []TopoLine{{ID: "l", Machines: []string{"m"}}}},
		"no lines":    {ID: "p"},
		"empty line":  {ID: "p", Lines: []TopoLine{{ID: "l"}}},
		"dup machine": {ID: "p", Lines: []TopoLine{{ID: "l", Machines: []string{"m", "m"}}}},
		"narrow dims": {ID: "p", Lines: []TopoLine{{ID: "l", Machines: []string{"m"}}}, SetupDims: 2},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"": LevelPhase, "1": LevelPhase, "phase": LevelPhase,
		"2": LevelJob, "job": LevelJob,
		"3": LevelEnvironment, "env": LevelEnvironment, "environment": LevelEnvironment,
		"4": LevelProductionLine, "line": LevelProductionLine, "production-line": LevelProductionLine,
		"5": LevelProduction, "production": LevelProduction,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("6"); err == nil {
		t.Error("ParseLevel(6) accepted")
	}
	if got := LevelProductionLine.String(); got != "production-line" {
		t.Errorf("String() = %q", got)
	}
	if Level(0).Valid() || Level(6).Valid() || !LevelPhase.Valid() {
		t.Error("Valid() wrong")
	}
}
