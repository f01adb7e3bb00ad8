package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/plant"
	"repro/internal/server"
	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// writeTrace writes a plantsim-schema sensors.csv + jobs.csv +
// environment.csv for the given plant.
func writeTrace(t *testing.T, dir string, p *plant.Plant) (sensors, jobs, env string) {
	t.Helper()
	sensors = filepath.Join(dir, "sensors.csv")
	var sb strings.Builder
	sb.WriteString("machine,job,phase,t," + strings.Join(plant.SensorNames, ",") + "\n")
	for _, m := range p.Machines() {
		for _, job := range m.Jobs {
			for _, ph := range job.Phases {
				for ti := 0; ti < ph.Sensors.Len(); ti++ {
					fmt.Fprintf(&sb, "%s,%s,%s,%d", m.ID, job.ID, ph.Name, ti)
					for _, v := range ph.Sensors.Row(ti) {
						sb.WriteString("," + strconv.FormatFloat(v, 'g', -1, 64))
					}
					sb.WriteString("\n")
				}
			}
		}
	}
	if err := os.WriteFile(sensors, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	jobs = filepath.Join(dir, "jobs.csv")
	sb.Reset()
	sb.WriteString("machine,job,faulty,layer_height,speed,setpoint,extrusion,viscosity,dim_error,roughness,porosity,tensile,warp,completion\n")
	for _, m := range p.Machines() {
		for _, job := range m.Jobs {
			fmt.Fprintf(&sb, "%s,%s,%t", m.ID, job.ID, job.Faulty)
			for _, v := range append(append([]float64(nil), job.Setup...), job.CAQ...) {
				sb.WriteString("," + strconv.FormatFloat(v, 'g', -1, 64))
			}
			sb.WriteString("\n")
		}
	}
	if err := os.WriteFile(jobs, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	env = filepath.Join(dir, "environment.csv")
	sb.Reset()
	names := make([]string, len(p.Environment.Dims))
	for i, d := range p.Environment.Dims {
		names[i] = d.Name
	}
	sb.WriteString("t," + strings.Join(names, ",") + "\n")
	for ti := 0; ti < p.Environment.Len(); ti++ {
		sb.WriteString(strconv.Itoa(ti))
		for _, v := range p.Environment.Row(ti) {
			sb.WriteString("," + strconv.FormatFloat(v, 'g', -1, 64))
		}
		sb.WriteString("\n")
	}
	if err := os.WriteFile(env, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return sensors, jobs, env
}

// serveTest hosts an in-process fleet server on an ephemeral port.
func serveTest(t *testing.T, opts server.Options) (base string) {
	t.Helper()
	srv := server.New(opts)
	t.Cleanup(srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := srv.ServeListener(ln)
	t.Cleanup(stop)
	return "http://" + ln.Addr().String()
}

// TestReplayAgainstServer drives the replay path end to end: derive
// the topology from the CSV, register, stream all three files, then
// confirm the server has the data and serves a report — all through
// the SDK client. The CSV is converted on the client side: every
// ingest request replay makes is a binary frame body.
func TestReplayAgainstServer(t *testing.T) {
	p, err := plant.Simulate(plant.Config{
		Seed: 6, Lines: 2, MachinesPerLine: 2, JobsPerMachine: 3, PhaseSamples: 16,
		FaultRate: 0.4, MeasurementErrorRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sensors, jobs, env := writeTrace(t, t.TempDir(), p)

	srv := server.New(server.Options{Shards: 2, QueueDepth: 4})
	t.Cleanup(srv.Close)
	var mu sync.Mutex
	ingestTypes := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/ingest") {
			mu.Lock()
			ingestTypes[r.Header.Get("Content-Type")]++
			mu.Unlock()
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	base := ts.URL

	if err := cmdReplay([]string{
		"-addr", base, "-plant", "replayed", "-register",
		"-sensors", sensors, "-jobs", jobs, "-env", env, "-batch", "300",
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(ingestTypes) != 1 || ingestTypes[wire.ContentTypeBinary] == 0 {
		t.Errorf("replay posted ingest bodies as %v, want %s only", ingestTypes, wire.ContentTypeBinary)
	}
	mu.Unlock()

	// The replay returns once every batch is admitted; wait for the
	// shard pipelines to drain before asserting counts.
	wantRecords := 0
	for _, m := range p.Machines() {
		for _, job := range m.Jobs {
			for _, ph := range job.Phases {
				wantRecords += ph.Sensors.Len() * len(ph.Sensors.Dims)
			}
		}
	}
	wantRecords += p.Environment.Len() * len(p.Environment.Dims)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := hod.NewClient(base)
	if err := client.WaitDrained(ctx, "replayed", uint64(wantRecords)); err != nil {
		t.Fatalf("server never drained: %v", err)
	}
	st, err := client.Stats(ctx, "replayed")
	if err != nil {
		t.Fatal(err)
	}
	if st.AcceptedRecords != uint64(wantRecords) {
		t.Fatalf("accepted %d records, want %d", st.AcceptedRecords, wantRecords)
	}

	rep, err := client.Report(ctx, "replayed", hod.ReportQuery{Level: hod.LevelPhase, Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Machines) != len(p.Machines()) {
		t.Fatalf("report machines %v, want %d", rep.Machines, len(p.Machines()))
	}

	// The query subcommands run against the same server through the
	// SDK client.
	if err := cmdReport([]string{"-addr", base, "-plant", "replayed", "-level", "phase", "-top", "5"}); err != nil {
		t.Fatalf("hodctl report: %v", err)
	}
	if err := cmdAlerts([]string{"-addr", base, "-plant", "replayed", "-limit", "3"}); err != nil {
		t.Fatalf("hodctl alerts: %v", err)
	}
	for _, args := range [][]string{
		{"-op", "slice", "-where", "machine=" + p.Machines()[0].ID},
		{"-op", "rollup", "-keep", "line,sensor"},
		{"-op", "members", "-dim", "phase"},
		{"-op", "drilldown", "-dim", "machine", "-where", "line=" + p.Lines[0].ID, "-json"},
	} {
		if err := cmdCube(append([]string{"-addr", base, "-plant", "replayed"}, args...)); err != nil {
			t.Fatalf("hodctl cube %v: %v", args, err)
		}
	}
	if err := cmdCube([]string{"-addr", base, "-plant", "replayed", "-where", "machine"}); err == nil {
		t.Fatal("hodctl cube accepted a malformed -where constraint")
	}

	// -json prints the answer as it printed it when the client read the
	// JSON body: that body through json.Unmarshal, indented.
	resp, err := http.Get(base + "/v1/plants/replayed/cube?op=rollup&keep=line,sensor")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	var cube wire.CubeResponse
	err = json.NewDecoder(resp.Body).Decode(&cube)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cube); err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() error {
		return cmdCube([]string{"-addr", base, "-plant", "replayed", "-op", "rollup", "-keep", "line,sensor", "-json"})
	})
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("hodctl cube -json printed\n%s\nwant\n%s", got, want.Bytes())
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	old := os.Stdout
	os.Stdout = w
	err = fn()
	os.Stdout = old
	w.Close()
	printed := <-out
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return printed
}

func TestDeriveTopology(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sensors.csv")
	content := "machine,job,phase,t,temp-a,temp-b\n" +
		"line-2/m1,j,print,0,1,2\n" +
		"line-1/m1,j,print,0,1,2\n" +
		"line-1/m2,j,print,0,1,2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	topo, err := deriveTopology("pid", path)
	if err != nil {
		t.Fatal(err)
	}
	if topo.ID != "pid" {
		t.Fatalf("id=%v", topo.ID)
	}
	if len(topo.Lines) != 2 || topo.Lines[0].ID != "line-1" || topo.Lines[1].ID != "line-2" {
		t.Fatalf("lines=%v", topo.Lines)
	}
	if ms := topo.Lines[0].Machines; len(ms) != 2 || ms[0] != "line-1/m1" {
		t.Fatalf("machines=%v", ms)
	}
	if ss := topo.Sensors; len(ss) != 2 || ss[1] != "temp-b" {
		t.Fatalf("sensors=%v", ss)
	}
}

// TestBackupRestoreSubcommands drives the operator loop end to end:
// replay a trace into one server, `hodctl backup` it to a file,
// `hodctl restore` it into a second server, and check the reports
// agree.
func TestBackupRestoreSubcommands(t *testing.T) {
	p, err := plant.Simulate(plant.Config{
		Seed: 9, Lines: 1, MachinesPerLine: 2, JobsPerMachine: 2, PhaseSamples: 10,
		FaultRate: 0.4, MeasurementErrorRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sensors, jobs, env := writeTrace(t, t.TempDir(), p)
	srcBase := serveTest(t, server.Options{Shards: 2, QueueDepth: 8})
	dstBase := serveTest(t, server.Options{Shards: 2, QueueDepth: 8})

	if err := cmdReplay([]string{
		"-addr", srcBase, "-plant", "bk", "-register",
		"-sensors", sensors, "-jobs", jobs, "-env", env, "-batch", "200",
	}); err != nil {
		t.Fatal(err)
	}
	wantRecords := 0
	for _, m := range p.Machines() {
		for _, job := range m.Jobs {
			for _, ph := range job.Phases {
				wantRecords += ph.Sensors.Len() * len(ph.Sensors.Dims)
			}
		}
	}
	wantRecords += p.Environment.Len() * len(p.Environment.Dims)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hod.NewClient(srcBase).WaitDrained(ctx, "bk", uint64(wantRecords)); err != nil {
		t.Fatal(err)
	}

	bak := filepath.Join(t.TempDir(), "bk.snap")
	if err := cmdBackup([]string{"-addr", srcBase, "-plant", "bk", "-out", bak}); err != nil {
		t.Fatalf("hodctl backup: %v", err)
	}
	if err := cmdRestore([]string{"-addr", dstBase, "-plant", "bk", "-in", bak}); err != nil {
		t.Fatalf("hodctl restore: %v", err)
	}

	want, err := hod.NewClient(srcBase).Report(ctx, "bk", hod.ReportQuery{Top: 64})
	if err != nil {
		t.Fatal(err)
	}
	got, err := hod.NewClient(dstBase).Report(ctx, "bk", hod.ReportQuery{Top: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Outliers) != len(want.Outliers) || got.TotalOutliers != want.TotalOutliers {
		t.Fatalf("restored report differs: %d/%d outliers vs %d/%d",
			len(got.Outliers), got.TotalOutliers, len(want.Outliers), want.TotalOutliers)
	}
}
