package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// cmdReplay streams a plantsim trace (sensors.csv, optionally
// jobs.csv and environment.csv) through a running hodserve ingest API
// via the typed SDK client — hod.Client owns the HTTP traffic and the
// 429 + Retry-After backoff, so the CLI only batches and converts CSV
// rows. The summary reports how many shed batches the client had to
// re-send.
func cmdReplay(args []string) error {
	fs := newFlagSet("replay")
	addr := fs.String("addr", "http://localhost:8080", "hodserve base URL")
	plantID := fs.String("plant", "plant-1", "plant ID on the server")
	sensors := fs.String("sensors", "", "plantsim sensors.csv to replay (required)")
	jobs := fs.String("jobs", "", "plantsim jobs.csv with setup+CAQ vectors")
	env := fs.String("env", "", "plantsim environment.csv")
	batch := fs.Int("batch", 2000, "CSV rows per ingest request")
	doRegister := fs.Bool("register", false, "derive the topology from sensors.csv and register the plant first")
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}
	if *sensors == "" {
		return usagef("replay: -sensors is required")
	}
	ctx := context.Background()
	client := hod.NewClient(*addr)

	if *doRegister {
		topo, err := deriveTopology(*plantID, *sensors)
		if err != nil {
			return err
		}
		if _, err := client.Register(ctx, topo); err != nil {
			return err
		}
		fmt.Printf("replay: registered plant %s\n", *plantID)
	}

	rows, err := replayCSV(ctx, client, *plantID, *sensors, *batch)
	if err != nil {
		return err
	}
	fmt.Printf("replay: streamed %d sensor rows from %s\n", rows, *sensors)

	if *env != "" {
		rows, err := replayCSV(ctx, client, *plantID, *env, *batch)
		if err != nil {
			return err
		}
		fmt.Printf("replay: streamed %d environment rows from %s\n", rows, *env)
	}
	if *jobs != "" {
		n, err := uploadJobs(ctx, client, *plantID, *jobs)
		if err != nil {
			return err
		}
		fmt.Printf("replay: uploaded %d job vectors from %s\n", n, *jobs)
	}
	if retried := client.Retried(); retried > 0 {
		fmt.Printf("replay: %d batches were shed by backpressure and re-sent\n", retried)
	}
	return nil
}

// deriveTopology scans a sensors.csv for the machine set (lines are
// the ID prefix before the first '/') and sensor columns, building the
// same wire type the server registers.
func deriveTopology(plantID, path string) (wire.Topology, error) {
	topo := wire.Topology{ID: plantID}
	f, err := os.Open(path)
	if err != nil {
		return topo, err
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReader(f))
	header, err := r.Read()
	if err != nil {
		return topo, fmt.Errorf("%s: missing header: %w", path, err)
	}
	if len(header) < 5 || header[0] != "machine" {
		return topo, fmt.Errorf("%s: not a plantsim sensors.csv (header %q)", path, strings.Join(header, ","))
	}
	machines := map[string]bool{}
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return topo, err
		}
		machines[rec[0]] = true
	}
	byLine := map[string][]string{}
	for m := range machines {
		line := m
		if i := strings.IndexByte(m, '/'); i > 0 {
			line = m[:i]
		}
		byLine[line] = append(byLine[line], m)
	}
	lineIDs := make([]string, 0, len(byLine))
	for l := range byLine {
		lineIDs = append(lineIDs, l)
	}
	sort.Strings(lineIDs)
	for _, l := range lineIDs {
		ms := byLine[l]
		sort.Strings(ms)
		topo.Lines = append(topo.Lines, wire.TopoLine{ID: l, Machines: ms})
	}
	topo.Sensors = header[4:]
	return topo, nil
}

// replayCSV streams one CSV file in row batches. Each chunk is decoded
// here with wire.DecodeCSV (the server takes no CSV) and sent through
// hod.Client.Ingest as a binary frame; the client re-sends any batch
// the server sheds with 429.
func replayCSV(ctx context.Context, client *hod.Client, plantID, path string, batchRows int) (int, error) {
	if batchRows < 1 {
		batchRows = 1
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		return 0, fmt.Errorf("%s: empty file", path)
	}
	header := sc.Text()

	total := 0
	rows := make([]string, 0, batchRows)
	flush := func() error {
		if len(rows) == 0 {
			return nil
		}
		recs, err := wire.DecodeCSV(strings.NewReader(header + "\n" + strings.Join(rows, "\n") + "\n"))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		ack, err := client.Ingest(ctx, plantID, recs)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if ack.Rejected > 0 {
			// Rejected records never reach the store; silently
			// "succeeding" would surface only as an empty report later.
			return fmt.Errorf("%s: server rejected %d records (first: %s)",
				path, ack.Rejected, ack.FirstRejection)
		}
		total += len(rows)
		rows = rows[:0]
		return nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		rows = append(rows, line)
		if len(rows) >= batchRows {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return total, err
	}
	return total, flush()
}

// uploadJobs converts a plantsim jobs.csv (machine, job, faulty, 5
// setup columns, 6 CAQ columns) into wire job metadata and uploads it.
func uploadJobs(ctx context.Context, client *hod.Client, plantID, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReader(f))
	header, err := r.Read()
	if err != nil {
		return 0, fmt.Errorf("%s: missing header: %w", path, err)
	}
	if len(header) < 3 || header[0] != "machine" || header[1] != "job" {
		return 0, fmt.Errorf("%s: not a plantsim jobs.csv", path)
	}
	var metas []wire.JobMeta
	line := 1
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		line++
		if len(rec) < 3+wire.DefaultSetupDims {
			return 0, fmt.Errorf("%s:%d: %d fields", path, line, len(rec))
		}
		m := wire.JobMeta{Machine: rec[0], Job: rec[1], Faulty: rec[2] == "true"}
		for i, s := range rec[3:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return 0, fmt.Errorf("%s:%d: bad value %q", path, line, s)
			}
			if i < wire.DefaultSetupDims {
				m.Setup = append(m.Setup, v)
			} else {
				m.CAQ = append(m.CAQ, v)
			}
		}
		metas = append(metas, m)
	}
	ack, err := client.Jobs(ctx, plantID, metas)
	if err != nil {
		return 0, err
	}
	if ack.Rejected > 0 {
		return 0, fmt.Errorf("%s: server rejected %d job vectors (first: %s)",
			path, ack.Rejected, ack.FirstRejection)
	}
	return len(metas), nil
}
