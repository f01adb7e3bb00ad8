package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Workload names. A metric's `on` list says which of them measure it.
const (
	wBulkBin = "bulk-binary-durable"
	wBulkND  = "bulk-ndjson-mem"
	wLive    = "live-mixed"
	wStatic  = "query-static"
)

type workloadDef struct {
	Name string
	Why  string
	run  func(*run) error
}

// workloads is the registry BENCHMARK.json is checked against.
var workloads = []workloadDef{
	{wBulkBin, "binary frames into a WAL with fsync=always, then kill/replay and snapshot restart: frame decode, internal/wal and the fold do the work, JSON none", runBulkBinaryDurable},
	{wBulkND, "same plants as NDJSON with no data dir: the text decoder and resolveRecords dominate and the WAL is bypassed, so a WAL change must not move it", runBulkNDJSONMem},
	{wLive, "open loop at 60k rec/s in time-major order with an analyst and 16 subscribers: reads under writes, the merged-cube cache never hits, reports rebuild", runLiveMixed},
	{wStatic, "binary preload then a quiescent closed-loop query mix: every cache hits, so evaluate and encode dominate and merge/rebuild do nothing", runQueryStatic},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64  // end-to-end only: share of the parent's median it may worsen by
	on     []string // workloads that measure it; the rest report 0
}

var (
	allW     = []string{wBulkBin, wBulkND, wLive, wStatic}
	binaryW  = []string{wBulkBin, wLive, wStatic}
	durableW = []string{wBulkBin, wLive}
)

// endToEnd are the gated metrics. The driver wants every one of them
// from every workload and never zero, so the list holds only what all
// four measure; the issue's workload-specific results (recover_s,
// slo_ok_ratio, query_per_s, ...) lead the per-layer list instead.
//
// Bounds: the issue starts them at 0.10 and widens only on evidence.
// The evidence is README.md's spread table: on the 2-core shared box the
// harness was sized on, the same seed gives timings 10-25 % apart from
// one quarter of an hour to the next, so every timing takes the cap of
// 0.25. live_bytes_per_rec is a count and keeps 0.10.
//
// cube_p50_ms is the quiescent query mix on every workload. The
// analyst's questions under ingest on live-mixed cannot be held within
// 0.25 (two ten-run sets of the same code spread 0.061 and 0.264), so by
// the issue's rule they are per-layer: server.cube_live_p50_ms.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, allW},
	{"ingest_rec_per_s", "rec/s", "higher", 0.25, allW},
	{"cpu_s_per_mrec", "s", "lower", 0.25, allW},
	{"live_bytes_per_rec", "B", "lower", 0.10, allW},
	{"ack_p50_ms", "ms", "lower", 0.25, allW},
	{"cube_p50_ms", "ms", "lower", 0.25, allW},
	{"report_cold_p50_ms", "ms", "lower", 0.25, allW},
}

// perLayer are the ungated metrics of the traced run: the issue's
// workload-specific results first (they cannot be end-to-end because
// not every workload has them), then one group per package.
var perLayer = []metricDef{
	{"disk_bytes_per_rec", "B", "lower", 0, []string{wBulkBin}},
	{"recover_s", "s", "lower", 0, []string{wBulkBin}},
	{"restart_s", "s", "lower", 0, []string{wBulkBin}},
	{"push_lag_p50_ms", "ms", "lower", 0, []string{wLive}},
	{"slo_ok_ratio", "ratio", "higher", 0, []string{wLive}},
	{"report_p50_ms", "ms", "lower", 0, []string{wStatic}},
	{"query_per_s", "1/s", "higher", 0, []string{wStatic}},
	{"failed_ratio", "ratio", "lower", 0, allW},

	{"wire.frame_decode_ns_per_rec", "ns", "lower", 0, binaryW},
	{"wire.frame_decode_allocs_per_batch", "count", "lower", 0, binaryW},
	{"wire.frame_bytes_per_rec", "B", "lower", 0, binaryW},
	{"wire.frame_encode_ns_per_rec", "ns", "lower", 0, binaryW},
	{"wire.ndjson_decode_ns_per_rec", "ns", "lower", 0, []string{wBulkND}},
	{"wire.ndjson_decode_allocs_per_rec", "count", "lower", 0, []string{wBulkND}},
	{"wire.ndjson_bytes_per_rec", "B", "lower", 0, []string{wBulkND}},
	{"wire.ndjson_encode_ns_per_rec", "ns", "lower", 0, []string{wBulkND}},
	{"intern.lookup_ns", "ns", "lower", 0, allW},

	{"wal.append_always_us_per_batch_c1", "us", "lower", 0, durableW},
	{"wal.append_always_us_per_batch_c2", "us", "lower", 0, durableW},
	{"wal.append_none_ns_per_rec", "ns", "lower", 0, durableW},
	{"wal.replay_ns_per_rec", "ns", "lower", 0, durableW},
	{"wal.bytes_per_rec", "B", "lower", 0, durableW},
	{"wal.snapshot_save_ms", "ms", "lower", 0, []string{wBulkBin}},
	{"wal.snapshot_load_ms", "ms", "lower", 0, []string{wBulkBin}},
	{"server.open_replay_ns_per_rec", "ns", "lower", 0, []string{wBulkBin}},
	{"server.wal_segments", "count", "lower", 0, durableW},
	{"server.close_snapshot_s", "s", "lower", 0, []string{wBulkBin}},
	{"server.open_snapshot_s", "s", "lower", 0, []string{wBulkBin}},
	{"server.backup_ms", "ms", "lower", 0, []string{wBulkBin}},
	{"server.backup_bytes_per_rec", "B", "lower", 0, []string{wBulkBin}},
	{"server.restore_ms", "ms", "lower", 0, []string{wBulkBin}},

	{"olap.intcube_add_ns_per_rec_trace", "ns", "lower", 0, allW},
	{"olap.intcube_add_ns_per_rec_live", "ns", "lower", 0, allW},
	{"olap.merge_ns_per_cell", "ns", "lower", 0, allW},
	{"olap.answer_slice_us", "us", "lower", 0, allW},
	{"olap.answer_rollup_us", "us", "lower", 0, allW},
	{"olap.answer_drilldown_us", "us", "lower", 0, allW},
	{"olap.answer_cells_out", "count", "lower", 0, allW},
	{"core.alg1_ms_per_machine", "ms", "lower", 0, allW},
	{"core.alg1_rebound_ms_per_machine", "ms", "lower", 0, allW},

	{"gateway.publish_ns_s1", "ns", "lower", 0, []string{wLive}},
	{"gateway.publish_ns_s100", "ns", "lower", 0, []string{wLive}},
	{"gateway.publish_ns_s1000", "ns", "lower", 0, []string{wLive}},
	{"gateway.next_ns", "ns", "lower", 0, []string{wLive}},
	{"gateway.delivered_ratio", "ratio", "higher", 0, []string{wLive}},
	{"gateway.coalesced_events", "count", "lower", 0, []string{wLive}},
	{"stream.queue_push_pop_ns", "ns", "lower", 0, allW},

	{"server.ingest_handler_us", "us", "lower", 0, allW},
	{"server.ingest_handler_ns_per_rec", "ns", "lower", 0, allW},
	{"server.cube_handler_us", "us", "lower", 0, allW},
	{"server.report_handler_us", "us", "lower", 0, allW},
	{"server.rollup_handler_us", "us", "lower", 0, allW},
	{"hod.ingest_client_us", "us", "lower", 0, allW},
	{"hod.query_client_us", "us", "lower", 0, allW},
	{"server.drain_lag_ms", "ms", "lower", 0, allW},
	{"server.queue_depth_max", "count", "lower", 0, allW},
	{"server.shed_batches", "count", "lower", 0, allW},
	{"hod.retried_batches", "count", "lower", 0, allW},
	{"server.rejected_records", "count", "lower", 0, allW},
	{"server.data_revisions", "count", "lower", 0, []string{wLive, wStatic}},
	{"server.cube_cells", "count", "lower", 0, allW},
	{"server.cube_cold_p50_ms", "ms", "lower", 0, []string{wBulkBin, wBulkND, wStatic}},
	{"server.ack_p99_ms", "ms", "lower", 0, []string{wLive}},
	{"server.push_lag_p99_ms", "ms", "lower", 0, []string{wLive}},
	{"server.cube_live_p50_ms", "ms", "lower", 0, []string{wLive}},
	{"server.cube_live_handler_us", "us", "lower", 0, []string{wLive}},
	{"server.cube_live_p95_ms", "ms", "lower", 0, []string{wLive}},
	{"server.report_live_p50_ms", "ms", "lower", 0, []string{wLive}},

	{"cluster.direct_us_per_batch", "us", "lower", 0, []string{wBulkBin}},
	{"cluster.route_us_per_batch", "us", "lower", 0, []string{wBulkBin}},
	{"cluster.placement_ns", "ns", "lower", 0, []string{wBulkBin}},
	{"plant.simulate_ns_per_rec", "ns", "lower", 0, allW},
	{"loadgen.late_p99_ms", "ms", "lower", 0, []string{wLive}},
	{"loadgen.trace_overhead_ratio", "ratio", "lower", 0, allW},
}

func (m metricDef) appliesTo(workload string) bool {
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// result collects what one pass over one workload measured.
type result struct {
	workload  string
	attempted atomic.Int64
	failed    atomic.Int64

	mu      sync.Mutex
	values  map[string]float64
	samples map[string]int // sample count behind a percentile
	faults  []string       // registry violations and the first failures, for the report
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric. Setting one twice, or one the registry does
// not list for this workload, is a bug in the harness and is reported
// as a failed run by check.
func (r *result) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := findMetric(name)
	switch {
	case !ok:
		r.faults = append(r.faults, "metric "+name+" is not in the registry")
	case !m.appliesTo(r.workload):
		r.faults = append(r.faults, "metric "+name+" is not registered for "+r.workload)
	}
	if _, dup := r.values[name]; dup {
		r.faults = append(r.faults, "metric "+name+" emitted twice")
	}
	r.values[name] = v
}

// setHist records a percentile of h in milliseconds with its sample
// count, lowered to the highest percentile the count supports.
func (r *result) setHist(name string, h *hist, q float64) {
	r.set(name, h.capped(q))
	r.mu.Lock()
	r.samples[name] = h.n
	r.mu.Unlock()
}

// ok counts one attempted operation and, if err is non-nil, one failed
// one — a transport error, a non-2xx answer or an oracle mismatch.
func (r *result) ok(err error) bool {
	r.attempted.Add(1)
	if err == nil {
		return true
	}
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.faults) < 8 {
		r.faults = append(r.faults, err.Error())
	}
	r.mu.Unlock()
	return false
}

// complete fills in the metrics of defs this workload does not measure
// with 0 and reports the ones it should have measured but did not.
func (r *result) complete(defs []metricDef) {
	for _, m := range defs {
		if _, have := r.values[m.Name]; have {
			continue
		}
		if m.appliesTo(r.workload) {
			r.faults = append(r.faults, "metric "+m.Name+" was not emitted")
		}
		r.values[m.Name] = 0
	}
}

func (r *result) failedRatio() float64 {
	if n := r.attempted.Load(); n > 0 {
		return float64(r.failed.Load()) / float64(n)
	}
	return 0
}

// table renders the metrics of defs that apply to the workload.
func (r *result) table(defs []metricDef) string {
	var out string
	for _, m := range defs {
		if !m.appliesTo(r.workload) {
			continue
		}
		line := fmt.Sprintf("  %-40s %14.4f %-6s", m.Name, r.values[m.Name], m.Unit)
		if n, ok := r.samples[m.Name]; ok {
			line += fmt.Sprintf(" (n=%d)", n)
		}
		out += line + "\n"
	}
	return out
}
