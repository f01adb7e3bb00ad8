package main

import (
	"fmt"
	"strings"
)

// nanosecondTable lines the traced run's layer metrics up along the two
// paths a request takes — socket → decode → WAL → fold → cell for a
// record, query → merge → evaluate → encode for a cube question — so
// the hops can be read against the end-to-end number they add up to.
// Rows marked "replay" are the layer alone; "in situ" rows are spans
// around the live request; "residual" rows are differences of those.
func nanosecondTable(res *result, size sizing) string {
	v := func(name string) float64 { return res.values[name] }
	batch, order := float64(size.bulkBatch), "trace"
	if res.workload == wLive {
		batch, order = float64(size.liveBatch), "live"
	}
	var b strings.Builder
	row := func(indent int, what, how string, ns float64) {
		fmt.Fprintf(&b, "  %-44s %12.1f  %s\n", strings.Repeat("  ", indent)+what, ns, how)
	}

	fmt.Fprintf(&b, "  where the nanoseconds go — %s, per record (ns)\n", res.workload)
	row(0, "wall clock per record", "1e9 / ingest_rec_per_s", 1e9/v("ingest_rec_per_s"))
	row(0, "CPU per record, whole process", "cpu_s_per_mrec", v("cpu_s_per_mrec")*1e3)
	row(1, "client: SDK + net/http + loopback", "in situ, hod.ingest_client_us", v("hod.ingest_client_us")*1e3/batch)
	handler := v("server.ingest_handler_ns_per_rec")
	row(1, "server handler (request in → 202 out)", "in situ", handler)
	decode := v("wire.frame_decode_ns_per_rec") + v("wire.ndjson_decode_ns_per_rec")
	row(2, "decode", "replay, wire.*_decode_ns_per_rec", decode)
	wal := v("wal.append_always_us_per_batch_c1") * 1e3 / batch
	row(2, "WAL append + fsync", "replay, wal.append_always_us_per_batch_c1", wal)
	row(2, "resolve, shard, enqueue", "residual", handler-decode-wal)
	row(1, "fold: cube cell update", "replay, olap.intcube_add_ns_per_rec_"+order, v("olap.intcube_add_ns_per_rec_"+order))
	row(1, "shard queue hand-off", "replay, stream.queue_push_pop_ns / batch", v("stream.queue_push_pop_ns")/batch)

	fmt.Fprintf(&b, "  where the nanoseconds go — %s, per query (us)\n", res.workload)
	if res.workload == wLive {
		row(0, "/cube request under ingest, median", "server.cube_live_p50_ms", v("server.cube_live_p50_ms")*1e3)
		row(1, "server handler", "in situ, server.cube_live_handler_us", v("server.cube_live_handler_us"))
		row(2, "merge shard cubes (every question)", "replay, cells x olap.merge_ns_per_cell", v("server.cube_cells")*v("olap.merge_ns_per_cell")/1e3)
	}
	row(0, "/cube request, quiescent, median", "cube_p50_ms", v("cube_p50_ms")*1e3)
	row(1, "client: SDK + net/http + JSON decode", "in situ, hod.query_client_us", v("hod.query_client_us"))
	cube := v("server.cube_handler_us")
	row(1, "server handler", "in situ, server.cube_handler_us", cube)
	row(2, "merge shard cubes (on a new revision only)", "replay, cells x olap.merge_ns_per_cell", v("server.cube_cells")*v("olap.merge_ns_per_cell")/1e3)
	row(2, "evaluate a machine slice", "replay, olap.answer_slice_us", v("olap.answer_slice_us"))
	row(2, "evaluate rollup keep=line,sensor", "replay, olap.answer_rollup_us", v("olap.answer_rollup_us"))
	row(0, "/report request, cold, median", "report_cold_p50_ms", v("report_cold_p50_ms")*1e3)
	row(1, "server handler", "in situ, server.report_handler_us", v("server.report_handler_us"))
	row(2, "Algorithm 1, one machine, fresh", "replay, core.alg1_ms_per_machine", v("core.alg1_ms_per_machine")*1e3)
	row(2, "Algorithm 1, one machine, rebound", "replay, core.alg1_rebound_ms_per_machine", v("core.alg1_rebound_ms_per_machine")*1e3)
	return b.String()
}
