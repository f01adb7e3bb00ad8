// Package server is the fleet serving layer: a stdlib-only HTTP
// service that ingests live sensor samples for a registered fleet of
// plants, admits every batch as wire frames through one resolver
// (resolveFrame: NDJSON bodies are read line by line into a frame,
// binary bodies, WAL replay and the standby tailer arrive as frames),
// shards them onto per-machine pipelines with bounded queues
// (backpressure surfaces as 429 + Retry-After), maintains an
// incremental roll-up of aggregates up the
// sensor→phase→machine→line→plant levels, and serves hierarchical
// outlier reports computed by Algorithm 1 over one plant view per data
// revision — assembled from the machine stores by the first report
// after the revision moves, with its core.PlantCache, hierarchies and
// per-(machine, level) reports memoized until the next one.
//
// Endpoints (all JSON unless noted):
//
//	POST /v1/plants                          register a plant topology
//	GET  /v1/plants                          list registered plants
//	POST /v1/plants/{id}/ingest              samples: NDJSON or binary columnar frames
//	POST /v1/plants/{id}/jobs                job metadata (setup + CAQ vectors)
//	GET  /v1/plants/{id}/report              fleet outlier report (?level=&top=&machine=)
//	GET  /v1/plants/{id}/rollup              incremental aggregates (?level=sensor|phase|machine|line|plant)
//	GET  /v1/plants/{id}/cube                OLAP cube queries (?op=slice|rollup|members|drilldown)
//	GET  /v1/plants/{id}/alerts              recent streaming alerts (?limit=)
//	GET  /v1/plants/{id}/stats               ingest counters, queue depths, durability gauges
//	GET  /v1/plants/{id}/backup              consistent snapshot of the plant (binary)
//	POST /v1/plants/{id}/restore             recreate a plant from a backup
//	GET  /v1/events                          live push stream, SSE (?channel=alerts:p1&channel=cube:*)
//	GET  /healthz                            liveness
//
// With Options.DataDir set, every accepted ingest batch is appended to
// a CRC-checksummed per-shard WAL before it is acknowledged and the
// serving state is periodically snapshotted; Open() recovers the fleet
// after a crash or restart by replaying snapshot + WAL tail through
// the same ingest path (safe because the store is idempotent).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/wal"
	"repro/pkg/hod/wire"
)

// Options tunes the serving layer.
type Options struct {
	// Workers bounds the parallel fan-out of report computation across
	// machines (0 = GOMAXPROCS), wired to internal/parallel.
	Workers int
	// Shards is the number of ingest pipelines per plant (default 4).
	// Machines hash onto shards, so per-machine sample order is kept.
	Shards int
	// QueueDepth bounds each shard's admission queue in batches
	// (default 64). A full queue sheds load with 429 + Retry-After.
	QueueDepth int
	// MaxBodyBytes caps one ingest request body (default 64 MiB).
	MaxBodyBytes int64
	// AlertThreshold is the robust-z score at which the streaming
	// EWMA tracker raises a live alert (default 8).
	AlertThreshold float64
	// MaxOutliers bounds each machine's report (default 512).
	MaxOutliers int
	// DataDir enables durability: per-plant WAL + snapshots live under
	// it, and Open() recovers the registered fleet from it. Empty means
	// in-memory only (the pre-durability behaviour).
	DataDir string
	// Fsync is the WAL fsync policy: "always" (default, group-committed
	// before the ingest ack), "interval" (background flush), or "none".
	Fsync string
	// SnapshotInterval is the cadence of the background compacting
	// snapshot (default 30s).
	SnapshotInterval time.Duration
	// SegmentBytes rotates WAL segments at this size (default 8 MiB).
	SegmentBytes int64
	// Tenants enables authenticated multi-tenant mode: API key →
	// tenant grant (name, plant scope, rate limit). Empty keeps the
	// back-compat default of an open, unauthenticated server.
	Tenants map[string]gateway.Tenant
	// RequestLog, when non-nil, logs one line per request through the
	// middleware chain.
	RequestLog func(format string, args ...any)
	// SubscriberQueue bounds the distinct pending (kind, plant) event
	// slots per push subscriber before coalescing drops the stalest
	// slot (default gateway.DefaultQueueCap).
	SubscriberQueue int
	// ClusterNodeID enables cluster mode: the node gates plant-scoped
	// requests on rendezvous ownership under the membership table the
	// router pushes, and keeps warm standbys by tailing owner WALs.
	// Cluster mode wants a DataDir (standbys seed over the WAL
	// contract) and an unauthenticated internal network (no Tenants).
	ClusterNodeID string
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.AlertThreshold <= 0 {
		o.AlertThreshold = 8
	}
	if o.MaxOutliers <= 0 {
		o.MaxOutliers = 512
	}
	if o.SnapshotInterval <= 0 {
		o.SnapshotInterval = 30 * time.Second
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// Server is the fleet serving layer. Create with New, expose via
// Handler, stop with Close (drains all in-flight batches).
type Server struct {
	opts   Options
	mux    *http.ServeMux
	hub    *gateway.Hub
	auth   *gateway.Auth
	mu     sync.RWMutex
	plants map[string]*plantState
	closed atomic.Bool

	// cluster is the node's cluster-mode state (membership view + WAL
	// tailers); clusterHC carries its node-to-node HTTP traffic.
	cluster   clusterState
	clusterHC *http.Client
}

// New builds a server with the given options. Every route of the typed
// route table is wrapped in the gateway middleware chain — bearer
// auth, tenant scoping, per-tenant rate limits, request logging — all
// of which pass through untouched when no tenants are configured.
func New(opts Options) *Server {
	s := &Server{
		opts:      opts.withDefaults(),
		mux:       http.NewServeMux(),
		hub:       gateway.NewHub(),
		plants:    make(map[string]*plantState),
		clusterHC: &http.Client{Timeout: 30 * time.Second},
	}
	s.cluster.tailers = make(map[string]*walTailer)
	s.auth = gateway.NewAuth(s.opts.Tenants)
	chain := gateway.Chain(
		gateway.BearerAuth(s.auth),
		gateway.TenantScope(),
		gateway.RateLimit(),
		gateway.RequestLog(s.opts.RequestLog),
	)
	for _, rt := range s.routes() {
		h := http.Handler(rt.handler)
		if !rt.open {
			h = chain(h)
		}
		s.mux.Handle(rt.method+" "+rt.pattern, h)
	}
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeListener serves the v1 API on ln in the background and returns
// a stop function that closes the HTTP listener (the serving state
// itself is stopped with Close). It lets in-process consumers — tests,
// examples — host a fleet endpoint without touching net/http
// themselves.
func (s *Server) ServeListener(ln net.Listener) (stop func()) {
	hs := s.HTTPServer("")
	go hs.Serve(ln)
	return func() { hs.Close() }
}

// HTTPServer builds the http.Server that serves s on addr: the serving
// layer's timeouts (gateway.NewHTTPServer), and push streams that end
// as soon as Shutdown begins. Shutdown cancels no request context, so
// an open /v1/events stream would otherwise hold it for its whole
// budget; in-flight ingest still drains.
func (s *Server) HTTPServer(addr string) *http.Server {
	hs := gateway.NewHTTPServer(addr, s.mux)
	hs.RegisterOnShutdown(s.hub.Close)
	return hs
}

// Close stops admission and drains every plant's shard queues; safe to
// call once the HTTP listener has shut down (or is about to — new
// ingests get 503). Push subscribers are closed first, so a server
// stopped without Shutdown still ends its event streams.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.stopAllTailers()
	s.hub.Close()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, ps := range s.plants {
		//hod:allow(lockorder) shutdown path: draining every plant under the fleet read lock is Close's contract, and closed is already set so no admit path contends
		ps.close()
	}
}

func (s *Server) plant(id string) (*plantState, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ps, ok := s.plants[id]
	return ps, ok
}

func (s *Server) withPlant(fn func(http.ResponseWriter, *http.Request, *plantState)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Ownership gating precedes the plant lookup: in a cluster, "not
		// registered here" usually means "lives on another node", and the
		// retriable 503 must win over a terminal 404.
		if !s.clusterGate(w, r, r.PathValue("id")) {
			return
		}
		ps, ok := s.plant(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, wire.CodeUnknownPlant, fmt.Sprintf("unknown plant %q", r.PathValue("id")))
			return
		}
		fn(w, r, ps)
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, wire.CodeShuttingDown, "server is shutting down")
		return
	}
	var topo Topology
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&topo); err != nil {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, "bad topology: "+err.Error())
		return
	}
	topo = topoWithDefaults(topo)
	if err := topo.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	// The register route has no {id} path segment for the scope
	// middleware to vet — the plant id rides in the body, so the
	// tenant check happens here.
	if g, ok := gateway.GrantFrom(r.Context()); ok && !g.Allows(topo.ID) {
		writeErr(w, http.StatusForbidden, wire.CodeForbidden,
			fmt.Sprintf("tenant %s is not scoped to plant %q", g.Tenant.Name, topo.ID))
		return
	}
	// Like the tenant check, ownership gating waits for the body: the
	// plant id a cluster node must own rides inside the topology.
	if !s.clusterGate(w, r, topo.ID) {
		return
	}
	s.mu.Lock()
	// Re-check under the lock: Close() iterates s.plants under it, so
	// a registration racing shutdown must not start workers Close will
	// never drain.
	if s.closed.Load() {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, wire.CodeShuttingDown, "server is shutting down")
		return
	}
	if _, exists := s.plants[topo.ID]; exists {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, wire.CodeAlreadyRegistered, fmt.Sprintf("plant %q already registered", topo.ID))
		return
	}
	ps := newPlantState(topo)
	ps.makeShards(s.opts.Shards, s.opts.QueueDepth)
	ps.alertThreshold = s.opts.AlertThreshold
	ps.hub = s.hub
	if s.opts.DataDir != "" {
		//hod:allow(lockorder) registration atomicity: the duplicate-ID check and plant-dir creation must be one critical section or two concurrent registers of the same ID could both succeed
		if _, err := s.persistNewPlant(ps, topo); err != nil {
			s.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, wire.CodeInternal, "persisting plant: "+err.Error())
			return
		}
	}
	ps.spawn()
	s.plants[topo.ID] = ps
	s.mu.Unlock()
	machines := 0
	for _, l := range topo.Lines {
		machines += len(l.Machines)
	}
	writeJSON(w, http.StatusCreated, wire.RegisterAck{
		ID: topo.ID, Lines: len(topo.Lines), Machines: machines,
		Shards: s.opts.Shards, QueueDepth: s.opts.QueueDepth,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	g, scoped := gateway.GrantFrom(r.Context())
	s.mu.RLock()
	ids := make([]string, 0, len(s.plants))
	for id := range s.plants {
		if scoped && !g.Allows(id) {
			continue // a tenant's list shows only its own plants
		}
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	writeJSON(w, http.StatusOK, wire.PlantList{Plants: ids})
}

// ingestScratch is the per-request working set of handleIngest: the
// frame a binary body decodes into, the builder an NDJSON body is read
// into (with its line buffer), and the resolver's dictionary
// translations. Pooled, so a steady ingest load reuses their backing
// arrays.
type ingestScratch struct {
	frame   wire.Frame
	builder *wire.FrameBuilder
	resolve resolveScratch
}

var ingestScratchPool = sync.Pool{New: func() any {
	return &ingestScratch{builder: wire.NewFrameBuilder()}
}}

// resolvedBody is one ingest body after admission: the refs of its
// admitted records, how many records it carried, and the rejections.
type resolvedBody struct {
	refs     []recordRef
	records  int
	rejected int
	firstErr string
}

// errRefusedMediaType answers an ingest body sent as CSV or JSON: the
// server reads neither, and would misread either as NDJSON.
var errRefusedMediaType = errors.New("ingest takes NDJSON (application/x-ndjson, the default) or binary frames (" +
	wire.ContentTypeBinary + "); `hodctl replay` converts plantsim CSV")

// decodeBody decodes one ingest body and resolves it against the
// plant's intern tables. The server has two doors, and every body
// resolves as wire frames: a binary body (application/x-hod-batch)
// frame by frame as it is read, any other body as NDJSON, read line by
// line into one frame. A CSV or JSON media type is refused rather than
// misread as NDJSON. A body that does not decode is refused whole, with
// the wire code to answer it with: bad_frame for a binary body,
// bad_request for any other.
func (ps *plantState) decodeBody(body io.Reader, contentType string, sc *ingestScratch) (resolvedBody, string, error) {
	mt, _, _ := mime.ParseMediaType(contentType) // "" (NDJSON) when absent or unparsable
	switch mt {
	case "text/csv", "application/csv", "application/json":
		return resolvedBody{}, wire.CodeBadRequest, errRefusedMediaType
	case wire.ContentTypeBinary:
		return ps.decodeFrames(body, sc)
	}
	sc.builder.Reset()
	if err := sc.builder.AddNDJSON(body); err != nil {
		return resolvedBody{}, wire.CodeBadRequest, err
	}
	rb := resolvedBody{records: sc.builder.Len()}
	rb.refs, rb.rejected, rb.firstErr = ps.resolveFrame(nil, sc.builder.Frame(), &sc.resolve)
	return rb, "", nil
}

// decodeFrames reads a binary body frame by frame, resolving each
// frame as it arrives.
func (ps *plantState) decodeFrames(body io.Reader, sc *ingestScratch) (resolvedBody, string, error) {
	var rb resolvedBody
	for {
		err := wire.ReadFrame(body, &sc.frame)
		if err == io.EOF {
			return rb, "", nil
		}
		if err != nil {
			// A malformed frame is a protocol violation, not a bad
			// record: reject the request before admitting anything,
			// like a bad NDJSON line rejects its whole body.
			return rb, wire.CodeBadFrame, err
		}
		if rb.records += sc.frame.Len(); rb.records > wire.MaxBatchRecords {
			return rb, wire.CodeBadFrame, fmt.Errorf("batch exceeds the %d-record cap", wire.MaxBatchRecords)
		}
		var rejected int
		var firstErr string
		rb.refs, rejected, firstErr = ps.resolveFrame(rb.refs, &sc.frame, &sc.resolve)
		rb.rejected += rejected
		if rb.firstErr == "" {
			rb.firstErr = firstErr
		}
	}
}

// handleIngest admits one sample batch: decode and resolve
// (decodeBody), shard, and enqueue. A full shard queue rejects the
// whole batch with 429 — the store is idempotent (set-at-index), so the
// client simply retries the batch after Retry-After seconds.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, ps *plantState) {
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, wire.CodeShuttingDown, "server is shutting down")
		return
	}
	sc := ingestScratchPool.Get().(*ingestScratch)
	defer ingestScratchPool.Put(sc)
	rb, code, err := ps.decodeBody(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), r.Header.Get("Content-Type"), sc)
	if err != nil {
		writeErr(w, http.StatusBadRequest, code, err.Error())
		return
	}
	if rb.records == 0 {
		writeJSON(w, http.StatusOK, wire.IngestAck{})
		return
	}
	ps.rejected.Add(uint64(rb.rejected))

	// Partition onto shards preserving order within each machine.
	// Admission is all-or-nothing per shard; a single overloaded shard
	// sheds the batch. Chunks already admitted stay admitted — the
	// idempotent store makes the client's full-batch retry safe. With
	// durability on, each chunk is WAL-appended (group-committed per
	// shard) before it is enqueued, so a 202 means the data survives a
	// crash.
	for idx, chunk := range ps.chunkRefs(rb.refs) {
		if len(chunk) == 0 {
			continue
		}
		admitted, err := ps.admit(idx, chunk)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, wire.CodeInternal, "wal append: "+err.Error())
			return
		}
		if !admitted {
			ps.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, wire.CodeBackpressure, "ingest queue full, retry the batch")
			return
		}
	}
	writeJSON(w, http.StatusAccepted, wire.IngestAck{
		Records: len(rb.refs), Rejected: rb.rejected, FirstRejection: rb.firstErr,
	})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request, ps *plantState) {
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, wire.CodeShuttingDown, "server is shutting down")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var metas []JobMeta
	if err := json.NewDecoder(body).Decode(&metas); err != nil {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, "bad job metadata: "+err.Error())
		return
	}
	// Vector validation rejects the whole batch with a machine-readable
	// 400: a too-long setup/CAQ vector would otherwise be silently
	// truncated by the padVector materialisation, and a non-finite one
	// would poison the level-2 detectors and the report encoder.
	for _, m := range metas {
		if len(m.Setup) > ps.topo.SetupDims || len(m.CAQ) > ps.topo.CAQDims {
			writeErr(w, http.StatusBadRequest, wire.CodeVectorDims, fmt.Sprintf(
				"job %s: setup/caq vector longer than the registered dims (%d/%d); refusing to truncate",
				m.Job, ps.topo.SetupDims, ps.topo.CAQDims))
			return
		}
		if !finite(m.Setup...) || !finite(m.CAQ...) {
			writeErr(w, http.StatusBadRequest, wire.CodeBadRequest,
				fmt.Sprintf("job %s: non-finite setup/caq value", m.Job))
			return
		}
	}
	rejected := 0
	var firstErr string
	valid := metas[:0]
	for _, m := range metas {
		err := checkJobName(m.Job)
		if _, known := ps.in.machines.ID(m.Machine); !known {
			err = fmt.Errorf("unregistered machine %q", m.Machine)
		}
		if err != nil {
			rejected++
			if firstErr == "" {
				firstErr = err.Error()
			}
			continue
		}
		valid = append(valid, m)
	}
	ps.applyJobMetas(valid)
	if err := ps.appendJobs(valid); err != nil {
		writeErr(w, http.StatusInternalServerError, wire.CodeInternal, "wal append: "+err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, wire.JobsAck{
		Jobs: len(valid), Rejected: rejected, FirstRejection: firstErr,
	})
}

func (s *Server) handleRollup(w http.ResponseWriter, r *http.Request, ps *plantState) {
	// rollup returns the level it resolved the request to, so the
	// echoed Level is by construction the one that was computed —
	// resolving the default twice let the two drift.
	level, nodes, err := ps.rollup(r.URL.Query().Get("level"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, wire.RollupResponse{Plant: ps.topo.ID, Level: level, Nodes: nodes})
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request, ps *plantState) {
	limit, err := queryInt(r, "limit", 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	alerts := ps.recentAlerts(limit)
	writeJSON(w, http.StatusOK, wire.AlertsResponse{Plant: ps.topo.ID, Alerts: alerts})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, ps *plantState) {
	writeJSON(w, http.StatusOK, ps.statsNow())
}

// handleBackup streams a consistent snapshot of the plant — the same
// framed format the durability layer persists, so a backup taken from
// a diskless server can still seed a restore elsewhere.
func (s *Server) handleBackup(w http.ResponseWriter, r *http.Request, ps *plantState) {
	var rev uint64
	if ps.dur != nil {
		rev = ps.dur.snapRev.Load()
	}
	// A backup re-seeds fresh WALs on restore; per-shard positions of
	// *this* server's logs would be poison there. The one consumer that
	// wants them — a standby seeding itself before tailing this node's
	// WAL — asks with ?positions=1 on the internal cluster path.
	payload, _ := ps.encodeState(r.URL.Query().Get("positions") == "1" && r.Header.Get(cluster.InternalHeader) == "1")
	body := wal.EncodeSnapshot(rev, payload)
	// The length lets a plant move stream this body straight into the
	// new owner's /restore.
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleRestore recreates a plant from a backup body. The plant id
// must not be registered yet; the topology rides inside the backup.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, wire.CodeShuttingDown, "server is shutting down")
		return
	}
	if !s.clusterGate(w, r, r.PathValue("id")) {
		return
	}
	rev, ps, _, err := readBackup(w, r.Body, s.restoreCap())
	if err != nil {
		// Oversized and non-finite job vectors keep the code the ingest
		// path rejects them with; everything else a backup can get wrong
		// is a plain bad request.
		code := wire.CodeBadRequest
		if errors.Is(err, errJobVector) {
			code = wire.CodeVectorDims
		}
		writeErr(w, http.StatusBadRequest, code, err.Error())
		return
	}
	id := r.PathValue("id")
	if ps.topo.ID != id {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest,
			fmt.Sprintf("backup holds plant %q, not %q", ps.topo.ID, id))
		return
	}
	switch err := s.installState(ps, rev); {
	case errors.Is(err, errShuttingDown):
		writeErr(w, http.StatusServiceUnavailable, wire.CodeShuttingDown, err.Error())
	case errors.Is(err, errPlantExists):
		writeErr(w, http.StatusConflict, wire.CodeAlreadyRegistered, err.Error()+"; restore needs a fresh id")
	case err != nil:
		writeErr(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
	default:
		writeJSON(w, http.StatusCreated, wire.RestoreAck{
			ID: id, Machines: len(ps.mstores), Records: ps.received.Load(), SnapshotRev: rev,
		})
	}
}

// writeJSON answers with v as one JSON line. It encodes before it
// commits the status: a value encoding/json refuses (a roll-up whose
// second moment overflowed to +Inf) is a 500 envelope, not a 200 with
// an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	writeEncoded(w, code, "application/json", append(body, '\n'), err)
}

// writeEncoded writes a body its handler encoded (a JSON body with the
// newline every one ends with); err is the encoder's, answered with
// the 500 envelope instead. The length is known up front, so the body
// goes out with a Content-Length rather than chunked, and a client can
// size its read buffer once.
func writeEncoded(w http.ResponseWriter, code int, contentType string, body []byte, err error) {
	if err != nil {
		writeErr(w, http.StatusInternalServerError, wire.CodeInternal, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// writeErr emits the structured error envelope of the v1 protocol:
// {"error":{"code":"...","message":"..."}}. The code is one of the
// wire.Code* constants, which the typed client maps onto errors.Is-able
// sentinel errors. The encoding itself lives in the gateway package —
// the one definition handlers and middleware share.
func writeErr(w http.ResponseWriter, status int, code, msg string) {
	gateway.WriteError(w, status, code, msg)
}

// queryInt parses a non-negative integer query parameter. A missing or
// empty value yields the default; a malformed or negative value is an
// error — callers turn it into a 400 instead of silently serving the
// default for a query the client plainly did not mean.
func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s value %q (want a non-negative integer)", key, v)
	}
	return n, nil
}
