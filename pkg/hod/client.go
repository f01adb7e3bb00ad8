package hod

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/pkg/hod/wire"
)

// Client is the typed client of the v1 HTTP API served by hodserve.
// Every request and response body is a pkg/hod/wire type — the same
// structs the server compiles against. Ingest and job uploads retry
// automatically when the server sheds load with 429, sleeping the
// advertised Retry-After (the server's idempotent set-at-index store
// makes re-sending a whole batch safe). A Client is safe for
// concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	apiKey     string
	maxRetries int
	retryCap   time.Duration
	retried    atomic.Uint64
}

// ClientOption tunes a Client at construction time.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport, instrumentation).
func WithHTTPClient(hc *http.Client) ClientOption { return func(c *Client) { c.hc = hc } }

// WithAPIKey authenticates every request (and subscription) with the
// tenant API key, sent as "Authorization: Bearer {key}". Required when
// the server runs with tenants configured; a no-op against an open
// server.
func WithAPIKey(key string) ClientOption { return func(c *Client) { c.apiKey = key } }

// WithMaxRetries bounds how often one batch is re-sent after a 429
// before the client gives up with ErrBackpressure (default 120).
func WithMaxRetries(n int) ClientOption { return func(c *Client) { c.maxRetries = n } }

// WithRetryCap clamps the per-attempt backoff sleep, whatever
// Retry-After advertises (default 30s).
func WithRetryCap(d time.Duration) ClientOption { return func(c *Client) { c.retryCap = d } }

// NewClient builds a client for the server at baseURL (e.g.
// "http://localhost:8080").
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		hc:         &http.Client{Timeout: 60 * time.Second},
		maxRetries: 120,
		retryCap:   MaxRetryAfter,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Retried reports how many 429-shed batches this client has re-sent
// over its lifetime — the backpressure cost of an upload session.
func (c *Client) Retried() uint64 { return c.retried.Load() }

// APIError is a non-2xx response decoded from the server's structured
// error envelope. errors.Is matches it against the package sentinels
// (ErrUnknownPlant, ErrBackpressure, ...) via its machine-readable
// Code.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // wire error code, e.g. wire.CodeUnknownPlant
	Message string
}

// Error renders the status, code, and server message.
func (e *APIError) Error() string {
	return fmt.Sprintf("hod: server returned %d (%s): %s", e.Status, e.Code, e.Message)
}

// Is maps the machine-readable error code onto the package sentinels,
// so errors.Is(err, hod.ErrUnknownPlant) works on client errors.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrBadRequest:
		return e.Code == wire.CodeBadRequest
	case ErrUnknownPlant:
		return e.Code == wire.CodeUnknownPlant
	case ErrUnknownMachine:
		return e.Code == wire.CodeUnknownMachine
	case ErrAlreadyRegistered:
		return e.Code == wire.CodeAlreadyRegistered
	case ErrBackpressure:
		return e.Code == wire.CodeBackpressure
	case ErrShuttingDown:
		return e.Code == wire.CodeShuttingDown
	case ErrNoData:
		return e.Code == wire.CodeNoData
	case ErrVectorDims:
		return e.Code == wire.CodeVectorDims
	case ErrUnauthorized:
		return e.Code == wire.CodeUnauthorized
	case ErrForbidden:
		return e.Code == wire.CodeForbidden
	case ErrRateLimited:
		return e.Code == wire.CodeRateLimited
	case ErrFailover:
		return e.Code == wire.CodeNotOwner || e.Code == wire.CodeFailover
	case ErrBadFrame:
		return e.Code == wire.CodeBadFrame
	}
	return false
}

// failoverRetryable reports whether a 503 carries a cluster failover
// envelope (not_owner / failover): ownership is settling after a node
// death or a plant move, and the router asked the client to come back
// after Retry-After. Other 503s — a server shutting down — stay fatal.
func failoverRetryable(status int, body []byte) bool {
	if status != http.StatusServiceUnavailable {
		return false
	}
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return false
	}
	return env.Err.Code == wire.CodeNotOwner || env.Err.Code == wire.CodeFailover
}

func apiError(status int, body []byte) error {
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Err.Code != "" {
		return &APIError{Status: status, Code: env.Err.Code, Message: env.Err.Message}
	}
	return &APIError{Status: status, Code: wire.CodeInternal, Message: strings.TrimSpace(string(body))}
}

// MaxRetryAfter caps how long a single Retry-After header can make the
// client sleep, whatever the server advertises — and is the default
// per-attempt backoff cap (override with WithRetryCap).
const MaxRetryAfter = 30 * time.Second

// retryAfter reads the advertised backoff, defaulting to one second.
// RFC 9110 allows both forms — delta-seconds and an HTTP-date — so the
// date form is parsed too (it used to fall back to the 1s default
// silently). The result is clamped to limit, the client's WithRetryCap
// bound (MaxRetryAfter unless overridden), so a far-future date cannot
// park an uploader.
func retryAfter(resp *http.Response, now time.Time, limit time.Duration) time.Duration {
	d := time.Second // missing or unparseable header
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			// Compare in seconds before multiplying: a huge
			// delta-seconds value would overflow the Duration to a
			// negative and turn the backoff into a hot loop.
			if time.Duration(secs) >= limit/time.Second {
				return limit
			}
			d = time.Duration(secs) * time.Second
		} else if when, err := http.ParseTime(ra); err == nil {
			d = when.Sub(now)
			if d < 0 {
				d = 0
			}
		}
	}
	if d > limit {
		d = limit
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do issues one request, retrying 429s — and 503s carrying the
// cluster failover envelope — with the advertised backoff, and decodes
// a 2xx body into out (when non-nil). A cube answer is asked for and
// read as the binary body (wire.ContentTypeCube); every other body is
// JSON.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	cube, isCube := out.(*wire.CubeResponse)
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if isCube {
			req.Header.Set("Accept", wire.ContentTypeCube)
		}
		c.authorize(req.Header)
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		data, err := readBody(resp)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			switch {
			case out == nil:
			case isCube:
				*cube, err = wire.DecodeCubeBinary(data)
			default:
				err = json.Unmarshal(data, out)
			}
			if err != nil {
				return fmt.Errorf("hod: bad response body: %w", err)
			}
			return nil
		case resp.StatusCode == http.StatusTooManyRequests && attempt < c.maxRetries,
			failoverRetryable(resp.StatusCode, data) && attempt < c.maxRetries:
			c.retried.Add(1)
			if err := sleepCtx(ctx, retryAfter(resp, time.Now(), c.retryCap)); err != nil {
				return err
			}
		default:
			return apiError(resp.StatusCode, data)
		}
	}
}

// maxPresize caps the read buffer readBody allocates up front from a
// response's Content-Length; a longer body still reads in full, the
// buffer growing past the cap as it goes.
const maxPresize = 16 << 20

// readBody reads a whole response body. The server sends every JSON
// body with a Content-Length, so the buffer is sized once instead of
// grown by doubling; a body of unknown length falls back to
// io.ReadAll.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength < 0 {
		return io.ReadAll(resp.Body)
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(resp.ContentLength, maxPresize)+bytes.MinRead))
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// authorize attaches the configured API key, if any.
func (c *Client) authorize(h http.Header) {
	if c.apiKey != "" {
		h.Set("Authorization", "Bearer "+c.apiKey)
	}
}

// Health checks the server's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", "", nil, nil)
}

// Register registers a plant topology.
func (c *Client) Register(ctx context.Context, topo wire.Topology) (wire.RegisterAck, error) {
	buf, err := json.Marshal(topo)
	if err != nil {
		return wire.RegisterAck{}, err
	}
	var ack wire.RegisterAck
	err = c.do(ctx, http.MethodPost, "/v1/plants", "application/json", buf, &ack)
	return ack, err
}

// Plants lists the registered plant ids.
func (c *Client) Plants(ctx context.Context) ([]string, error) {
	var list wire.PlantList
	if err := c.do(ctx, http.MethodGet, "/v1/plants", "", nil, &list); err != nil {
		return nil, err
	}
	return list.Plants, nil
}

// Ingest streams one batch of records as a binary columnar frame
// (wire.ContentTypeBinary), retrying on 429 backpressure until
// admitted (or the retry budget runs out).
func (c *Client) Ingest(ctx context.Context, plantID string, recs []wire.Record) (wire.IngestAck, error) {
	body, err := wire.EncodeBinary(recs)
	if err != nil {
		return wire.IngestAck{}, err
	}
	return c.IngestBody(ctx, plantID, wire.ContentTypeBinary, body)
}

// IngestBody posts a raw pre-encoded ingest body — NDJSON
// (application/x-ndjson) or binary columnar frames
// (wire.ContentTypeBinary), the two formats the server takes — with
// the same 429 retry behaviour as Ingest.
func (c *Client) IngestBody(ctx context.Context, plantID, contentType string, body []byte) (wire.IngestAck, error) {
	var ack wire.IngestAck
	err := c.do(ctx, http.MethodPost, "/v1/plants/"+url.PathEscape(plantID)+"/ingest", contentType, body, &ack)
	return ack, err
}

// Jobs uploads job metadata (level-2 setup + CAQ vectors).
func (c *Client) Jobs(ctx context.Context, plantID string, metas []wire.JobMeta) (wire.JobsAck, error) {
	buf, err := json.Marshal(metas)
	if err != nil {
		return wire.JobsAck{}, err
	}
	var ack wire.JobsAck
	err = c.do(ctx, http.MethodPost, "/v1/plants/"+url.PathEscape(plantID)+"/jobs", "application/json", buf, &ack)
	return ack, err
}

// ReportQuery selects what a Report call asks for. The zero value
// means: default start level (phase), the server's default top-K, all
// machines.
type ReportQuery struct {
	Level   Level  // 0 = server default (phase)
	Top     int    // 0 = server default (20)
	Machine string // non-empty = single-machine drill-down
}

// Report fetches the fleet outlier report.
func (c *Client) Report(ctx context.Context, plantID string, q ReportQuery) (wire.ReportResponse, error) {
	vals := url.Values{}
	if q.Level != 0 {
		vals.Set("level", strconv.Itoa(int(q.Level)))
	}
	if q.Top > 0 {
		vals.Set("top", strconv.Itoa(q.Top))
	}
	if q.Machine != "" {
		vals.Set("machine", q.Machine)
	}
	path := "/v1/plants/" + url.PathEscape(plantID) + "/report"
	if len(vals) > 0 {
		path += "?" + vals.Encode()
	}
	var rep wire.ReportResponse
	err := c.do(ctx, http.MethodGet, path, "", nil, &rep)
	return rep, err
}

// Rollup fetches the incremental aggregates at the given level
// (sensor|phase|machine|line|plant; empty = plant).
func (c *Client) Rollup(ctx context.Context, plantID, level string) (wire.RollupResponse, error) {
	path := "/v1/plants/" + url.PathEscape(plantID) + "/rollup"
	if level != "" {
		path += "?level=" + url.QueryEscape(level)
	}
	var roll wire.RollupResponse
	err := c.do(ctx, http.MethodGet, path, "", nil, &roll)
	return roll, err
}

// CubeQuery selects one OLAP question for the Cube call. The zero
// value is a full-cube slice. It is the wire grammar itself — the same
// Encode the server's handler decodes with, so the two sides cannot
// drift.
type CubeQuery = wire.CubeQueryParams

// Cube runs one OLAP query — slice, rollup, members, or drilldown —
// against the plant's incrementally maintained cube (dimensions
// line × machine × job × phase × sensor). Cells come back in
// deterministic coordinate order.
func (c *Client) Cube(ctx context.Context, plantID string, q CubeQuery) (wire.CubeResponse, error) {
	vals := q.Encode()
	path := "/v1/plants/" + url.PathEscape(plantID) + "/cube"
	if len(vals) > 0 {
		path += "?" + vals.Encode()
	}
	var resp wire.CubeResponse
	err := c.do(ctx, http.MethodGet, path, "", nil, &resp)
	return resp, err
}

// CubeSlice fetches the cells matching the dimension=member
// constraints at full dimensionality (nil = every materialised cell).
func (c *Client) CubeSlice(ctx context.Context, plantID string, where map[string]string) (wire.CubeResponse, error) {
	return c.Cube(ctx, plantID, CubeQuery{Op: wire.CubeOpSlice, Where: where})
}

// CubeRollup aggregates the cube onto the kept dimensions, optionally
// within a where-constrained slice.
func (c *Client) CubeRollup(ctx context.Context, plantID string, keep []string, where map[string]string) (wire.CubeResponse, error) {
	return c.Cube(ctx, plantID, CubeQuery{Op: wire.CubeOpRollup, Keep: keep, Where: where})
}

// CubeMembers lists the distinct members of one dimension.
func (c *Client) CubeMembers(ctx context.Context, plantID, dim string) (wire.CubeResponse, error) {
	return c.Cube(ctx, plantID, CubeQuery{Op: wire.CubeOpMembers, Dim: dim})
}

// CubeDrilldown expands one dimension inside a where-constrained
// slice: one aggregate cell per member of dim.
func (c *Client) CubeDrilldown(ctx context.Context, plantID, dim string, where map[string]string) (wire.CubeResponse, error) {
	return c.Cube(ctx, plantID, CubeQuery{Op: wire.CubeOpDrilldown, Dim: dim, Where: where})
}

// Alerts fetches up to limit recent streaming alerts (0 = server
// default, negative = everything the server's ring holds).
func (c *Client) Alerts(ctx context.Context, plantID string, limit int) (wire.AlertsResponse, error) {
	path := "/v1/plants/" + url.PathEscape(plantID) + "/alerts"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	} else if limit < 0 {
		path += "?limit=0" // the server treats an explicit 0 as unlimited
	}
	var al wire.AlertsResponse
	err := c.do(ctx, http.MethodGet, path, "", nil, &al)
	return al, err
}

// Stats fetches one plant's ingest counters and queue depths.
func (c *Client) Stats(ctx context.Context, plantID string) (wire.StatsResponse, error) {
	var st wire.StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/plants/"+url.PathEscape(plantID)+"/stats", "", nil, &st)
	return st, err
}

// WaitDrained polls the stats endpoint until at least records samples
// were folded through the pipeline and every shard queue is empty —
// the point where a report reflects everything uploaded so far. It
// watches received_records, which counts idempotent replays too:
// re-sending an already-ingested trace (the 429-retry and restart
// replay stories) still drains, where the fresh-cells-only
// accepted_records would never advance and the wait would hang.
//
// Cancel or deadline the context to bound the wait: when it fires the
// error matches both the context cause and ErrDrainTimeout
// (errors.Is), and carries the last observed progress — the signature
// of a wedged shard worker is a queue depth that never reaches zero.
func (c *Client) WaitDrained(ctx context.Context, plantID string, records uint64) error {
	var last wire.StatsResponse
	seen := false
	for {
		st, err := c.Stats(ctx, plantID)
		if err != nil {
			if ctx.Err() != nil {
				return drainTimeoutErr(plantID, records, last, seen, ctx.Err())
			}
			return err
		}
		last, seen = st, true
		drained := st.ReceivedRecords >= records
		for _, d := range st.QueueDepths {
			if d > 0 {
				drained = false
			}
		}
		if drained {
			return nil
		}
		if err := sleepCtx(ctx, 10*time.Millisecond); err != nil {
			return drainTimeoutErr(plantID, records, last, seen, err)
		}
	}
}

// drainTimeoutErr wraps a context expiry into the typed drain-timeout
// error, carrying the last observed drain progress.
func drainTimeoutErr(plantID string, want uint64, last wire.StatsResponse, seen bool, cause error) error {
	if !seen {
		return fmt.Errorf("%w: plant %s: no stats observed before the deadline: %w",
			ErrDrainTimeout, plantID, cause)
	}
	return fmt.Errorf("%w: plant %s at %d/%d received records, queue depths %v: %w",
		ErrDrainTimeout, plantID, last.ReceivedRecords, want, last.QueueDepths, cause)
}

// Backup downloads a consistent snapshot of one plant — the binary
// format `hodctl restore` (POST /restore) accepts.
func (c *Client) Backup(ctx context.Context, plantID string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/plants/"+url.PathEscape(plantID)+"/backup", nil)
	if err != nil {
		return nil, err
	}
	c.authorize(req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp.StatusCode, data)
	}
	return data, nil
}

// Restore recreates a plant from a Backup payload. The id must not be
// registered on the target server yet; the topology rides inside the
// backup.
func (c *Client) Restore(ctx context.Context, plantID string, backup []byte) (wire.RestoreAck, error) {
	var ack wire.RestoreAck
	err := c.do(ctx, http.MethodPost, "/v1/plants/"+url.PathEscape(plantID)+"/restore",
		"application/octet-stream", backup, &ack)
	return ack, err
}

// ClusterStatus fetches a cluster router's membership table and the
// placement of every plant it routes.
func (c *Client) ClusterStatus(ctx context.Context) (wire.ClusterStatusResponse, error) {
	var st wire.ClusterStatusResponse
	err := c.do(ctx, http.MethodGet, "/v1/cluster/status", "", nil, &st)
	return st, err
}

// ClusterJoin adds a node to the cluster and rebalances ~1/N of the
// plants onto it.
func (c *Client) ClusterJoin(ctx context.Context, nodeID, addr string) (wire.ClusterAck, error) {
	return c.clusterNodeOp(ctx, "/v1/cluster/join", wire.ClusterNodeRequest{ID: nodeID, Addr: addr})
}

// ClusterDrain marks a node draining: it takes no new placements and
// its plants move off it.
func (c *Client) ClusterDrain(ctx context.Context, nodeID string) (wire.ClusterAck, error) {
	return c.clusterNodeOp(ctx, "/v1/cluster/drain", wire.ClusterNodeRequest{ID: nodeID})
}

// ClusterFail declares a node dead: its plants' warm standbys promote
// to owner without data movement and fresh standbys are seeded.
func (c *Client) ClusterFail(ctx context.Context, nodeID string) (wire.ClusterAck, error) {
	return c.clusterNodeOp(ctx, "/v1/cluster/fail", wire.ClusterNodeRequest{ID: nodeID})
}

// ClusterRebalance re-runs placement for every plant and moves the
// misplaced ones to their rendezvous owner.
func (c *Client) ClusterRebalance(ctx context.Context) (wire.ClusterAck, error) {
	var ack wire.ClusterAck
	err := c.do(ctx, http.MethodPost, "/v1/cluster/rebalance", "application/json", []byte("{}"), &ack)
	return ack, err
}

func (c *Client) clusterNodeOp(ctx context.Context, path string, req wire.ClusterNodeRequest) (wire.ClusterAck, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return wire.ClusterAck{}, err
	}
	var ack wire.ClusterAck
	err = c.do(ctx, http.MethodPost, path, "application/json", buf, &ack)
	return ack, err
}

// BatchStream accumulates records and flushes them through Ingest in
// fixed-size batches, one binary frame each — the shape uploader loops
// want. Not safe for concurrent use; run one stream per uploader
// goroutine.
type BatchStream struct {
	c       *Client
	plantID string
	size    int
	buf     []wire.Record
	ack     wire.IngestAck // accumulated totals
	batches int
}

// BatchStream starts a batching uploader for one plant. batchSize <= 0
// defaults to 2000 records per request.
func (c *Client) BatchStream(plantID string, batchSize int) *BatchStream {
	if batchSize <= 0 {
		batchSize = 2000
	}
	return &BatchStream{c: c, plantID: plantID, size: batchSize, buf: make([]wire.Record, 0, batchSize)}
}

// Add buffers one record, flushing automatically when the batch fills.
func (b *BatchStream) Add(ctx context.Context, rec wire.Record) error {
	b.buf = append(b.buf, rec)
	if len(b.buf) >= b.size {
		return b.Flush(ctx)
	}
	return nil
}

// Flush sends the buffered records (if any) as one batch.
func (b *BatchStream) Flush(ctx context.Context) error {
	if len(b.buf) == 0 {
		return nil
	}
	ack, err := b.c.Ingest(ctx, b.plantID, b.buf)
	if err != nil {
		return err
	}
	b.buf = b.buf[:0]
	b.batches++
	b.ack.Records += ack.Records
	b.ack.Rejected += ack.Rejected
	if b.ack.FirstRejection == "" {
		b.ack.FirstRejection = ack.FirstRejection
	}
	return nil
}

// Ack returns the accumulated acknowledgement totals of every flushed
// batch so far.
func (b *BatchStream) Ack() wire.IngestAck { return b.ack }

// Batches reports how many batches were flushed so far.
func (b *BatchStream) Batches() int { return b.batches }
