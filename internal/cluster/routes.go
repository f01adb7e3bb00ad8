package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/url"
	"strings"
)

// Cluster request headers. The router stamps every proxied request
// with the epoch it routed under, so a node that has moved on answers
// 503 failover instead of serving stale ownership; the internal header
// marks node-to-node and coordinator traffic, which bypasses ownership
// gating (backups during a move, WAL tailing by the standby).
const (
	EpochHeader    = "X-Hod-Cluster-Epoch"
	InternalHeader = "X-Hod-Cluster-Internal"
	WalFirstHeader = "X-Hod-Wal-First"
	WalLastHeader  = "X-Hod-Wal-Last"
	// StaleHeader marks a response the router served from the warm
	// standby because the owner was unreachable — an implicit stale
	// read the client did not opt into with ?consistency=follower.
	StaleHeader = "X-Hod-Cluster-Stale"
)

// ConsistencyParam is the query knob that opts a /cube or /rollup read
// into follower consistency: the router sends it to the warm standby,
// which may trail the owner by the unshipped WAL tail.
const (
	ConsistencyParam    = "consistency"
	ConsistencyFollower = "follower"
)

// RouteSpec describes one route of the v1 surface the way the routing
// tier needs it: where the plant id lives, whether the warm standby
// may serve it, and whether it is a push stream.
type RouteSpec struct {
	Method  string
	Pattern string
	// Open routes skip the auth middleware chain (liveness only).
	Open bool
	// PlantScoped routes carry the {id} wildcard; the router proxies
	// them to the plant's owner.
	PlantScoped bool
	// Follower routes may be served by the warm standby under the
	// explicit ?consistency=follower knob.
	Follower bool
	// StaleFallback routes may be retried on the warm standby when the
	// owner is unreachable and nothing reached the client yet — the
	// analytic reads, where a slightly stale answer beats a 503 while
	// failover settles. Never /backup: a stale backup restored later
	// would silently lose acked data.
	StaleFallback bool
	// Stream routes are the push endpoint (SSE); the router forwards
	// them to the owner with streaming flush, and ends them when it
	// closes.
	Stream bool
	// Internal routes are the node-side cluster control surface —
	// membership pushes, replication, WAL tailing. They demand the
	// internal header and are never proxied by the router.
	Internal bool
}

// V1Routes is the public v1 surface — the route table of the serving
// layer, mirrored here so the router provably proxies every route. A
// test in internal/server pins its own table against this list.
func V1Routes() []RouteSpec {
	return []RouteSpec{
		{Method: "GET", Pattern: "/healthz", Open: true},
		{Method: "POST", Pattern: "/v1/plants"},
		{Method: "GET", Pattern: "/v1/plants"},
		{Method: "POST", Pattern: "/v1/plants/{id}/ingest", PlantScoped: true},
		{Method: "POST", Pattern: "/v1/plants/{id}/jobs", PlantScoped: true},
		{Method: "GET", Pattern: "/v1/plants/{id}/report", PlantScoped: true, StaleFallback: true},
		{Method: "GET", Pattern: "/v1/plants/{id}/rollup", PlantScoped: true, Follower: true, StaleFallback: true},
		{Method: "GET", Pattern: "/v1/plants/{id}/cube", PlantScoped: true, Follower: true, StaleFallback: true},
		{Method: "GET", Pattern: "/v1/plants/{id}/alerts", PlantScoped: true, StaleFallback: true},
		{Method: "GET", Pattern: "/v1/plants/{id}/stats", PlantScoped: true, StaleFallback: true},
		{Method: "GET", Pattern: "/v1/plants/{id}/backup", PlantScoped: true},
		{Method: "POST", Pattern: "/v1/plants/{id}/restore", PlantScoped: true},
		{Method: "GET", Pattern: "/v1/events", Stream: true},
	}
}

// NodeRoutes is the node-side cluster control surface, mounted by a
// hodserve running with a ClusterNodeID in addition to V1Routes.
func NodeRoutes() []RouteSpec {
	return []RouteSpec{
		{Method: "GET", Pattern: "/v1/cluster/status", Internal: true},
		{Method: "POST", Pattern: "/v1/cluster/membership", Internal: true},
		{Method: "POST", Pattern: "/v1/cluster/replicate", Internal: true},
		{Method: "POST", Pattern: "/v1/cluster/release", Internal: true},
		{Method: "GET", Pattern: "/v1/plants/{id}/wal", PlantScoped: true, Internal: true},
	}
}

// FollowerRead reports whether a request explicitly opts into follower
// consistency on a route the standby may serve (GET /cube, /rollup).
func FollowerRead(method, path string, query url.Values) bool {
	if method != "GET" || query.Get(ConsistencyParam) != ConsistencyFollower {
		return false
	}
	return strings.HasSuffix(path, "/cube") || strings.HasSuffix(path, "/rollup")
}

// shipHeader is [seq u64][len u32], little-endian — the framing of the
// WAL tail response body (GET /v1/plants/{id}/wal).
const shipHeader = 8 + 4

// maxShipFrame bounds one shipped payload so a corrupt length cannot
// make the standby allocate gigabytes; WAL frames share the same cap.
const maxShipFrame = 256 << 20

// WriteShipFrame appends one WAL frame to a tail response body.
func WriteShipFrame(w io.Writer, seq uint64, payload []byte) error {
	var hdr [shipHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:8], seq)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadShipFrame reads one WAL frame from a tail response body,
// returning io.EOF at a clean frame boundary and ErrUnexpectedEOF on a
// torn one.
func ReadShipFrame(r io.Reader) (seq uint64, payload []byte, err error) {
	var hdr [shipHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	seq = binary.LittleEndian.Uint64(hdr[0:8])
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if n > maxShipFrame {
		return 0, nil, fmt.Errorf("cluster: ship frame seq %d claims %d bytes", seq, n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("cluster: torn ship frame seq %d: %w", seq, err)
	}
	return seq, payload, nil
}
