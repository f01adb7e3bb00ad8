package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/pkg/hod/wire"
)

// Router is the cluster's coordinator and single proxy hop: it owns
// the membership table (nodes only hold pushed copies), proxies the
// whole public /v1 surface to the owning node of each plant, and
// drives the data movement that keeps placement true — moving plants
// over backup/restore when membership changes and seeding warm
// standbys over replicate. The pkg/hod client works against it
// unchanged: errors ride the typed envelope, failover surfaces as
// retriable 503s, and SSE subscriptions are forwarded to the owner
// with streaming flush. There is exactly one hop: client →
// router → owner; nodes never proxy to each other.
type Router struct {
	opts      RouterOptions
	mux       *http.ServeMux
	hc        *http.Client      // control plane: membership pushes, moves
	transport http.RoundTripper // data plane: proxied client requests

	// done ends background reconciliation (membership push retries)
	// and every routed push stream; closed by Close, which
	// ServeListener's stop also invokes.
	done      chan struct{}
	closeOnce sync.Once

	// opMu serializes membership mutations and the data movement they
	// trigger — one join/drain/fail/rebalance at a time.
	opMu sync.Mutex

	mu         sync.RWMutex
	mem        wire.ClusterMembership
	plants     map[string]bool   // plant ids known to the cluster
	located    map[string]string // plant → node holding the live copy
	standbyLoc map[string]string // plant → node holding the warm copy
	moving     map[string]bool   // plants mid-move answer 503 failover
	proxies    map[string]*httputil.ReverseProxy
	parts      map[string]int // host → injected partition failures left
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// Peers is the initial membership: every node the router starts
	// with, all active. IDs and addrs are required.
	Peers []wire.ClusterNode
	// Log, when non-nil, receives coordinator progress lines.
	Log func(format string, args ...any)
}

// NewRouter builds a router at epoch 1 over the given peers. Call
// Bootstrap to push membership and discover existing plants before
// serving traffic.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one peer")
	}
	nodes := make([]wire.ClusterNode, len(opts.Peers))
	for i, p := range opts.Peers {
		if p.ID == "" || p.Addr == "" {
			return nil, fmt.Errorf("cluster: peer %d needs an id and an addr", i)
		}
		if _, err := url.Parse(p.Addr); err != nil {
			return nil, fmt.Errorf("cluster: peer %s: bad addr %q: %v", p.ID, p.Addr, err)
		}
		if p.State == "" {
			p.State = wire.NodeActive
		}
		nodes[i] = p
	}
	rt := &Router{
		opts:       opts,
		mux:        http.NewServeMux(),
		hc:         &http.Client{Timeout: 30 * time.Second},
		done:       make(chan struct{}),
		mem:        wire.ClusterMembership{Epoch: 1, Nodes: nodes},
		plants:     make(map[string]bool),
		located:    make(map[string]string),
		standbyLoc: make(map[string]string),
		moving:     make(map[string]bool),
		proxies:    make(map[string]*httputil.ReverseProxy),
		parts:      make(map[string]int),
	}
	// The data plane inherits DefaultTransport's pooling and timeout
	// tuning; a zero-value Transport would drop proxy settings and
	// idle-connection reuse under load.
	rt.transport = &partitionTransport{rt: rt, base: http.DefaultTransport.(*http.Transport).Clone()}
	rt.mount()
	return rt, nil
}

// Close stops the router's background reconciliation (membership push
// retries) and ends its routed push streams; call it before
// http.Server.Shutdown so Shutdown need not wait on them. Serving stops
// via the ServeListener stop func, which calls Close itself.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.done) })
}

func (rt *Router) logf(format string, args ...any) {
	if rt.opts.Log != nil {
		rt.opts.Log(format, args...)
		return
	}
	log.Printf("cluster: router: "+format, args...)
}

// mount wires the proxy surface (every V1Routes entry) plus the
// router's own coordinator API under /v1/cluster.
func (rt *Router) mount() {
	for _, sp := range V1Routes() {
		key := sp.Method + " " + sp.Pattern
		switch {
		case sp.Pattern == "/healthz":
			rt.mux.HandleFunc(key, func(w http.ResponseWriter, r *http.Request) {
				writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "router"})
			})
		case sp.Pattern == "/v1/plants" && sp.Method == "POST":
			rt.mux.HandleFunc(key, rt.handleRegister)
		case sp.Pattern == "/v1/plants" && sp.Method == "GET":
			rt.mux.HandleFunc(key, rt.handleList)
		case sp.Stream:
			sp := sp
			rt.mux.HandleFunc(key, func(w http.ResponseWriter, r *http.Request) {
				rt.handleStream(w, r, sp)
			})
		default: // plant-scoped: proxy to the owner
			sp := sp
			rt.mux.HandleFunc(key, func(w http.ResponseWriter, r *http.Request) {
				rt.proxyPlant(w, r, r.PathValue("id"), sp)
			})
		}
	}
	rt.mux.HandleFunc("GET /v1/cluster/status", rt.handleStatus)
	rt.mux.HandleFunc("POST /v1/cluster/join", rt.handleJoin)
	rt.mux.HandleFunc("POST /v1/cluster/drain", rt.handleDrain)
	rt.mux.HandleFunc("POST /v1/cluster/fail", rt.handleFail)
	rt.mux.HandleFunc("POST /v1/cluster/rebalance", rt.handleRebalance)
}

// Handler returns the router's HTTP handler tree.
func (rt *Router) Handler() http.Handler { return rt.mux }

// ServeListener serves the router on ln in the background; the
// returned stop closes the HTTP listener.
func (rt *Router) ServeListener(ln net.Listener) (stop func()) {
	hs := rt.httpServer()
	go hs.Serve(ln)
	return func() { rt.Close(); hs.Close() }
}

// httpServer builds the http.Server ServeListener runs.
func (rt *Router) httpServer() *http.Server { return gateway.NewHTTPServer("", rt.mux) }

// Bootstrap pushes the initial membership to every peer and adopts the
// plants they already hold (a router restart must not forget the
// fleet). Owners are assumed to sit where placement puts them.
func (rt *Router) Bootstrap() error {
	rt.opMu.Lock()
	defer rt.opMu.Unlock()
	mem := rt.membership()
	if err := rt.pushMembership(mem); err != nil {
		return err
	}
	for _, n := range mem.Nodes {
		if n.State == wire.NodeDown {
			continue
		}
		var pl wire.PlantList
		if err := rt.nodeGet(n, "/v1/plants", &pl); err != nil {
			return fmt.Errorf("cluster: listing plants on %s: %w", n.ID, err)
		}
		rt.mu.Lock()
		for _, id := range pl.Plants {
			rt.plants[id] = true
			if owner, ok := Owner(mem, id); ok {
				rt.located[id] = owner.ID
			}
		}
		rt.mu.Unlock()
	}
	return nil
}

func (rt *Router) membership() wire.ClusterMembership {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.mem
}

func (rt *Router) epoch() uint64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.mem.Epoch
}

func (rt *Router) plantList() []string {
	rt.mu.RLock()
	ids := make([]string, 0, len(rt.plants))
	for id := range rt.plants {
		ids = append(ids, id)
	}
	rt.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// failover answers a retriable 503 in the typed envelope: ownership is
// in flux and the client should simply try again.
func failover(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", "1")
	gateway.WriteError(w, http.StatusServiceUnavailable, wire.CodeFailover, fmt.Sprintf(format, args...))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// proxyRecorder wraps the client-facing ResponseWriter so the router
// knows whether a proxy attempt wrote anything — the line between
// "retry on the standby" and "the response is gone". It must keep
// flush (SSE) working through the wrap.
type proxyRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
	err    error
}

func (p *proxyRecorder) WriteHeader(code int) {
	p.wrote = true
	p.status = code
	p.ResponseWriter.WriteHeader(code)
}

func (p *proxyRecorder) Write(b []byte) (int, error) {
	if !p.wrote {
		p.wrote = true
		p.status = http.StatusOK
	}
	return p.ResponseWriter.Write(b)
}

func (p *proxyRecorder) Flush() {
	p.wrote = true
	if f, ok := p.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// proxyFor returns (building and caching) the reverse proxy to one
// node. The Rewrite hook stamps the epoch at request time, so a proxy
// built at epoch 3 still routes correctly at epoch 7.
func (rt *Router) proxyFor(node wire.ClusterNode) *httputil.ReverseProxy {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if p, ok := rt.proxies[node.Addr]; ok {
		return p
	}
	target, err := url.Parse(node.Addr)
	if err != nil {
		return nil
	}
	p := &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(target)
			pr.Out.Host = target.Host
			pr.Out.Header.Set(EpochHeader, strconv.FormatUint(rt.epoch(), 10))
		},
		Transport:     rt.transport,
		FlushInterval: -1, // SSE: flush every frame
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, err error) {
			if rec, ok := w.(*proxyRecorder); ok {
				rec.err = err
				return
			}
			w.WriteHeader(http.StatusBadGateway)
		},
	}
	rt.proxies[node.Addr] = p
	return p
}

// tryProxy runs one proxy attempt; false means the node was
// unreachable before anything was written to the client.
func (rt *Router) tryProxy(rec *proxyRecorder, r *http.Request, node wire.ClusterNode) bool {
	p := rt.proxyFor(node)
	if p == nil {
		return false
	}
	rec.err = nil
	p.ServeHTTP(rec, r)
	return rec.err == nil
}

// proxyPlant routes one plant-scoped request: follower reads go to the
// warm standby, everything else to the owner. When the primary is
// unreachable and nothing reached the client yet, the analytic reads
// (sp.StaleFallback — never /backup or a stream) retry on the other
// replica with the internal header, marked with the stale header when
// the fallback copy is the standby's; writes answer a retriable 503
// and the client re-sends.
func (rt *Router) proxyPlant(w http.ResponseWriter, r *http.Request, plant string, sp RouteSpec) {
	rt.mu.RLock()
	moving := rt.moving[plant]
	mem := rt.mem
	rt.mu.RUnlock()
	if moving {
		failover(w, "plant %q is moving between nodes", plant)
		return
	}
	owner, ok := Owner(mem, plant)
	if !ok {
		failover(w, "no active nodes at epoch %d", mem.Epoch)
		return
	}
	primary := owner
	var secondary *wire.ClusterNode
	if sb, hasSb := Standby(mem, plant); hasSb {
		if FollowerRead(r.Method, r.URL.Path, r.URL.Query()) {
			primary, secondary = sb, &owner
		} else if r.Method == http.MethodGet && sp.StaleFallback {
			s := sb
			secondary = &s
		}
	}
	rec := &proxyRecorder{ResponseWriter: w}
	if rt.tryProxy(rec, r, primary) {
		return
	}
	if secondary != nil && !rec.wrote && r.Method == http.MethodGet {
		r2 := r.Clone(r.Context())
		r2.Header = r.Header.Clone()
		r2.Header.Set(InternalHeader, "1")
		if secondary.ID != owner.ID {
			// Falling back to the standby, not to the authoritative
			// owner of a follower read: flag the staleness.
			w.Header().Set(StaleHeader, "1")
		}
		if rt.tryProxy(rec, r2, *secondary) {
			return
		}
		w.Header().Del(StaleHeader)
	}
	if !rec.wrote {
		failover(w, "node %s unreachable; failover pending", primary.ID)
	}
}

// handleRegister sniffs the plant id out of the topology body (the one
// route whose id is not in the path), proxies the registration to the
// owning node, and — on success — seeds the warm standby.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	buf, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		gateway.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "reading topology: "+err.Error())
		return
	}
	var topo struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(buf, &topo); err != nil || topo.ID == "" {
		gateway.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "bad topology: missing plant id")
		return
	}
	rt.mu.RLock()
	moving := rt.moving[topo.ID]
	mem := rt.mem
	rt.mu.RUnlock()
	if moving {
		failover(w, "plant %q is moving between nodes", topo.ID)
		return
	}
	owner, ok := Owner(mem, topo.ID)
	if !ok {
		failover(w, "no active nodes at epoch %d", mem.Epoch)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(buf))
	r.ContentLength = int64(len(buf))
	rec := &proxyRecorder{ResponseWriter: w}
	if !rt.tryProxy(rec, r, owner) {
		if !rec.wrote {
			failover(w, "node %s unreachable; failover pending", owner.ID)
		}
		return
	}
	if rec.status == http.StatusCreated {
		rt.mu.Lock()
		rt.plants[topo.ID] = true
		rt.located[topo.ID] = owner.ID
		rt.mu.Unlock()
		go func() {
			if err := rt.ensureStandby(topo.ID); err != nil {
				rt.logf("seeding standby of plant %s: %v", topo.ID, err)
			}
		}()
	}
}

// handleList merges the plant lists of every reachable node; the
// standby's copy dedups against the owner's.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	mem := rt.membership()
	set := make(map[string]bool)
	for _, n := range mem.Nodes {
		if n.State == wire.NodeDown {
			continue
		}
		var pl wire.PlantList
		if err := rt.nodeGet(n, "/v1/plants", &pl); err != nil {
			continue // an unreachable node hides nothing the others hold
		}
		for _, id := range pl.Plants {
			set[id] = true
		}
	}
	ids := make([]string, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	writeJSON(w, http.StatusOK, wire.PlantList{Plants: ids})
}

// handleStream forwards a push subscription to the owner of the one
// plant its channels name. Wildcard and cross-plant subscriptions are
// refused: a routed stream follows exactly one plant's owner. The
// stream ends when the router closes — http.Server's Shutdown cancels
// no request context, so it would otherwise wait out its budget on
// every open stream.
func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request, sp RouteSpec) {
	req, err := wire.DecodeSubscribeRequest(r.URL.Query())
	if err != nil {
		gateway.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	plant := ""
	for _, name := range req.Channels {
		ch, err := wire.ParseChannel(name)
		if err != nil {
			gateway.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
			return
		}
		if ch.Plant == "*" {
			gateway.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
				"wildcard channels are not routable in a cluster; subscribe to one plant")
			return
		}
		if plant == "" {
			plant = ch.Plant
		} else if plant != ch.Plant {
			gateway.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
				"channels span multiple plants; a routed subscription follows one plant's owner")
			return
		}
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-rt.done:
			cancel()
		case <-ctx.Done():
		}
	}()
	rt.proxyPlant(w, r.WithContext(ctx), plant, sp)
}

// --- coordinator API -------------------------------------------------

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	mem := rt.membership()
	resp := wire.ClusterStatusResponse{Epoch: mem.Epoch, Nodes: mem.Nodes}
	for _, plant := range rt.plantList() {
		owner, standby, hasOwner, hasStandby := Placement(mem, plant)
		p := wire.ClusterPlacement{Plant: plant}
		if hasOwner {
			p.Owner = owner.ID
		}
		if hasStandby {
			p.Standby = standby.ID
		}
		resp.Placements = append(resp.Placements, p)
	}
	writeJSON(w, http.StatusOK, resp)
}

func decodeNodeReq(w http.ResponseWriter, r *http.Request) (wire.ClusterNodeRequest, bool) {
	var req wire.ClusterNodeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil || req.ID == "" {
		gateway.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "bad node request: want {\"id\": ..., \"addr\": ...}")
		return req, false
	}
	return req, true
}

// handleJoin adds a node (or revives a drained/down one), bumps the
// epoch, and rebalances — rendezvous hashing moves ~1/N of the plants
// onto the new node and nothing else.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeNodeReq(w, r)
	if !ok {
		return
	}
	rt.opMu.Lock()
	defer rt.opMu.Unlock()
	mem, err := rt.mutateMembership(func(nodes []wire.ClusterNode) ([]wire.ClusterNode, error) {
		for i, n := range nodes {
			if n.ID == req.ID {
				nodes[i].State = wire.NodeActive
				if req.Addr != "" {
					nodes[i].Addr = req.Addr
				}
				return nodes, nil
			}
		}
		if req.Addr == "" {
			return nil, fmt.Errorf("joining a new node needs an addr")
		}
		return append(nodes, wire.ClusterNode{ID: req.ID, Addr: req.Addr, State: wire.NodeActive}), nil
	})
	if err != nil {
		gateway.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	if err := rt.pushMembership(mem); err != nil {
		rt.logf("membership push after join of %s: %v", req.ID, err)
	}
	moved := rt.rebalanceLocked()
	writeJSON(w, http.StatusOK, wire.ClusterAck{Epoch: mem.Epoch, Moved: moved})
}

// handleDrain marks a node draining — it takes no placements at the
// new epoch — and moves its plants off over backup/restore.
func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeNodeReq(w, r)
	if !ok {
		return
	}
	rt.opMu.Lock()
	defer rt.opMu.Unlock()
	mem, err := rt.mutateMembership(func(nodes []wire.ClusterNode) ([]wire.ClusterNode, error) {
		active, found := 0, false
		for i, n := range nodes {
			if n.ID == req.ID {
				nodes[i].State = wire.NodeDraining
				found = true
			} else if n.State == wire.NodeActive {
				active++
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown node %q", req.ID)
		}
		if active == 0 {
			return nil, fmt.Errorf("draining %s would leave no active nodes", req.ID)
		}
		return nodes, nil
	})
	if err != nil {
		gateway.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	if err := rt.pushMembership(mem); err != nil {
		rt.logf("membership push after drain of %s: %v", req.ID, err)
	}
	moved := rt.rebalanceLocked()
	writeJSON(w, http.StatusOK, wire.ClusterAck{Epoch: mem.Epoch, Moved: moved})
}

// handleFail marks a node down after a crash. No data moves: for every
// plant the dead node owned, the warm standby is already the top-ranked
// survivor, and the membership push tells it to stop tailing and serve.
// The router then re-seeds standbys for plants that lost a replica.
func (rt *Router) handleFail(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeNodeReq(w, r)
	if !ok {
		return
	}
	rt.opMu.Lock()
	defer rt.opMu.Unlock()
	oldMem := rt.membership()
	mem, err := rt.mutateMembership(func(nodes []wire.ClusterNode) ([]wire.ClusterNode, error) {
		for i, n := range nodes {
			if n.ID == req.ID {
				nodes[i].State = wire.NodeDown
				return nodes, nil
			}
		}
		return nil, fmt.Errorf("unknown node %q", req.ID)
	})
	if err != nil {
		gateway.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	if err := rt.pushMembership(mem); err != nil {
		rt.logf("membership push after failure of %s: %v", req.ID, err)
	}
	promoted := 0
	for _, plant := range rt.plantList() {
		owner, hasOwner := Owner(mem, plant)
		if !hasOwner {
			continue
		}
		rt.mu.Lock()
		prev := rt.located[plant]
		if prev != owner.ID {
			rt.located[plant] = owner.ID
			promoted++
		}
		rt.mu.Unlock()
		// A lost replica — the dead node was this plant's owner or its
		// standby under the old placement — means the survivor runs
		// unprotected until a fresh standby seeds.
		oldOwner, _, _, _ := Placement(oldMem, plant)
		oldStandby, hadStandby := Standby(oldMem, plant)
		if oldOwner.ID == req.ID || (hadStandby && oldStandby.ID == req.ID) {
			if err := rt.ensureStandby(plant); err != nil {
				rt.logf("re-seeding standby of plant %s after failure of %s: %v", plant, req.ID, err)
			}
		}
	}
	writeJSON(w, http.StatusOK, wire.ClusterAck{Epoch: mem.Epoch, Moved: promoted})
}

func (rt *Router) handleRebalance(w http.ResponseWriter, r *http.Request) {
	rt.opMu.Lock()
	defer rt.opMu.Unlock()
	moved := rt.rebalanceLocked()
	writeJSON(w, http.StatusOK, wire.ClusterAck{Epoch: rt.epoch(), Moved: moved})
}

// mutateMembership applies fn to a copy of the node table, bumps the
// epoch, and installs the result. Callers hold opMu.
func (rt *Router) mutateMembership(fn func([]wire.ClusterNode) ([]wire.ClusterNode, error)) (wire.ClusterMembership, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	nodes, err := fn(append([]wire.ClusterNode(nil), rt.mem.Nodes...))
	if err != nil {
		return wire.ClusterMembership{}, err
	}
	rt.mem = wire.ClusterMembership{Epoch: rt.mem.Epoch + 1, Nodes: nodes}
	return rt.mem, nil
}

// pushMembership sends the table to every node that could be serving.
// An unreachable down node is expected; an unreachable live one is
// returned so join/bootstrap surface it — and retried in the
// background, because clusterGate refuses every proxied request whose
// stamped epoch differs from the node's view: a single missed push
// would otherwise wedge that node at the stale epoch until the next
// membership change.
func (rt *Router) pushMembership(mem wire.ClusterMembership) error {
	var firstErr error
	for _, n := range mem.Nodes {
		if n.State == wire.NodeDown {
			continue
		}
		if err := rt.nodePost(n, "/v1/cluster/membership", mem, nil); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: pushing membership to %s: %w", n.ID, err)
			}
			rt.retryMembershipPush(n, mem)
		}
	}
	return firstErr
}

// retryMembershipPush keeps re-pushing mem to one node in the
// background until it acks. The retrier gives up when the router's
// epoch moves past mem.Epoch (the newer push spawns its own retrier)
// or the router shuts down. pushMembership runs under opMu once per
// epoch, so at most one retrier exists per (node, epoch).
func (rt *Router) retryMembershipPush(n wire.ClusterNode, mem wire.ClusterMembership) {
	go func() {
		backoff := 50 * time.Millisecond
		for {
			select {
			case <-rt.done:
				return
			case <-time.After(backoff):
			}
			if backoff < time.Second {
				backoff *= 2
			}
			if rt.epoch() != mem.Epoch {
				return
			}
			if err := rt.nodePost(n, "/v1/cluster/membership", mem, nil); err == nil {
				rt.logf("membership epoch %d reached %s after retry", mem.Epoch, n.ID)
				return
			}
		}
	}()
}

// rebalanceLocked moves every plant whose owner under the current
// membership differs from where its live copy sits, then trues up warm
// standbys. Callers hold opMu.
func (rt *Router) rebalanceLocked() int {
	mem := rt.membership()
	moved := 0
	for _, plant := range rt.plantList() {
		owner, ok := Owner(mem, plant)
		if !ok {
			continue
		}
		rt.mu.RLock()
		cur := rt.located[plant]
		rt.mu.RUnlock()
		if cur == "" {
			rt.mu.Lock()
			rt.located[plant] = owner.ID
			rt.mu.Unlock()
			cur = owner.ID
		}
		if cur != owner.ID {
			if err := rt.movePlant(plant, cur, owner, mem); err != nil {
				rt.logf("moving plant %s from %s to %s: %v", plant, cur, owner.ID, err)
				continue
			}
			moved++
		}
		sb, hasSb := Standby(mem, plant)
		rt.mu.RLock()
		sbCur := rt.standbyLoc[plant]
		rt.mu.RUnlock()
		if hasSb && sbCur != sb.ID {
			if err := rt.ensureStandby(plant); err != nil {
				rt.logf("seeding standby of plant %s: %v", plant, err)
			}
		}
	}
	return moved
}

// movePlant relocates a plant's live copy: gate client traffic, drain
// the old owner's queues, backup there, restore on the new owner,
// release the old copy. The backup/restore framing is the public one;
// the internal header bypasses ownership gates on both sides.
func (rt *Router) movePlant(plant, fromID string, to wire.ClusterNode, mem wire.ClusterMembership) error {
	from, ok := NodeByID(mem, fromID)
	if !ok {
		return fmt.Errorf("cluster: plant %s located on unknown node %q", plant, fromID)
	}
	rt.setMoving(plant, true)
	defer rt.setMoving(plant, false)

	// The new owner may hold a stale standby copy; restore needs a
	// clean slate. Release is idempotent.
	if err := rt.nodePost(to, "/v1/cluster/release", wire.ClusterPlantRequest{Plant: plant}, nil); err != nil {
		return fmt.Errorf("releasing stale copy on %s: %w", to.ID, err)
	}
	// Wait for the old owner to fold everything it acked — the backup
	// must capture every 202'd batch.
	rt.waitDrained(from, plant, 5*time.Second)

	// The backup streams from the old owner into the new one: the
	// router holds no copy, and the new owner's restore cap is the one
	// cap on its size. A source cut short fails the POST, since the
	// body no longer fills its Content-Length.
	backup, err := rt.openBackup(from, plant)
	if err != nil {
		return err
	}
	defer backup.Body.Close()
	req, err := http.NewRequest("POST", to.Addr+"/v1/plants/"+url.PathEscape(plant)+"/restore", backup.Body)
	if err != nil {
		return err
	}
	req.ContentLength = backup.ContentLength
	req.Header.Set(InternalHeader, "1")
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := rt.hc.Do(req)
	if err != nil {
		return fmt.Errorf("restoring on %s: %w", to.ID, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("restoring on %s: status %d", to.ID, resp.StatusCode)
	}
	if err := rt.nodePost(from, "/v1/cluster/release", wire.ClusterPlantRequest{Plant: plant}, nil); err != nil {
		rt.logf("releasing plant %s on %s after move: %v", plant, from.ID, err)
	}
	rt.mu.Lock()
	rt.located[plant] = to.ID
	delete(rt.standbyLoc, plant)
	rt.mu.Unlock()
	return nil
}

// ensureStandby seeds the warm standby of one plant under the current
// placement (a no-op cluster of one has none).
func (rt *Router) ensureStandby(plant string) error {
	mem := rt.membership()
	sb, ok := Standby(mem, plant)
	if !ok {
		return nil
	}
	if err := rt.nodePost(sb, "/v1/cluster/replicate", wire.ClusterPlantRequest{Plant: plant}, nil); err != nil {
		return err
	}
	rt.mu.Lock()
	rt.standbyLoc[plant] = sb.ID
	rt.mu.Unlock()
	return nil
}

// waitDrained polls the node's stats until every shard queue is empty
// (or the timeout passes — the move proceeds with what drained).
func (rt *Router) waitDrained(n wire.ClusterNode, plant string, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var st wire.StatsResponse
		if err := rt.nodeGet(n, "/v1/plants/"+url.PathEscape(plant)+"/stats", &st); err != nil {
			return // unreachable: the backup fetch will surface it
		}
		idle := true
		for _, d := range st.QueueDepths {
			if d > 0 {
				idle = false
				break
			}
		}
		if idle {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// openBackup starts the GET of a plant's backup from node n; the
// caller reads and closes the body.
func (rt *Router) openBackup(n wire.ClusterNode, plant string) (*http.Response, error) {
	req, err := http.NewRequest("GET", n.Addr+"/v1/plants/"+url.PathEscape(plant)+"/backup", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(InternalHeader, "1")
	resp, err := rt.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("backup of %s from %s: %w", plant, n.ID, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("backup of %s from %s: status %d", plant, n.ID, resp.StatusCode)
	}
	return resp, nil
}

func (rt *Router) setMoving(plant string, v bool) {
	rt.mu.Lock()
	if v {
		rt.moving[plant] = true
	} else {
		delete(rt.moving, plant)
	}
	rt.mu.Unlock()
}

// nodeGet / nodePost are the router's control-plane calls: internal
// header set, JSON bodies, non-2xx is an error.
func (rt *Router) nodeGet(n wire.ClusterNode, path string, out any) error {
	req, err := http.NewRequest("GET", n.Addr+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set(InternalHeader, "1")
	resp, err := rt.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (rt *Router) nodePost(n wire.ClusterNode, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest("POST", n.Addr+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set(InternalHeader, "1")
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// PartitionNext arms the data-plane transport to fail the next n
// proxied requests to nodeID as if the network path were cut — the
// scenario engine's router_partition fault. Control-plane calls
// (membership, moves) are unaffected.
func (rt *Router) PartitionNext(nodeID string, n int) {
	node, ok := NodeByID(rt.membership(), nodeID)
	if !ok {
		return
	}
	u, err := url.Parse(node.Addr)
	if err != nil {
		return
	}
	rt.mu.Lock()
	rt.parts[u.Host] += n
	rt.mu.Unlock()
}

func (rt *Router) takePartition(host string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.parts[host] > 0 {
		rt.parts[host]--
		return true
	}
	return false
}

// partitionTransport injects deterministic connect failures for the
// router_partition fault; otherwise it is a plain pooled transport.
type partitionTransport struct {
	rt   *Router
	base http.RoundTripper
}

func (t *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.rt.takePartition(req.URL.Host) {
		return nil, fmt.Errorf("cluster: injected partition to %s", req.URL.Host)
	}
	return t.base.RoundTrip(req)
}
