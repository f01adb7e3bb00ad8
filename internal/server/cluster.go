package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/wal"
	"repro/pkg/hod/wire"
)

// This file is the node side of cluster mode (internal/cluster holds
// placement and the router). A server started with Options.ClusterNodeID
// set gates every plant-scoped request on rendezvous ownership under the
// epoch-versioned membership table the router pushes, serves the
// node-to-node control surface (membership, replicate, release, WAL
// tail), and runs one tailer goroutine per standby plant that ships the
// owner's WAL into the local fold path. Cluster traffic assumes an
// unauthenticated internal network: the internal header marks it, and
// it must not be combined with Options.Tenants.

// clusterState is a node's view of the cluster: the latest membership
// push and the WAL tailers of the plants it keeps warm.
type clusterState struct {
	mu      sync.RWMutex
	mem     wire.ClusterMembership
	tailers map[string]*walTailer

	// opMu serializes plant surgery (seed, release): a reseed racing a
	// release must not interleave drop/install halves.
	opMu sync.Mutex
}

func (s *Server) clusterMembership() wire.ClusterMembership {
	s.cluster.mu.RLock()
	defer s.cluster.mu.RUnlock()
	return s.cluster.mem
}

// clusterGate enforces ownership of a plant-scoped request. It returns
// true when the handler should proceed. Outside cluster mode, for
// internal traffic, and before the first membership push it passes
// everything through; otherwise the request must be routed at the
// node's epoch, and the node must own the plant — or be its standby
// serving an explicit follower read. Both refusals are 503s the typed
// client retries after Retry-After, mapping onto hod.ErrFailover when
// the budget runs out.
func (s *Server) clusterGate(w http.ResponseWriter, r *http.Request, plantID string) bool {
	if s.opts.ClusterNodeID == "" {
		return true
	}
	if r.Header.Get(cluster.InternalHeader) == "1" {
		return true
	}
	mem := s.clusterMembership()
	if mem.Epoch == 0 {
		return true // no membership pushed yet: behave standalone
	}
	if h := r.Header.Get(cluster.EpochHeader); h != "" && h != strconv.FormatUint(mem.Epoch, 10) {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, wire.CodeFailover,
			fmt.Sprintf("request routed at epoch %s, node %s is at epoch %d", h, s.opts.ClusterNodeID, mem.Epoch))
		return false
	}
	owner, ok := cluster.Owner(mem, plantID)
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, wire.CodeFailover,
			fmt.Sprintf("no active nodes at epoch %d", mem.Epoch))
		return false
	}
	if owner.ID == s.opts.ClusterNodeID {
		return true
	}
	if sb, ok := cluster.Standby(mem, plantID); ok && sb.ID == s.opts.ClusterNodeID &&
		cluster.FollowerRead(r.Method, r.URL.Path, r.URL.Query()) {
		return true
	}
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, wire.CodeNotOwner,
		fmt.Sprintf("plant %q is owned by node %s at epoch %d", plantID, owner.ID, mem.Epoch))
	return false
}

// clusterInternal guards the mutating node-side cluster control
// surface (membership, replicate, release): only a cluster node serves
// it, and only for traffic marked with the internal header. Without
// both checks a standalone open server — or any tenant of a
// multi-tenant one, since TenantScope only scopes {id} routes — could
// POST /v1/cluster/release and destroy a plant's data dir.
func (s *Server) clusterInternal(w http.ResponseWriter, r *http.Request) bool {
	if s.opts.ClusterNodeID == "" {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, "not a cluster node (no -node-id)")
		return false
	}
	if r.Header.Get(cluster.InternalHeader) != "1" {
		writeErr(w, http.StatusForbidden, wire.CodeForbidden, "internal cluster route")
		return false
	}
	return true
}

// handleClusterStatus reports the node's membership view and the
// placement of every plant it holds.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	mem := s.clusterMembership()
	s.mu.RLock()
	ids := make([]string, 0, len(s.plants))
	for id := range s.plants {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	resp := wire.ClusterStatusResponse{Epoch: mem.Epoch, Nodes: mem.Nodes}
	for _, id := range ids {
		owner, standby, _, hasStandby := cluster.Placement(mem, id)
		p := wire.ClusterPlacement{Plant: id, Owner: owner.ID}
		if hasStandby {
			p.Standby = standby.ID
		}
		resp.Placements = append(resp.Placements, p)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterMembership accepts a membership push from the router.
// Pushes are idempotent at the same epoch; a stale epoch is refused so
// a partitioned router cannot roll a node's view backwards.
func (s *Server) handleClusterMembership(w http.ResponseWriter, r *http.Request) {
	if !s.clusterInternal(w, r) {
		return
	}
	var m wire.ClusterMembership
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&m); err != nil {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, "bad membership: "+err.Error())
		return
	}
	if m.Epoch == 0 || len(m.Nodes) == 0 {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, "membership needs an epoch and at least one node")
		return
	}
	s.cluster.mu.Lock()
	if m.Epoch < s.cluster.mem.Epoch {
		cur := s.cluster.mem.Epoch
		s.cluster.mu.Unlock()
		writeErr(w, http.StatusConflict, wire.CodeFailover,
			fmt.Sprintf("stale membership epoch %d, node is at %d", m.Epoch, cur))
		return
	}
	s.cluster.mem = m
	s.cluster.mu.Unlock()
	go s.reconcileCluster(m)
	writeJSON(w, http.StatusOK, wire.ClusterAck{Epoch: m.Epoch})
}

// reconcileCluster reacts to a membership change: a node that now owns
// a plant it was tailing has been promoted — the tailer stops and the
// replicated state starts serving. Seeding new standbys and releasing
// surplus copies stay router-driven (replicate/release), so the one
// decision a node takes on its own is the one that must not wait.
func (s *Server) reconcileCluster(m wire.ClusterMembership) {
	self := s.opts.ClusterNodeID
	s.mu.RLock()
	ids := make([]string, 0, len(s.plants))
	for id := range s.plants {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	// Promote in sorted order: reconciling the same membership epoch
	// must take the same steps in the same order on every node.
	sort.Strings(ids)
	for _, id := range ids {
		if owner, ok := cluster.Owner(m, id); ok && owner.ID == self {
			s.stopTailer(id)
		}
	}
}

// handleClusterReplicate makes this node the warm standby of a plant:
// drop any stale local copy, seed from the owner's snapshot (with WAL
// positions), and tail the owner's log from there.
func (s *Server) handleClusterReplicate(w http.ResponseWriter, r *http.Request) {
	if !s.clusterInternal(w, r) {
		return
	}
	var req wire.ClusterPlantRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil || req.Plant == "" {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, "bad replicate request")
		return
	}
	if err := s.seedStandby(req.Plant); err != nil {
		writeErr(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, wire.ClusterAck{Epoch: s.clusterMembership().Epoch, Moved: 1})
}

// handleClusterRelease drops the local copy of a plant (data dir
// included). Idempotent: releasing a plant the node does not hold acks.
func (s *Server) handleClusterRelease(w http.ResponseWriter, r *http.Request) {
	if !s.clusterInternal(w, r) {
		return
	}
	var req wire.ClusterPlantRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil || req.Plant == "" {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, "bad release request")
		return
	}
	s.cluster.opMu.Lock()
	s.stopTailer(req.Plant)
	moved := 0
	if s.dropPlantLocal(req.Plant) {
		moved = 1
	}
	s.cluster.opMu.Unlock()
	writeJSON(w, http.StatusOK, wire.ClusterAck{Epoch: s.clusterMembership().Epoch, Moved: moved})
}

// handleWalTail streams WAL frames of one shard with seq > after, in
// the ship framing, capped at ~1 MiB per response. The headers carry
// the log's retained bounds; a position before the oldest retained
// frame answers 410 so the standby re-seeds from a snapshot.
func (s *Server) handleWalTail(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(cluster.InternalHeader) != "1" {
		writeErr(w, http.StatusForbidden, wire.CodeForbidden, "internal cluster route")
		return
	}
	ps, ok := s.plant(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, wire.CodeUnknownPlant, fmt.Sprintf("unknown plant %q", r.PathValue("id")))
		return
	}
	if ps.dur == nil {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, "plant has no WAL (server runs without -data)")
		return
	}
	shardIdx, err := queryInt(r, "shard", 0)
	if err != nil || shardIdx >= len(ps.dur.logs) {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, fmt.Sprintf("bad shard index (log has %d)", len(ps.dur.logs)))
		return
	}
	after, err := queryUint64(r, "after")
	if err != nil {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	l := ps.dur.logs[shardIdx]
	first, last := l.Bounds()
	w.Header().Set(cluster.WalFirstHeader, strconv.FormatUint(first, 10))
	w.Header().Set(cluster.WalLastHeader, strconv.FormatUint(last, 10))
	wrote := false
	err = l.ReadAfter(after, 1<<20, func(seq uint64, payload []byte) error {
		if !wrote {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		return cluster.WriteShipFrame(w, seq, payload)
	})
	switch {
	case errors.Is(err, wal.ErrCompacted) && !wrote:
		writeErr(w, http.StatusGone, wire.CodeFailover, "requested WAL frames compacted; re-seed from a snapshot")
	case err != nil && !wrote:
		writeErr(w, http.StatusInternalServerError, wire.CodeInternal, "wal tail: "+err.Error())
	case err != nil:
		// Mid-stream failure after frames went out: the body ends at a
		// clean frame boundary and the tailer refetches from its cursor.
	case !wrote:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK) // nothing pending
	}
}

// dropPlantLocal removes a plant from the registry the abrupt way —
// queued batches dropped, no final snapshot — and deletes its data
// dir. Used by release and re-seed, where the local copy is surplus.
func (s *Server) dropPlantLocal(id string) bool {
	s.mu.Lock()
	ps, ok := s.plants[id]
	if ok {
		delete(s.plants, id)
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	ps.kill()
	if s.opts.DataDir != "" {
		_ = os.RemoveAll(filepath.Join(s.opts.DataDir, plantDirName(id)))
	}
	return true
}

// seedStandby installs a warm copy of a plant from its current owner:
// internal backup with WAL positions, installState like a restore, then
// a tailer from those positions.
func (s *Server) seedStandby(plantID string) error {
	s.cluster.opMu.Lock()
	defer s.cluster.opMu.Unlock()
	if s.closed.Load() {
		return fmt.Errorf("cluster: server is shutting down")
	}
	mem := s.clusterMembership()
	owner, ok := cluster.Owner(mem, plantID)
	if !ok {
		return fmt.Errorf("cluster: plant %q has no owner at epoch %d", plantID, mem.Epoch)
	}
	if owner.ID == s.opts.ClusterNodeID {
		return fmt.Errorf("cluster: node %s owns plant %q; nothing to replicate", owner.ID, plantID)
	}
	s.stopTailer(plantID)
	s.dropPlantLocal(plantID)

	req, err := http.NewRequest("GET", owner.Addr+"/v1/plants/"+url.PathEscape(plantID)+"/backup?positions=1", nil)
	if err != nil {
		return err
	}
	req.Header.Set(cluster.InternalHeader, "1")
	resp, err := s.clusterHC.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: seeding plant %q from %s: %w", plantID, owner.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: seeding plant %q from %s: status %d", plantID, owner.ID, resp.StatusCode)
	}
	// The owner's per-shard fold positions are where tailing starts.
	rev, ps, positions, err := readBackup(nil, resp.Body, s.restoreCap())
	if err != nil {
		return fmt.Errorf("cluster: seeding plant %q from %s: %w", plantID, owner.ID, err)
	}
	if ps.topo.ID != plantID {
		return fmt.Errorf("cluster: owner %s sent plant %q, wanted %q", owner.ID, ps.topo.ID, plantID)
	}
	if err := s.installState(ps, rev); err != nil {
		return fmt.Errorf("cluster: seeding plant %q: %w", plantID, err)
	}
	s.startTailer(plantID, positions)
	return nil
}

// reseedStandby is seedStandby for the tailer's gap path, where there
// is no HTTP response to carry the error.
func (s *Server) reseedStandby(plantID string) {
	if err := s.seedStandby(plantID); err != nil {
		log.Printf("server: cluster: re-seeding standby of plant %s: %v", plantID, err)
	}
}

// walTailer keeps one standby plant warm: it polls every shard log of
// the owner for frames past its cursor and folds them through the
// regular admit path — local WAL, local shard hash, idempotent folds —
// so a promoted standby serves exactly what it replicated.
type walTailer struct {
	s       *Server
	plant   string
	after   []uint64 // applied position per *owner* shard
	corrupt int      // consecutive polls that hit a corrupt frame
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

var (
	errTailerStopped = errors.New("tailer stopped")
	errTailerReseed  = errors.New("tailer gap: re-seed")
	errShipCorrupt   = errors.New("corrupt ship frame")
)

// maxCorruptPolls is how many consecutive corrupt tail responses the
// tailer tolerates before giving up on its cursor and re-seeding from
// a snapshot — a genuinely corrupt owner log would otherwise be
// refetched from the same position forever.
const maxCorruptPolls = 5

func (s *Server) startTailer(plant string, positions []uint64) {
	t := &walTailer{
		s: s, plant: plant,
		after: append([]uint64(nil), positions...),
		stop:  make(chan struct{}), done: make(chan struct{}),
	}
	s.cluster.mu.Lock()
	old := s.cluster.tailers[plant]
	s.cluster.tailers[plant] = t
	s.cluster.mu.Unlock()
	if old != nil {
		old.halt()
	}
	go t.run()
}

func (s *Server) stopTailer(plant string) {
	s.cluster.mu.Lock()
	t := s.cluster.tailers[plant]
	delete(s.cluster.tailers, plant)
	s.cluster.mu.Unlock()
	if t != nil {
		t.halt()
	}
}

func (s *Server) stopAllTailers() {
	s.cluster.mu.Lock()
	ts := s.cluster.tailers
	s.cluster.tailers = make(map[string]*walTailer)
	s.cluster.mu.Unlock()
	for _, t := range ts {
		t.halt()
	}
}

// halt stops the tailer and waits for its loop to exit.
func (t *walTailer) halt() {
	t.once.Do(func() { close(t.stop) })
	<-t.done
}

func (t *walTailer) run() {
	defer close(t.done)
	for {
		select {
		case <-t.stop:
			return
		default:
		}
		progress, err := t.pollOnce()
		switch {
		case errors.Is(err, errTailerStopped):
			return
		case errors.Is(err, errTailerReseed):
			// The owner compacted past our cursor. Re-seed from a fresh
			// snapshot — in a goroutine, because seedStandby halts this
			// tailer and halt waits on our done channel.
			go t.s.reseedStandby(t.plant)
			return
		case errors.Is(err, errShipCorrupt):
			// Not a torn tail: the owner answered a full frame that does
			// not decode. Refetching the same cursor would replay the same
			// bytes, so after a few strikes abandon the cursor entirely.
			t.corrupt++
			log.Printf("server: cluster: tailing plant %s: %v", t.plant, err)
			if t.corrupt >= maxCorruptPolls {
				log.Printf("server: cluster: plant %s: %d consecutive corrupt tail responses; re-seeding from a snapshot", t.plant, t.corrupt)
				go t.s.reseedStandby(t.plant)
				return
			}
		case err != nil:
			log.Printf("server: cluster: tailing plant %s: %v", t.plant, err)
		default:
			t.corrupt = 0
		}
		if !progress || err != nil {
			select {
			case <-t.stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
}

// pollOnce fetches and applies pending frames from every owner shard.
// An unreachable owner is not an error — the node may be dying, and
// promotion arrives via the next membership push.
func (t *walTailer) pollOnce() (bool, error) {
	s := t.s
	mem := s.clusterMembership()
	owner, ok := cluster.Owner(mem, t.plant)
	if !ok {
		return false, nil
	}
	if owner.ID == s.opts.ClusterNodeID {
		return false, errTailerStopped // promoted
	}
	ps, ok := s.plant(t.plant)
	if !ok {
		return false, errTailerStopped // released under us
	}
	progress := false
	for i := range t.after {
		req, err := http.NewRequest("GET",
			owner.Addr+"/v1/plants/"+url.PathEscape(t.plant)+"/wal?shard="+strconv.Itoa(i)+
				"&after="+strconv.FormatUint(t.after[i], 10), nil)
		if err != nil {
			return progress, err
		}
		req.Header.Set(cluster.InternalHeader, "1")
		resp, err := s.clusterHC.Do(req)
		if err != nil {
			return progress, nil // owner unreachable: retry next poll
		}
		if resp.StatusCode == http.StatusGone {
			resp.Body.Close()
			return progress, errTailerReseed
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return progress, fmt.Errorf("owner %s shard %d: status %d", owner.ID, i, resp.StatusCode)
		}
		p, err := t.applyFrames(ps, i, resp.Body)
		resp.Body.Close()
		progress = progress || p
		if err != nil {
			return progress, err
		}
	}
	return progress, nil
}

// applyFrames folds one tail response into the local plant. A torn
// trailing frame is not an error: the cursor only advances past fully
// applied entries, so the refetch resumes exactly there. Any other
// decode failure is surfaced as errShipCorrupt — refetching would
// replay the same bad bytes, so the caller must not retry silently.
func (t *walTailer) applyFrames(ps *plantState, shardIdx int, body io.Reader) (bool, error) {
	progress := false
	for {
		seq, payload, err := cluster.ReadShipFrame(body)
		if err == io.EOF {
			return progress, nil
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return progress, nil // torn trailing frame: refetch from the cursor
		}
		if err != nil {
			return progress, fmt.Errorf("shard %d: %w: %v", shardIdx, errShipCorrupt, err)
		}
		if err := t.apply(ps, payload); err != nil {
			if errors.Is(err, errShipCorrupt) {
				return progress, fmt.Errorf("shard %d seq %d: %w", shardIdx, seq, err)
			}
			return progress, err
		}
		t.after[shardIdx] = seq
		progress = true
	}
}

// apply folds one owner WAL entry through the standby's own admit
// path: a record frame is resolved against the local intern tables,
// re-chunked by the local shard placement (the owner's shard count need
// not match), durably logged locally and idempotently folded; job
// metadata is applied and logged like handleJobs does.
func (t *walTailer) apply(ps *plantState, payload []byte) error {
	f, metas, err := decodeWalEntry(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", errShipCorrupt, err)
	}
	if f != nil {
		var sc resolveScratch
		refs, rejected, _ := ps.resolveFrame(nil, f, &sc)
		ps.rejected.Add(uint64(rejected))
		return t.admitRefs(ps, refs)
	}
	ps.applyJobMetas(metas)
	return ps.appendJobs(metas)
}

// admitRefs pushes resolved refs through the local admit path, waiting
// out backpressure — a standby has no client to bounce a 429 to.
func (t *walTailer) admitRefs(ps *plantState, refs []recordRef) error {
	for idx, chunk := range ps.chunkRefs(refs) {
		if len(chunk) == 0 {
			continue
		}
		for {
			admitted, err := ps.admit(idx, chunk)
			if err != nil {
				return err
			}
			if admitted {
				break
			}
			select {
			case <-t.stop:
				return errTailerStopped
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

// queryUint64 parses an optional uint64 query parameter (missing = 0).
func queryUint64(r *http.Request, key string) (uint64, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q (want a non-negative integer)", key, v)
	}
	return n, nil
}
