package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// Runner executes scenarios. The zero value is usable; set DataDir to
// control where durable scenarios keep their WAL (default: a fresh
// temp dir per run, removed afterwards).
type Runner struct {
	// DataDir roots the per-scenario data dirs of durable runs. Empty
	// means os.MkdirTemp.
	DataDir string
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log(format, args...)
	}
}

// sendAttempts bounds the runner's outer retry loop around one batch:
// injected 5xx and resets surface as errors the typed client does not
// retry, so the runner re-sends — like any production ingest loop
// would — until the schedule's armed faults are consumed.
const sendAttempts = 64

// plantTrace is one plant's prepared replay: the simulated topology,
// the post-transform record stream cut into batches, and the job
// metadata that ships after the samples.
type plantTrace struct {
	spec  PlantSpec
	topo  wire.Topology
	batch [][]wire.Record
	jobs  []wire.JobMeta
	// order is the send-schedule permutation (reorder faults applied).
	order []int
	// events maps a batch offset (position in order) to its scheduled
	// faults.
	events map[int][]Failure
}

// ackedBatch is one acknowledged send — the unit the oracle replays.
type ackedBatch struct {
	plant    string
	records  []wire.Record
	admitted int
}

// Run executes one scenario end to end and reports every invariant
// check. A non-nil error means the scenario could not be executed at
// all (bad config, no free port); injection findings land in
// Result.Checks instead.
func (r *Runner) Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	start := time.Now()

	res := &Result{Name: cfg.Name, Seed: cfg.Seed, Injected: map[string]uint64{}}
	traces, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	for _, tr := range traces {
		res.Batches += len(tr.batch)
	}

	dataDir := ""
	if cfg.Durable {
		dataDir = r.DataDir
		if dataDir == "" {
			tmp, err := os.MkdirTemp("", "hod-scenario-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(tmp)
			dataDir = tmp
		}
		dataDir = filepath.Join(dataDir, cfg.Name)
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
	}

	h, err := newHarness(cfg, dataDir)
	if err != nil {
		return nil, err
	}
	defer h.shutdown()
	if cfg.Subscribe {
		// Attach the live subscriber before the first register: the
		// wildcard channel picks plants up as they appear.
		if err := h.startWatch(ctx); err != nil {
			return nil, fmt.Errorf("scenario %s: subscribe: %w", cfg.Name, err)
		}
	}

	drainTimeout := time.Duration(cfg.DrainTimeoutMS) * time.Millisecond
	acked, admittedByPlant, err := r.replay(ctx, cfg, h, traces, res)
	res.ClientRetried = h.clientRetried()
	res.ListenerDrops = h.listenerDrops()
	if err != nil {
		return nil, err
	}

	// Drain the victim: every acknowledged record must fold, bounded by
	// the scenario's drain deadline (a hang here IS a finding). The
	// per-plant targets come from the replay: normally the summed acks,
	// re-based on the promoted standby's counter after a node_kill
	// (records acked by the dead node and not yet shipped are the ones
	// the re-sent stream restores).
	for _, tr := range traces {
		id := tr.spec.ID
		dctx, cancel := context.WithTimeout(ctx, drainTimeout)
		err := h.client.WaitDrained(dctx, id, admittedByPlant[id])
		cancel()
		res.check("drain_terminates/"+id, err == nil, errString(err))
		if errors.Is(err, hod.ErrDrainTimeout) {
			// No point byte-comparing a wedged server.
			res.finish(start)
			return res, nil
		}
	}

	// Build the oracle: a fresh in-memory server fed the exact
	// acknowledged stream, in ack order, then byte-compare every
	// serving surface.
	r.verify(ctx, cfg, h, traces, acked, drainTimeout, res)
	r.verifyPush(ctx, h, traces, drainTimeout, res)
	res.finish(start)
	return res, nil
}

// prepare simulates every plant, applies the trace transforms, cuts
// batches, applies reorder faults, and indexes the send-schedule
// events.
func prepare(cfg Config) ([]*plantTrace, error) {
	defaultPlant := cfg.Plants[0].ID
	traces := make([]*plantTrace, 0, len(cfg.Plants))
	for pi, spec := range cfg.Plants {
		// Seed offset keeps multi-plant scenarios from replaying the
		// same trace into every plant.
		sim, err := hod.Simulate(hod.SimConfig{
			Seed:            cfg.Seed + int64(pi),
			Lines:           spec.Lines,
			MachinesPerLine: spec.MachinesPerLine,
			JobsPerMachine:  spec.JobsPerMachine,
			PhaseSamples:    spec.PhaseSamples,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: simulate %s: %w", cfg.Name, spec.ID, err)
		}
		recs := append(sim.Records(), sim.EnvRecords()...)
		recs = transform(recs, spec.ID, defaultPlant, cfg.Failures)
		tr := &plantTrace{
			spec:   spec,
			topo:   sim.Topology(spec.ID),
			batch:  chunk(recs, cfg.BatchRecords),
			jobs:   sim.JobMetas(),
			events: map[int][]Failure{},
		}
		tr.order = make([]int, len(tr.batch))
		for i := range tr.order {
			tr.order[i] = i
		}
		for _, f := range cfg.Failures {
			if target(f, defaultPlant) != spec.ID {
				continue
			}
			switch f.Kind {
			case KindDropout, KindClockSkew:
				// trace transforms, already applied
			case KindReorder:
				if f.At+1 < len(tr.order) {
					tr.order[f.At], tr.order[f.At+1] = tr.order[f.At+1], tr.order[f.At]
				}
			default:
				at := f.At
				if at >= len(tr.batch) && len(tr.batch) > 0 {
					at = len(tr.batch) - 1
				}
				tr.events[at] = append(tr.events[at], f)
			}
		}
		traces = append(traces, tr)
	}
	return traces, nil
}

func target(f Failure, defaultPlant string) string {
	if f.Plant != "" {
		return f.Plant
	}
	return defaultPlant
}

// transform applies dropout and clock-skew windows to one plant's
// record stream.
func transform(recs []wire.Record, plantID, defaultPlant string, failures []Failure) []wire.Record {
	windows := make([]Failure, 0, 2)
	for _, f := range failures {
		if (f.Kind == KindDropout || f.Kind == KindClockSkew) && target(f, defaultPlant) == plantID {
			windows = append(windows, f)
		}
	}
	if len(windows) == 0 {
		return recs
	}
	out := recs[:0]
	for _, rec := range recs {
		keep := true
		for _, w := range windows {
			if !matchWindow(rec, w) {
				continue
			}
			if w.Kind == KindDropout {
				keep = false
				break
			}
			rec.T += w.Skew
		}
		if keep {
			out = append(out, rec)
		}
	}
	return out
}

func matchWindow(rec wire.Record, w Failure) bool {
	if w.Machine != "" && rec.Machine != w.Machine {
		return false
	}
	if w.Machine == "" && !rec.Env {
		return false
	}
	if w.Sensor != "" && rec.Sensor != w.Sensor {
		return false
	}
	if rec.T < w.From {
		return false
	}
	if w.To > 0 && rec.T >= w.To {
		return false
	}
	return true
}

func chunk(recs []wire.Record, n int) [][]wire.Record {
	var out [][]wire.Record
	for lo := 0; lo < len(recs); lo += n {
		hi := lo + n
		if hi > len(recs) {
			hi = len(recs)
		}
		out = append(out, recs[lo:hi])
	}
	return out
}

// replay drives every plant's batch schedule through the harness,
// firing scheduled faults at their batch offsets, and returns the
// acknowledged stream in ack order — the oracle's input — plus the
// per-plant drain targets.
func (r *Runner) replay(ctx context.Context, cfg Config, h *harness, traces []*plantTrace, res *Result) ([]ackedBatch, map[string]uint64, error) {
	var acked []ackedBatch
	admitted := map[string]uint64{}
	registered := map[string]bool{}
	jobsSent := map[string][]wire.JobMeta{}

	send := func(plantID string, recs []wire.Record) error {
		var lastErr error
		for attempt := 0; attempt < sendAttempts; attempt++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			// h.client is read at call time: restarts swap the client
			// for one pointed at the new generation's port.
			ack, err := h.client.Ingest(ctx, plantID, recs)
			if err == nil {
				acked = append(acked, ackedBatch{plant: plantID, records: recs, admitted: ack.Records})
				admitted[plantID] += uint64(ack.Records)
				return nil
			}
			lastErr = err
			res.RunnerRetries++
		}
		return fmt.Errorf("scenario %s: batch on %s undeliverable after %d attempts: %w",
			cfg.Name, plantID, sendAttempts, lastErr)
	}

	// resendAcked is the client's failover story: after a node death the
	// promoted standby holds the replicated prefix, so the at-least-once
	// client re-sends the whole acked stream and the idempotent folds
	// restore exactly the lost suffix. Drain targets re-base on what the
	// survivors actually hold before the re-send tops them up.
	resendAcked := func() error {
		for _, tr := range traces {
			if !registered[tr.spec.ID] {
				continue
			}
			st, err := h.client.Stats(ctx, tr.spec.ID)
			if err != nil {
				return fmt.Errorf("scenario %s: stats of %s after failover: %w", cfg.Name, tr.spec.ID, err)
			}
			admitted[tr.spec.ID] = st.ReceivedRecords
		}
		snap := append([]ackedBatch(nil), acked...)
		r.logf("scenario %s: re-sending %d acked batches after failover", cfg.Name, len(snap))
		for _, ab := range snap {
			if err := send(ab.plant, ab.records); err != nil {
				return err
			}
		}
		for id, jobs := range jobsSent {
			if _, err := h.client.Jobs(ctx, id, jobs); err != nil {
				return fmt.Errorf("scenario %s: re-sending jobs of %s: %w", cfg.Name, id, err)
			}
		}
		return nil
	}

	for _, tr := range traces {
		id := tr.spec.ID
		if _, err := h.client.Register(ctx, tr.topo); err != nil {
			return nil, nil, fmt.Errorf("scenario %s: register %s: %w", cfg.Name, id, err)
		}
		registered[id] = true
		for pos, bi := range tr.order {
			for _, f := range tr.events[pos] {
				if err := r.fire(ctx, cfg, h, f, res, resendAcked); err != nil {
					return nil, nil, err
				}
			}
			if err := send(id, tr.batch[bi]); err != nil {
				return nil, nil, err
			}
			for _, f := range tr.events[pos] {
				n := f.Count
				if n <= 0 {
					n = 1
				}
				switch f.Kind {
				case KindDuplicate:
					for i := 0; i < n; i++ {
						if err := send(id, tr.batch[bi]); err != nil {
							return nil, nil, err
						}
					}
					res.Injected[KindDuplicate] += uint64(n)
				case KindResend:
					// Reverse order: the idempotent store must not care.
					lo := pos - n
					if lo < 0 {
						lo = 0
					}
					for p := pos - 1; p >= lo; p-- {
						if err := send(id, tr.batch[tr.order[p]]); err != nil {
							return nil, nil, err
						}
						res.Injected[KindResend]++
					}
				}
			}
		}
		if len(tr.jobs) > 0 {
			if _, err := h.client.Jobs(ctx, id, tr.jobs); err != nil {
				return nil, nil, fmt.Errorf("scenario %s: jobs %s: %w", cfg.Name, id, err)
			}
			jobsSent[id] = tr.jobs
		}
	}
	return acked, admitted, nil
}

// fire executes one pre-batch fault. resendAcked replays the acked
// stream after a failover (node_kill re-bases the drain targets and
// re-sends everything, like a production client would).
func (r *Runner) fire(ctx context.Context, cfg Config, h *harness, f Failure, res *Result, resendAcked func() error) error {
	n := f.Count
	if n <= 0 {
		n = 1
	}
	switch f.Kind {
	case KindNodeKill:
		plantID := target(f, firstPlant(cfg))
		owner, standby, err := h.placementOf(ctx, plantID)
		if err != nil {
			return fmt.Errorf("scenario %s: node_kill: %w", cfg.Name, err)
		}
		if standby == "" {
			return fmt.Errorf("scenario %s: node_kill: plant %s has no standby to promote", cfg.Name, plantID)
		}
		// The standby seeds asynchronously after register; killing the
		// owner before the copy exists would be a different scenario.
		if err := h.waitStandbyHolds(ctx, standby, plantID, 10*time.Second); err != nil {
			return fmt.Errorf("scenario %s: node_kill: %w", cfg.Name, err)
		}
		r.logf("scenario %s: node_kill: killing %s (owner of %s), promoting %s", cfg.Name, owner, plantID, standby)
		if !h.killNode(owner) {
			return fmt.Errorf("scenario %s: node_kill: node %s is already down", cfg.Name, owner)
		}
		if _, err := h.client.ClusterFail(ctx, owner); err != nil {
			return fmt.Errorf("scenario %s: node_kill: declaring %s failed: %w", cfg.Name, owner, err)
		}
		res.Injected[KindNodeKill]++
		if err := resendAcked(); err != nil {
			return err
		}
	case KindRouterPartition:
		plantID := target(f, firstPlant(cfg))
		owner, _, err := h.placementOf(ctx, plantID)
		if err != nil {
			return fmt.Errorf("scenario %s: router_partition: %w", cfg.Name, err)
		}
		h.router.PartitionNext(owner, n)
		res.Injected[KindRouterPartition] += uint64(n)
	case KindCorruptFrame:
		plantID := target(f, firstPlant(cfg))
		for i := 0; i < n; i++ {
			_, err := h.client.IngestBody(ctx, plantID, wire.ContentTypeBinary, corruptFrameBody())
			rejected := errors.Is(err, hod.ErrBadFrame)
			res.check(fmt.Sprintf("corrupt_frame_rejected/%s/at_%d_%d", plantID, f.At, i),
				rejected, fmt.Sprintf("want ErrBadFrame, got %v", err))
			res.Injected[KindCorruptFrame]++
		}
	case KindStorm429:
		faults := make([]hod.Fault, n)
		for i := range faults {
			faults[i] = hod.Fault{Status: http.StatusTooManyRequests}
		}
		h.injector.InjectNext(faults...)
		res.Injected[KindStorm429] += uint64(n)
	case KindStorm5xx:
		faults := make([]hod.Fault, n)
		for i := range faults {
			faults[i] = hod.Fault{Status: http.StatusInternalServerError}
		}
		h.injector.InjectNext(faults...)
		res.Injected[KindStorm5xx] += uint64(n)
	case KindConnReset:
		faults := make([]hod.Fault, n)
		for i := range faults {
			faults[i] = hod.Fault{}
		}
		h.injector.InjectNext(faults...)
		res.Injected[KindConnReset] += uint64(n)
	case KindListenerReset:
		// Force the next sends onto fresh connections so the armed
		// accept-drops fire deterministically.
		h.transport.CloseIdleConnections()
		h.listener.DropNext(n)
		res.Injected[KindListenerReset] += uint64(n)
	case KindSlowConsumer:
		if h.watch != nil {
			h.watch.pause()
			res.Injected[KindSlowConsumer]++
		}
	case KindPushDisconnect:
		if h.watch != nil {
			h.watch.drop()
			res.Injected[KindPushDisconnect]++
		}
	case KindKill, KindCorruptWALTail:
		pre, err := h.client.Stats(ctx, firstPlant(cfg))
		preSeen := err == nil
		r.logf("scenario %s: %s (restart %d)", cfg.Name, f.Kind, res.Restarts+1)
		h.kill()
		if f.Kind == KindCorruptWALTail {
			if err := corruptWALTails(h.dataDir); err != nil {
				return fmt.Errorf("scenario %s: corrupting WAL tails: %w", cfg.Name, err)
			}
			res.Injected[KindCorruptWALTail]++
		} else {
			res.Injected[KindKill]++
		}
		if err := h.restart(); err != nil {
			res.check("recovery_opens", false, err.Error())
			return fmt.Errorf("scenario %s: restart after %s: %w", cfg.Name, f.Kind, err)
		}
		res.Restarts++
		if preSeen {
			post, err := h.client.Stats(ctx, firstPlant(cfg))
			ok := err == nil && post.ReceivedRecords >= pre.ReceivedRecords
			res.check(fmt.Sprintf("received_monotonic/restart_%d", res.Restarts), ok,
				fmt.Sprintf("pre-kill %d, post-recovery %d (err=%v)", pre.ReceivedRecords, postReceived(post, err), err))
		}
	}
	return nil
}

func postReceived(st wire.StatsResponse, err error) uint64 {
	if err != nil {
		return 0
	}
	return st.ReceivedRecords
}

func firstPlant(cfg Config) string { return cfg.Plants[0].ID }

// corruptFrameBody is a deterministic structurally invalid binary
// frame: a plausible length prefix over a payload with the wrong
// magic. The server must reject it whole with 400 + bad_frame.
func corruptFrameBody() []byte {
	return []byte{16, 0, 0, 0, 'H', 'O', 'D', 'X', 1, 0, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0}
}

// corruptWALTails appends a torn frame — a header claiming an absurd
// length followed by garbage — to the newest segment of every shard
// WAL under dataDir. Recovery must truncate exactly this and keep
// every acked frame before it.
func corruptWALTails(dataDir string) error {
	segs, err := filepath.Glob(filepath.Join(dataDir, "*", "wal-shard-*", "seg-*.wal"))
	if err != nil {
		return err
	}
	newest := map[string]string{}
	for _, seg := range segs {
		dir := filepath.Dir(seg)
		if seg > newest[dir] {
			newest[dir] = seg
		}
	}
	if len(newest) == 0 {
		return fmt.Errorf("no WAL segments under %s", dataDir)
	}
	dirs := make([]string, 0, len(newest))
	for d := range newest {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		f, err := os.OpenFile(newest[d], os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		// 4-byte length claiming ~4 GiB, then a ragged half frame.
		if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xef, 0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// harness owns the server under test, its fault listener, and the
// fault-injecting client. restart() tears the server down hard and
// brings a new generation up from the same data dir, keeping the
// injector and its counters. With cfg.Nodes > 1 the harness runs a
// cluster instead: N nodes behind a routing proxy, the client pointed
// at the router.
type harness struct {
	cfg     Config
	dataDir string

	srv      *server.Server
	stopHTTP func()
	listener *server.FaultListener

	// Cluster mode (cfg.Nodes > 1). The single-server fields above stay
	// nil; node deaths go through killNode, not kill/restart.
	nodes      []*clusterNode
	router     *cluster.Router
	routerStop func()

	injector  *hod.FaultInjector
	transport *http.Transport
	client    *hod.Client
	baseURL   string
	watch     *pushWatcher

	// Accumulated across killed generations (client and listener are
	// recreated per restart).
	retriedAccum uint64
	dropsAccum   uint64
}

// clusterNode is one hodserve of a cluster harness.
type clusterNode struct {
	id   string
	addr string
	srv  *server.Server
	stop func()
	down bool
}

// clientRetried totals the client's automatic 429 retries across every
// server generation of the run.
func (h *harness) clientRetried() uint64 { return h.retriedAccum + h.client.Retried() }

// listenerDrops totals the accept-then-RST drops across generations.
func (h *harness) listenerDrops() uint64 {
	if h.listener == nil {
		return h.dropsAccum
	}
	return h.dropsAccum + h.listener.Dropped()
}

func serverOptions(cfg Config, dataDir string) server.Options {
	opts := server.Options{
		Shards:     cfg.Shards,
		QueueDepth: cfg.QueueDepth,
		DataDir:    dataDir,
		Fsync:      cfg.Fsync,
	}
	opts.AlertThreshold = cfg.AlertThreshold
	if cfg.SnapshotIntervalMS > 0 {
		opts.SnapshotInterval = time.Duration(cfg.SnapshotIntervalMS) * time.Millisecond
	} else {
		opts.SnapshotInterval = time.Hour // scheduled restarts stay deterministic
	}
	return opts
}

func newHarness(cfg Config, dataDir string) (*harness, error) {
	transport := &http.Transport{}
	h := &harness{
		cfg:       cfg,
		dataDir:   dataDir,
		transport: transport,
		injector:  hod.NewFaultInjector(transport),
	}
	if err := h.start(); err != nil {
		return nil, err
	}
	return h, nil
}

// start boots one server generation: Open (recovery), fault-wrapped
// listener, fresh client pointed at the new port. Cluster configs boot
// the whole topology instead.
func (h *harness) start() error {
	if h.cfg.Nodes > 1 {
		return h.startCluster()
	}
	srv := server.New(serverOptions(h.cfg, h.dataDir))
	if err := srv.Open(); err != nil {
		srv.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	h.listener = server.NewFaultListener(ln)
	h.stopHTTP = srv.ServeListener(h.listener)
	h.srv = srv
	h.baseURL = "http://" + ln.Addr().String()
	h.client = hod.NewClient(h.baseURL,
		hod.WithHTTPClient(&http.Client{Transport: h.injector, Timeout: 30 * time.Second}))
	return nil
}

// startCluster boots cfg.Nodes cluster nodes (each with its own data
// dir and -node-id) behind a fresh router, and points the
// fault-injecting client at the router — the same seat a production
// client would take.
func (h *harness) startCluster() error {
	peers := make([]wire.ClusterNode, 0, h.cfg.Nodes)
	for i := 0; i < h.cfg.Nodes; i++ {
		id := fmt.Sprintf("n%d", i+1)
		dir := filepath.Join(h.dataDir, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		opts := serverOptions(h.cfg, dir)
		opts.ClusterNodeID = id
		srv := server.New(opts)
		if err := srv.Open(); err != nil {
			srv.Close()
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return err
		}
		node := &clusterNode{id: id, addr: "http://" + ln.Addr().String(), srv: srv, stop: srv.ServeListener(ln)}
		h.nodes = append(h.nodes, node)
		peers = append(peers, wire.ClusterNode{ID: id, Addr: node.addr})
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{Peers: peers})
	if err != nil {
		return err
	}
	if err := rt.Bootstrap(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.router = rt
	h.routerStop = rt.ServeListener(ln)
	h.baseURL = "http://" + ln.Addr().String()
	h.client = hod.NewClient(h.baseURL,
		hod.WithHTTPClient(&http.Client{Transport: h.injector, Timeout: 30 * time.Second}))
	return nil
}

// killNode hard-stops one cluster node the way a machine death would:
// listener gone, queues dropped, no snapshot, no drain — and no
// restart. Reports false if the node is unknown or already down.
func (h *harness) killNode(id string) bool {
	for _, n := range h.nodes {
		if n.id == id && !n.down {
			n.stop()
			n.srv.Kill()
			n.down = true
			return true
		}
	}
	return false
}

// placementOf asks the router where a plant lives right now.
func (h *harness) placementOf(ctx context.Context, plantID string) (owner, standby string, err error) {
	st, err := h.client.ClusterStatus(ctx)
	if err != nil {
		return "", "", fmt.Errorf("cluster status: %w", err)
	}
	for _, p := range st.Placements {
		if p.Plant == plantID {
			return p.Owner, p.Standby, nil
		}
	}
	return "", "", fmt.Errorf("plant %q has no placement at epoch %d", plantID, st.Epoch)
}

// waitStandbyHolds polls a node's plant list until it holds a copy of
// the plant — the replicate call register triggers is asynchronous.
func (h *harness) waitStandbyHolds(ctx context.Context, nodeID, plantID string, timeout time.Duration) error {
	var node *clusterNode
	for _, n := range h.nodes {
		if n.id == nodeID {
			node = n
		}
	}
	if node == nil {
		return fmt.Errorf("unknown standby node %q", nodeID)
	}
	httpc := newQueryClient()
	deadline := time.Now().Add(timeout)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := httpc.Get(node.addr + "/v1/plants")
		if err == nil {
			var pl wire.PlantList
			derr := json.NewDecoder(resp.Body).Decode(&pl)
			resp.Body.Close()
			if derr == nil {
				for _, id := range pl.Plants {
					if id == plantID {
						return nil
					}
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby %s never received a copy of plant %s", nodeID, plantID)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// kill hard-stops the current generation: listener gone, queues
// dropped, no snapshot, no drain.
func (h *harness) kill() {
	h.stopHTTP()
	h.transport.CloseIdleConnections()
	h.srv.Kill()
	h.retriedAccum += h.client.Retried()
	h.dropsAccum += h.listener.Dropped()
}

func (h *harness) restart() error { return h.start() }

// shutdown gracefully closes the final generation.
func (h *harness) shutdown() {
	if h.watch != nil {
		h.watch.close()
	}
	if h.routerStop != nil {
		h.routerStop()
	}
	for _, n := range h.nodes {
		if !n.down {
			n.stop()
		}
		n.srv.Close() // no-op for killed nodes
	}
	if h.stopHTTP != nil {
		h.stopHTTP()
	}
	if h.srv != nil {
		h.srv.Close()
	}
	h.transport.CloseIdleConnections()
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
