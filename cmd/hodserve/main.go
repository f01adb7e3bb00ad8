// Command hodserve runs the fleet serving layer: sharded HTTP
// ingestion of live sensor samples plus incremental hierarchical
// outlier reports (Algorithm 1) for a registered fleet of plants.
//
// Usage:
//
//	hodserve [-addr :8080] [-workers N] [-shards N] [-queue N]
//	         [-alert-threshold Z] [-max-outliers N]
//	         [-data-dir DIR] [-fsync always|interval|none]
//	         [-snapshot-interval 30s]
//	         [-tenants tenants.json] [-request-log] [-pprof ADDR]
//	         [-role node|router] [-node-id ID] [-peers id=url,...]
//
// Cluster mode runs the same binary in two roles. A node
// (-role=node -node-id n1 -data-dir ...) gates plant-scoped requests
// on rendezvous ownership and keeps warm standbys by tailing owner
// WALs. The router (-role=router -peers n1=http://h1:8080,n2=...)
// proxies the entire /v1 surface to each plant's owning node — one
// hop, streaming bodies and push subscriptions included — so the
// typed client works against a cluster unchanged, and serves the
// coordinator API (/v1/cluster/{status,join,drain,fail,rebalance}).
//
// With -data-dir the ingest path is durable: every accepted batch is
// appended to a per-shard CRC-checksummed WAL before it is
// acknowledged (group-committed fsync per -fsync), the serving state
// is snapshotted and the WAL compacted every -snapshot-interval, and a
// restart replays snapshot + WAL tail through the ingest path — so a
// crash mid-trace loses nothing that was acknowledged.
//
// With -tenants the v1 surface runs in authenticated multi-tenant
// mode: the JSON file maps API keys to tenant grants (name, plant
// scope, optional token-bucket rate limit), requests must carry the
// key as a bearer token, and live push subscriptions are scoped to the
// tenant's plants. Without it the server stays open — the back-compat
// default. -request-log prints one line per request through the
// middleware chain.
//
// Register a plant, replay a plantsim trace, query a report — the
// whole loop goes through the typed SDK client (pkg/hod.Client), and
// the raw wire protocol (pkg/hod/wire) stays curl-able:
//
//	hodctl replay -addr http://localhost:8080 -plant p1 -sensors plant-out/sensors.csv -register
//	hodctl report -addr http://localhost:8080 -plant p1 -level phase -top 10
//	curl 'localhost:8080/v1/plants/p1/report?level=phase&top=10'
//
// -pprof starts a second HTTP listener serving net/http/pprof on the
// given address (e.g. -pprof localhost:6060). The profiling surface is
// kept off the main listener on purpose: it is unauthenticated and
// belongs on a loopback or otherwise firewalled port, never behind the
// tenant gateway.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops, then
// every in-flight ingest batch is drained before exit.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/server"
	"repro/pkg/hod/wire"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "report fan-out width (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 4, "ingest pipelines per plant")
	queue := flag.Int("queue", 64, "batches buffered per shard before 429")
	alertThreshold := flag.Float64("alert-threshold", 8, "streaming alert robust-z threshold")
	maxOutliers := flag.Int("max-outliers", 512, "per-machine report cap")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	dataDir := flag.String("data-dir", "", "durability directory (WAL + snapshots); empty = in-memory only")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always|interval|none")
	snapInterval := flag.Duration("snapshot-interval", 30*time.Second, "compacting snapshot cadence")
	tenantsPath := flag.String("tenants", "", "JSON file mapping API keys to tenant grants; empty = open server")
	requestLog := flag.Bool("request-log", false, "log one line per request through the middleware chain")
	role := flag.String("role", "node", "process role: node (serves plants) or router (cluster routing proxy)")
	nodeID := flag.String("node-id", "", "cluster node id; enables ownership gating and warm standbys on a node")
	peers := flag.String("peers", "", "router peer list as id=url[,id=url...]; required with -role=router")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); empty = off")
	flag.Parse()

	if *pprofAddr != "" {
		stopPprof, err := startPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hodserve:", err)
			os.Exit(1)
		}
		defer stopPprof()
	}

	switch *role {
	case "node":
		if *peers != "" {
			fmt.Fprintln(os.Stderr, "hodserve: -peers only applies to -role=router")
			os.Exit(1)
		}
	case "router":
		if *nodeID != "" || *dataDir != "" || *tenantsPath != "" {
			fmt.Fprintln(os.Stderr, "hodserve: -role=router takes no -node-id, -data-dir or -tenants (the router holds no plants and fronts an unauthenticated internal network)")
			os.Exit(1)
		}
		nodes, err := parsePeers(*peers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hodserve:", err)
			os.Exit(1)
		}
		if err := runRouter(*addr, nodes, *drainTimeout); err != nil {
			fmt.Fprintln(os.Stderr, "hodserve:", err)
			os.Exit(1)
		}
		return
	default:
		fmt.Fprintf(os.Stderr, "hodserve: unknown -role %q (want node or router)\n", *role)
		os.Exit(1)
	}

	opts := server.Options{
		Workers: *workers, Shards: *shards, QueueDepth: *queue,
		AlertThreshold: *alertThreshold, MaxOutliers: *maxOutliers,
		DataDir: *dataDir, Fsync: *fsync, SnapshotInterval: *snapInterval,
		ClusterNodeID: *nodeID,
	}
	if *tenantsPath != "" {
		tenants, err := loadTenants(*tenantsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hodserve:", err)
			os.Exit(1)
		}
		opts.Tenants = tenants
	}
	if *requestLog {
		opts.RequestLog = func(format string, args ...any) {
			fmt.Printf("hodserve: "+format+"\n", args...)
		}
	}
	if err := run(*addr, opts, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "hodserve:", err)
		os.Exit(1)
	}
}

// loadTenants reads the -tenants file: {"api-key": {"name": "acme",
// "plants": ["p1"], "rate_per_sec": 50, "burst": 100}, ...}. Unknown
// fields are errors, so a typo cannot silently widen a grant.
func loadTenants(path string) (map[string]gateway.Tenant, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tenants map[string]gateway.Tenant
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tenants); err != nil {
		return nil, fmt.Errorf("tenants %s: %w", path, err)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("tenants %s: no API keys defined", path)
	}
	for key, t := range tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("tenants %s: key %q has no tenant name", path, key)
		}
	}
	return tenants, nil
}

// startPprof serves the net/http/pprof surface on its own listener so
// profiling never shares a port with the (possibly tenant-gated) v1
// API. An explicit mux is used instead of the package's DefaultServeMux
// side effects: only the /debug/pprof/ endpoints exist on this port.
func startPprof(addr string) (stop func(), err error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	srv := gateway.NewHTTPServer("", mux)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "hodserve: pprof:", err)
		}
	}()
	fmt.Printf("hodserve: pprof listening on %s\n", ln.Addr())
	return func() { srv.Close() }, nil
}

// parsePeers parses the -peers list: "n1=http://h1:8080,n2=http://h2:8080".
func parsePeers(s string) ([]wire.ClusterNode, error) {
	if s == "" {
		return nil, fmt.Errorf("-role=router needs -peers (id=url[,id=url...])")
	}
	var nodes []wire.ClusterNode
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q: want id=url", part)
		}
		nodes = append(nodes, wire.ClusterNode{ID: id, Addr: strings.TrimSuffix(addr, "/")})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-peers names no nodes")
	}
	return nodes, nil
}

// runRouter serves the cluster routing proxy: membership push to the
// peers, plant discovery, then the full /v1 surface proxied to owners.
func runRouter(addr string, peers []wire.ClusterNode, drainTimeout time.Duration) error {
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Peers: peers,
		Log: func(format string, args ...any) {
			fmt.Printf("hodserve: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	if err := rt.Bootstrap(); err != nil {
		return fmt.Errorf("bootstrapping cluster: %w", err)
	}
	httpSrv := gateway.NewHTTPServer(addr, rt.Handler())

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("hodserve: router listening on %s (%d peers)\n", addr, len(peers))
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("hodserve: %s, draining\n", sig)
	}
	rt.Close() // ends routed push streams; Shutdown waits only on requests
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Println("hodserve: router drained, bye")
	return nil
}

func run(addr string, opts server.Options, drainTimeout time.Duration) error {
	srv := server.New(opts)
	if err := srv.Open(); err != nil {
		return fmt.Errorf("recovering %s: %w", opts.DataDir, err)
	}
	httpSrv := srv.HTTPServer(addr) // its Shutdown ends push streams at once

	errc := make(chan error, 1)
	go func() {
		durable := "off"
		if opts.DataDir != "" {
			durable = fmt.Sprintf("%s (fsync=%s)", opts.DataDir, opts.Fsync)
		}
		fmt.Printf("hodserve: listening on %s (shards=%d queue=%d workers=%d durability=%s)\n",
			addr, opts.Shards, opts.QueueDepth, opts.Workers, durable)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("hodserve: %s, draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	srv.Close() // drain shard queues
	fmt.Println("hodserve: drained, bye")
	return nil
}
