package main

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/pkg/hod"
)

// sut is the system under test: an in-process server behind a real
// loopback listener. Every workload runs it with the same two shards
// and queue depth; only durability differs.
type sut struct {
	opts server.Options
	tr   *tracer
	srv  *server.Server
	hs   *http.Server
	base string
}

// serverOptions are the fixed options of every workload. dataDir ""
// means in-memory; otherwise the production default fsync=always with
// the periodic snapshot pushed out of the run, so the only snapshot is
// the one Close writes.
func serverOptions(dataDir string) server.Options {
	opts := server.Options{Shards: 2, QueueDepth: 64}
	if dataDir != "" {
		opts.DataDir, opts.Fsync, opts.SnapshotInterval = dataDir, "always", time.Hour
	}
	return opts
}

// startSUT builds a server from opts, recovers whatever its data dir
// holds, and serves it on a fresh loopback port.
func startSUT(opts server.Options, tr *tracer) (*sut, error) {
	s := &sut{opts: opts, tr: tr, srv: server.New(opts)}
	if err := s.srv.Open(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.handler()}
	go func() { _ = s.hs.Serve(ln) }() // returns when stop closes the listener
	return s, nil
}

// stop closes the listener and the server: Kill abandons it the way a
// crash would, Close drains it and writes the final snapshot.
func (s *sut) stop(kill bool) {
	_ = s.hs.Close()
	if kill {
		s.srv.Kill()
	} else {
		s.srv.Close()
	}
}

// opHeader carries "<op id>:<client span index>" from the client
// transport to the handler wrapper, joining the two spans of one
// request without touching the program under test.
const opHeader = "X-Bench-Op"

// handler is the server's handler tree, wrapped in a server.handler
// span when the run is traced. The ResponseWriter is passed through
// untouched, so WebSocket hijacking keeps working.
func (s *sut) handler() http.Handler {
	h := s.srv.Handler()
	if s.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := parseOpHeader(r.Header.Get(opHeader))
		if !ok {
			h.ServeHTTP(w, r) // subscriptions and set-up traffic carry no op
			return
		}
		idx := s.tr.begin("server.handler."+routeOf(r.URL.Path), op, parent)
		h.ServeHTTP(w, r)
		s.tr.end(idx)
	})
}

func parseOpHeader(v string) (op uint64, parent int32, ok bool) {
	a, b, found := strings.Cut(v, ":")
	if !found {
		return 0, 0, false
	}
	op, err1 := strconv.ParseUint(a, 10, 64)
	p, err2 := strconv.ParseInt(b, 10, 32)
	return op, int32(p), err1 == nil && err2 == nil
}

// routeOf names the v1 route of a plant-scoped path by its last
// segment: ingest, cube, report, rollup, stats, ...
func routeOf(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}

type opKey struct{}

type opRef struct {
	op   uint64
	span int32
}

// opTransport stamps requests whose context carries an operation with
// the op header.
type opTransport struct{ base http.RoundTripper }

func (t opTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(opKey{}).(opRef); ok {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.FormatUint(ref.op, 10)+":"+strconv.Itoa(int(ref.span)))
	}
	return t.base.RoundTrip(req)
}

// newClient returns an SDK client with a connection pool of its own,
// so each load-generator goroutine keeps exactly one connection.
func (s *sut) newClient(opts ...hod.ClientOption) *hod.Client {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = tp
	if s.tr != nil {
		rt = opTransport{tp}
	}
	hc := &http.Client{Timeout: 60 * time.Second, Transport: rt}
	return hod.NewClient(s.base, append([]hod.ClientOption{hod.WithHTTPClient(hc)}, opts...)...)
}

// startOp opens the root span of one client operation and returns a
// context that makes the client transport send its op id along, so the
// handler wrapper can hang its span underneath.
func (t *tracer) startOp(ctx context.Context, name string) (context.Context, opRef) {
	if t == nil {
		return ctx, opRef{span: -1}
	}
	ref := opRef{op: t.nextOp()}
	ref.span = t.begin(name, ref.op, -1)
	return context.WithValue(ctx, opKey{}, ref), ref
}

// tracedCall runs one SDK call as one client operation.
func tracedCall[T any](t *tracer, ctx context.Context, name string, call func(context.Context) (T, error)) (T, error) {
	ctx, ref := t.startOp(ctx, name)
	v, err := call(ctx)
	t.end(ref.span)
	return v, err
}
