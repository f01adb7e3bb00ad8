package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/pkg/hod/wire"
)

// Middleware wraps an http.Handler. The chain is applied per route,
// after the mux has matched — so r.PathValue is populated and the
// tenant-scope check can read the {id} segment directly.
type Middleware func(http.Handler) http.Handler

// Chain composes middlewares outermost-first:
// Chain(a, b, c)(h) serves a(b(c(h))).
func Chain(mws ...Middleware) Middleware {
	return func(h http.Handler) http.Handler {
		for i := len(mws) - 1; i >= 0; i-- {
			h = mws[i](h)
		}
		return h
	}
}

// Timeouts of every listener the serving layer opens. A client gets
// readHeaderTimeout to send its request headers, and a keep-alive
// connection idle for idleTimeout is closed. ReadTimeout and
// WriteTimeout stay zero on purpose: /v1/events streams and streamed
// ingest bodies are long-lived. The event stream bounds each of its
// writes itself.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer is the one constructor of the serving layer's
// http.Servers — Server.HTTPServer (behind ServeListener and hodserve's
// node), Router.ServeListener and hodserve's router and pprof
// listeners — so every one of them carries the timeouts above.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// WriteError emits the v1 error envelope
// {"error":{"code":"...","message":"..."}} — the one encoding the
// middleware chain and the server handlers share.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wire.ErrorEnvelope{Err: wire.ErrorBody{Code: code, Message: msg}})
}

// Tenant is one API-key principal: a display name, the plants it may
// touch (empty = every plant, an operator key), and its token-bucket
// rate limit (RatePerSec 0 = unlimited).
type Tenant struct {
	Name       string   `json:"name"`
	Plants     []string `json:"plants,omitempty"`
	RatePerSec float64  `json:"rate_per_sec,omitempty"`
	Burst      int      `json:"burst,omitempty"`
}

// Auth maps API keys to tenants. A nil or empty Auth disables
// authentication entirely (the back-compat default): every middleware
// built from it passes requests through untouched.
type Auth struct {
	byKey map[string]*Grant
}

// NewAuth indexes the key → tenant table. Tenant plant lists become
// sets; each tenant gets one token bucket shared by all its requests.
func NewAuth(keys map[string]Tenant) *Auth {
	if len(keys) == 0 {
		return nil
	}
	a := &Auth{byKey: make(map[string]*Grant, len(keys))}
	for key, t := range keys {
		g := &Grant{Tenant: t}
		if len(t.Plants) > 0 {
			g.plants = make(map[string]bool, len(t.Plants))
			for _, p := range t.Plants {
				g.plants[p] = true
			}
		}
		if t.RatePerSec > 0 {
			burst := t.Burst
			if burst <= 0 {
				burst = int(t.RatePerSec) + 1
			}
			g.bucket = &bucket{rate: t.RatePerSec, cap: float64(burst), tokens: float64(burst)}
		}
		a.byKey[key] = g
	}
	return a
}

// Enabled reports whether any key is configured.
func (a *Auth) Enabled() bool { return a != nil && len(a.byKey) > 0 }

// lookup resolves an API key.
func (a *Auth) lookup(key string) (*Grant, bool) {
	if a == nil {
		return nil, false
	}
	g, ok := a.byKey[key]
	return g, ok
}

// Grant is an authenticated tenant attached to a request context.
type Grant struct {
	Tenant Tenant
	plants map[string]bool
	bucket *bucket
}

// Allows reports whether the tenant may read or subscribe to the
// plant. An empty plant list is an operator grant allowing everything.
func (g *Grant) Allows(plant string) bool {
	return g == nil || g.plants == nil || g.plants[plant]
}

// AllowedPlants returns the tenant's plant set, nil for operator
// grants — the shape the hub takes for wildcard scoping.
func (g *Grant) AllowedPlants() map[string]bool {
	if g == nil {
		return nil
	}
	return g.plants
}

type ctxKey int

const grantKey ctxKey = 0

// GrantFrom returns the tenant grant attached by BearerAuth, if any.
// No grant means the server runs in unauthenticated mode.
func GrantFrom(ctx context.Context) (*Grant, bool) {
	g, ok := ctx.Value(grantKey).(*Grant)
	return g, ok
}

// bucket is one token bucket: rate tokens/second, capacity cap.
type bucket struct {
	mu     sync.Mutex
	rate   float64
	cap    float64
	tokens float64
	last   time.Time
}

// take spends one token, or reports how long until one accrues.
func (b *bucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.cap {
			b.tokens = b.cap
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}

// BearerAuth resolves the request's API key — "Authorization: Bearer
// {key}" or an X-API-Key header — to a tenant grant and attaches it to
// the context. A missing or unknown key is a 401 with the wire error
// envelope. With auth disabled it is a no-op.
func BearerAuth(a *Auth) Middleware {
	return func(next http.Handler) http.Handler {
		if !a.Enabled() {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			key := r.Header.Get("X-API-Key")
			if h := r.Header.Get("Authorization"); h != "" {
				bearer, ok := strings.CutPrefix(h, "Bearer ")
				if !ok {
					WriteError(w, http.StatusUnauthorized, wire.CodeUnauthorized, "malformed Authorization header (want Bearer {key})")
					return
				}
				key = bearer
			}
			if key == "" {
				WriteError(w, http.StatusUnauthorized, wire.CodeUnauthorized, "missing API key (Authorization: Bearer {key} or X-API-Key)")
				return
			}
			g, ok := a.lookup(key)
			if !ok {
				WriteError(w, http.StatusUnauthorized, wire.CodeUnauthorized, "unknown API key")
				return
			}
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), grantKey, g)))
		})
	}
}

// TenantScope rejects requests whose {id} path segment names a plant
// outside the tenant's grant with a 403. Routes without an {id}
// segment pass through (their handlers vet body-borne plant ids via
// GrantFrom). Unauthenticated mode passes through.
func TenantScope() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if g, ok := GrantFrom(r.Context()); ok {
				if id := r.PathValue("id"); id != "" && !g.Allows(id) {
					WriteError(w, http.StatusForbidden, wire.CodeForbidden,
						fmt.Sprintf("tenant %s is not scoped to plant %q", g.Tenant.Name, id))
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// RateLimit spends one token of the tenant's bucket per request,
// answering exhaustion with the ingest path's existing backpressure
// grammar: 429 plus Retry-After (ceiling seconds), which the typed
// client already honours with jittered retries. Tenants without a
// configured rate — and unauthenticated mode — pass through.
func RateLimit() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if g, ok := GrantFrom(r.Context()); ok && g.bucket != nil {
				if ok, retry := g.bucket.take(time.Now()); !ok {
					secs := int(retry/time.Second) + 1
					w.Header().Set("Retry-After", strconv.Itoa(secs))
					WriteError(w, http.StatusTooManyRequests, wire.CodeRateLimited,
						fmt.Sprintf("tenant %s over its rate limit", g.Tenant.Name))
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// RequestLog logs one line per request: method, path, status, tenant,
// duration. A nil logf disables it.
func RequestLog(logf func(format string, args ...any)) Middleware {
	return func(next http.Handler) http.Handler {
		if logf == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			next.ServeHTTP(sw, r)
			tenant := "-"
			if g, ok := GrantFrom(r.Context()); ok {
				tenant = g.Tenant.Name
			}
			logf("%s %s %d tenant=%s %s", r.Method, r.URL.Path, sw.status, tenant, time.Since(start).Round(time.Microsecond))
		})
	}
}

// statusWriter records the status code while forwarding everything —
// including the flushes and write deadlines SSE needs, which an
// http.ResponseController reaches through Unwrap.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
