// Package gateway is the live push layer of the serving system: a
// per-channel subscription hub fanning out fold-path events
// (EWMA alerts, cube-delta notifications, stats snapshots) to SSE
// subscribers, plus the composable HTTP middleware chain
// (bearer auth, tenant scoping, per-tenant rate limits, request
// logging) the whole v1 surface is wrapped in.
//
// The hub's contract with the ingest path is strict: Publish never
// blocks and never buffers without bound. Every subscriber owns a
// small bounded queue of pending events keyed by (kind, plant); a slow
// consumer's stale entries are coalesced — cube/stats replaced by the
// latest snapshot, alert batches merged and ring-capped — instead of
// queued, so the cost of a stalled dashboard is one map entry, not a
// growing buffer, and the fold loop never waits on a socket.
package gateway

import (
	"context"
	"sync"

	"repro/pkg/hod/wire"
)

// AlertCoalesceCap bounds the alerts carried by one coalesced pending
// event — the same capacity as the server's alert ring, so a
// maximally-stale subscriber still reconstructs exactly the state
// GET /v1/plants/{id}/alerts would serve.
const AlertCoalesceCap = 512

// DefaultQueueCap bounds the distinct (kind, plant) pending entries
// per subscriber before the oldest entry is dropped (marked by a
// Coalesced successor).
const DefaultQueueCap = 256

// subKey identifies one coalescing slot: events of the same kind for
// the same plant collapse into each other.
type subKey struct {
	kind  wire.EventKind
	plant string
}

// Hub routes published events to subscribers by (kind, plant) channel,
// including "*" wildcard subscriptions.
type Hub struct {
	mu       sync.Mutex
	exact    map[subKey]map[*Subscriber]struct{}
	wildcard map[wire.EventKind]map[*Subscriber]struct{}
	closed   bool
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{
		exact:    map[subKey]map[*Subscriber]struct{}{},
		wildcard: map[wire.EventKind]map[*Subscriber]struct{}{},
	}
}

// Subscribe registers a subscriber for the channels. allowed, when
// non-nil, restricts wildcard delivery to the named plants (tenant
// scoping); explicit channels are assumed pre-vetted by the caller.
// queueCap <= 0 takes DefaultQueueCap.
func (h *Hub) Subscribe(channels []wire.Channel, allowed map[string]bool, queueCap int) *Subscriber {
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	s := &Subscriber{
		hub:      h,
		channels: append([]wire.Channel(nil), channels...),
		allowed:  allowed,
		queueCap: queueCap,
		pending:  map[subKey]*wire.Event{},
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(s.done)
		s.closed = true
		return s
	}
	for _, ch := range s.channels {
		if ch.Plant == "*" {
			set := h.wildcard[ch.Kind]
			if set == nil {
				set = map[*Subscriber]struct{}{}
				h.wildcard[ch.Kind] = set
			}
			set[s] = struct{}{}
			continue
		}
		k := subKey{ch.Kind, ch.Plant}
		set := h.exact[k]
		if set == nil {
			set = map[*Subscriber]struct{}{}
			h.exact[k] = set
		}
		set[s] = struct{}{}
	}
	return s
}

// Publish fans the event out to every matching subscriber. It never
// blocks: delivery is an enqueue under the subscriber's mutex, with
// coalescing absorbing any backlog.
//
//hod:allow(determinism) fan-out order across independent subscribers is not a serialized surface: each subscriber's own stream stays in publish order
func (h *Hub) Publish(ev wire.Event) {
	h.mu.Lock()
	var targets []*Subscriber
	for s := range h.exact[subKey{ev.Kind, ev.Plant}] {
		targets = append(targets, s)
	}
	for s := range h.wildcard[ev.Kind] {
		if s.allowed == nil || s.allowed[ev.Plant] {
			targets = append(targets, s)
		}
	}
	h.mu.Unlock()
	for _, s := range targets {
		s.enqueue(ev)
	}
}

// Wants reports whether Publish would deliver an event of this kind
// for this plant to anyone, so a publisher can skip building an event
// nobody reads. The answer may be stale as soon as it returns: a
// subscriber that arrives after a no is the seeding path's to bring up
// to date, as it is for every event published before it subscribed.
func (h *Hub) Wants(kind wire.EventKind, plant string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.exact[subKey{kind, plant}]) > 0 {
		return true
	}
	for s := range h.wildcard[kind] {
		if s.allowed == nil || s.allowed[plant] {
			return true
		}
	}
	return false
}

// unsubscribe removes the subscriber from every routing set.
func (h *Hub) unsubscribe(s *Subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range s.channels {
		if ch.Plant == "*" {
			delete(h.wildcard[ch.Kind], s)
			continue
		}
		delete(h.exact[subKey{ch.Kind, ch.Plant}], s)
	}
}

// Close closes every subscriber and refuses new ones — the server's
// shutdown path. It ends every open event stream, which http.Server's
// Shutdown would otherwise wait on, since it cancels no request
// context. Closing twice is harmless.
//
//hod:allow(determinism) teardown order across independent subscribers is unobservable: each one just sees its own channel close
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	var subs []*Subscriber
	for _, set := range h.exact {
		for s := range set {
			subs = append(subs, s)
		}
	}
	for _, set := range h.wildcard {
		for s := range set {
			subs = append(subs, s)
		}
	}
	h.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

// Subscriber is one connection's view of the hub: a bounded pending
// queue drained by the connection's writer goroutine via Next.
type Subscriber struct {
	hub      *Hub
	channels []wire.Channel
	allowed  map[string]bool
	queueCap int

	mu        sync.Mutex
	order     []subKey
	pending   map[subKey]*wire.Event
	coalesced uint64
	dropped   uint64
	closed    bool

	wake chan struct{} // 1-buffered: "queue went non-empty"
	done chan struct{}
}

// enqueue adds the event to the pending queue, coalescing per
// (kind, plant) slot and bounding the number of distinct slots.
func (s *Subscriber) enqueue(ev wire.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	k := subKey{ev.Kind, ev.Plant}
	if ex, ok := s.pending[k]; ok {
		coalesce(ex, ev)
		s.coalesced++
		return
	}
	if len(s.order) >= s.queueCap {
		// Too many distinct slots pending: drop the stalest slot and
		// mark the newcomer so the consumer knows the stream gapped.
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.pending, oldest)
		s.dropped++
		ev.Coalesced = true
	}
	stored := ev
	stored.Alerts = append([]wire.Alert(nil), ev.Alerts...)
	s.pending[k] = &stored
	s.order = append(s.order, k)
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// coalesce folds a new event into the pending one of the same slot.
// Cube/stats events are latest-snapshot: the event with the higher
// revision wins (Coalesced marks the survivor) — by revision, not
// arrival order, so a connect-time seed racing a live publish can never
// regress the snapshot. Alert events merge their batches in seq order,
// deduplicating (a seeded ring overlaps the live stream) and trimming
// to AlertCoalesceCap from the front — exactly the server ring's
// retention, so the final coalesced state converges to what polling
// would return. Every merged alert event is marked Coalesced — it no
// longer maps 1:1 to a published fold batch — whether or not the trim
// also lost history.
func coalesce(ex *wire.Event, ev wire.Event) {
	switch ev.Kind {
	case wire.EventAlert:
		ex.Alerts = mergeAlerts(ex.Alerts, ev.Alerts)
		if ev.Seq > ex.Seq {
			ex.Seq = ev.Seq
		}
		ex.Coalesced = true
		if len(ex.Alerts) > AlertCoalesceCap {
			ex.Alerts = ex.Alerts[len(ex.Alerts)-AlertCoalesceCap:]
		}
		if ev.Revision > ex.Revision {
			ex.Revision = ev.Revision
		}
	default:
		if ev.Revision >= ex.Revision {
			*ex = ev
			ex.Alerts = append([]wire.Alert(nil), ev.Alerts...)
		}
		ex.Coalesced = true
	}
}

// mergeAlerts merges two seq-ascending alert batches (the pending
// queue's and a newer one) into a fresh slice in one linear pass,
// keeping one alert per seq: the newer copy wins, b's over a's and,
// within one batch, the later over the earlier.
func mergeAlerts(a, b []wire.Alert) []wire.Alert {
	out := make([]wire.Alert, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		var al wire.Alert
		if len(b) == 0 || (len(a) > 0 && a[0].Seq <= b[0].Seq) {
			al, a = a[0], a[1:]
		} else {
			al, b = b[0], b[1:]
		}
		if n := len(out); n > 0 && out[n-1].Seq == al.Seq {
			out[n-1] = al
			continue
		}
		out = append(out, al)
	}
	return out
}

// Seed enqueues an event directly into this subscriber's queue,
// bypassing channel routing — the connect-time replay path: the server
// seeds the current alert ring / revision / stats before live events
// flow, and coalescing folds any concurrently published event into the
// same slot, so the seed can never be reordered after fresher data.
func (s *Subscriber) Seed(ev wire.Event) { s.enqueue(ev) }

// Next blocks until an event is pending, the subscriber is closed, or
// the context ends. ok is false only when the subscriber is closed;
// a context end returns ok true with a zero-kind event, letting writer
// loops use per-iteration timeouts for heartbeats.
func (s *Subscriber) Next(ctx context.Context) (ev wire.Event, ok bool) {
	for {
		s.mu.Lock()
		if len(s.order) > 0 {
			k := s.order[0]
			s.order = s.order[1:]
			ev = *s.pending[k]
			delete(s.pending, k)
			s.mu.Unlock()
			return ev, true
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return wire.Event{}, false
		}
		select {
		case <-s.wake:
		case <-s.done:
			// Drain anything enqueued before the close won the race.
			s.mu.Lock()
			empty := len(s.order) == 0
			s.mu.Unlock()
			if empty {
				return wire.Event{}, false
			}
		case <-ctx.Done():
			return wire.Event{}, true
		}
	}
}

// Close unregisters the subscriber and unblocks Next.
func (s *Subscriber) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.hub.unsubscribe(s)
	close(s.done)
}

// Stats reports the coalescing counters: events merged into a pending
// slot, and whole slots dropped at the queue cap.
func (s *Subscriber) Stats() (coalesced, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coalesced, s.dropped
}

// Pending reports the current queue depth (distinct pending slots) —
// bounded by the queue cap whatever the publisher does.
func (s *Subscriber) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}
