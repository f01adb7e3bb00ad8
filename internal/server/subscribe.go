package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/gateway"
	"repro/pkg/hod/wire"
)

// The live push endpoint: GET /v1/events streams the subscription over
// SSE. One grammar (wire.SubscribeRequest in the query string), one
// validation path (resolveSubscribe, before the stream starts, so
// errors travel with the typed envelope), one connect-time replay
// (seedSubscription) and one event source (the gateway hub, fed at
// fold-batch boundaries). Delivery is at-least-once: a reconnecting
// client resumes via after_seq/after_rev and dedups alerts by Seq.

const (
	// heartbeatInterval paces keepalive comment lines on an otherwise
	// idle stream.
	heartbeatInterval = 15 * time.Second
	// pushWriteTimeout bounds one frame write; a peer that cannot
	// accept a frame in this window is disconnected instead of pinning
	// the stream's goroutine (its state is cheaply reconstructed on
	// reconnect via the resume protocol).
	pushWriteTimeout = 10 * time.Second
)

// resolveSubscribe parses and vets a subscription request before the
// stream starts: bad grammar is 400, an explicit channel naming an
// unknown plant is 404, one outside the tenant's grant is 403 — all
// with the wire envelope. On success it returns the parsed channels
// and the wildcard scope set for the hub (nil = unrestricted).
func (s *Server) resolveSubscribe(w http.ResponseWriter, r *http.Request) (req wire.SubscribeRequest, chans []wire.Channel, allowed map[string]bool, ok bool) {
	req, err := wire.DecodeSubscribeRequest(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return req, nil, nil, false
	}
	g, scoped := gateway.GrantFrom(r.Context())
	for _, name := range req.Channels {
		ch, err := wire.ParseChannel(name)
		if err != nil { // unreachable: Decode already parsed each channel
			writeErr(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
			return req, nil, nil, false
		}
		if ch.Plant != "*" {
			if _, exists := s.plant(ch.Plant); !exists {
				writeErr(w, http.StatusNotFound, wire.CodeUnknownPlant, fmt.Sprintf("unknown plant %q", ch.Plant))
				return req, nil, nil, false
			}
			if scoped && !g.Allows(ch.Plant) {
				writeErr(w, http.StatusForbidden, wire.CodeForbidden,
					fmt.Sprintf("tenant %s is not scoped to plant %q", g.Tenant.Name, ch.Plant))
				return req, nil, nil, false
			}
		}
		chans = append(chans, ch)
	}
	if scoped {
		allowed = g.AllowedPlants()
	}
	return req, chans, allowed, true
}

// visiblePlants lists the registered plants the subscriber may see,
// sorted for a deterministic seed order.
func (s *Server) visiblePlants(allowed map[string]bool) []string {
	s.mu.RLock()
	ids := make([]string, 0, len(s.plants))
	for id := range s.plants {
		if allowed == nil || allowed[id] {
			ids = append(ids, id)
		}
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// seedSubscription replays current state into a fresh subscription so
// a connecting client needs no separate poll: the alert ring (filtered
// by the resume cursor, Coalesced marking a gap the ring already
// trimmed), a cube_delta when the data revision passed the client's,
// and a stats snapshot. Seeding after hub.Subscribe is race-free by
// the coalescing rules — a concurrently published event lands in the
// same (kind, plant) slot, where alerts dedup by Seq and snapshots
// resolve by revision.
func (s *Server) seedSubscription(sub *gateway.Subscriber, chans []wire.Channel, allowed map[string]bool, req wire.SubscribeRequest) {
	for _, ch := range chans {
		plants := []string{ch.Plant}
		if ch.Plant == "*" {
			plants = s.visiblePlants(allowed)
		}
		for _, id := range plants {
			ps, ok := s.plant(id)
			if !ok {
				continue
			}
			switch ch.Kind {
			case wire.EventAlert:
				after := req.AfterSeq[id]
				all := ps.recentAlerts(0)
				var keep []wire.Alert
				for _, a := range all {
					if a.Seq > after {
						keep = append(keep, a)
					}
				}
				if len(keep) == 0 {
					continue
				}
				ev := wire.Event{Kind: wire.EventAlert, Plant: id, Seq: keep[len(keep)-1].Seq, Alerts: keep}
				// A multi-alert seed is a compressed snapshot, not a
				// 1:1 live fold event — and a gap past the cursor means
				// the ring already trimmed history. Either way the
				// client is catching up, and the event says so.
				if len(keep) > 1 || keep[0].Seq > after+1 {
					ev.Coalesced = true
				}
				sub.Seed(ev)
			case wire.EventCubeDelta:
				if rev := ps.dataRev.Load(); rev > 0 && rev > req.AfterRev[id] {
					sub.Seed(wire.Event{Kind: wire.EventCubeDelta, Plant: id, Revision: rev})
				}
			case wire.EventStats:
				st := ps.statsNow()
				sub.Seed(wire.Event{Kind: wire.EventStats, Plant: id, Revision: st.DataRevision, Stats: &st})
			}
		}
	}
}

// handleEvents serves GET /v1/events: validate, then stream the
// subscriber's events as SSE — "event: {kind}\ndata: {json}\n\n"
// frames, comment lines as heartbeats. It is an ordinary response: a
// disconnect cancels r.Context(), and curl can read it.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	req, chans, allowed, ok := s.resolveSubscribe(w, r)
	if !ok {
		return
	}
	rc := http.NewResponseController(w)
	// The first deadline doubles as the capability check: a writer
	// that cannot bound its writes cannot stream safely either.
	if err := rc.SetWriteDeadline(time.Now().Add(pushWriteTimeout)); err != nil {
		writeErr(w, http.StatusInternalServerError, wire.CodeInternal, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return
	}
	sub := s.hub.Subscribe(chans, allowed, s.opts.SubscriberQueue)
	defer sub.Close()
	s.seedSubscription(sub, chans, allowed, req)
	streamEvents(r.Context(), w, sub, heartbeatInterval)
}

// streamEvents writes sub's events to w until ctx ends, the hub closes
// sub or a write fails, with a heartbeat comment after every quiet
// heartbeat interval. Each write gets its own deadline of
// pushWriteTimeout.
func streamEvents(ctx context.Context, w http.ResponseWriter, sub *gateway.Subscriber, heartbeat time.Duration) {
	rc := http.NewResponseController(w)
	for {
		tick, cancelTick := context.WithTimeout(ctx, heartbeat)
		ev, open := sub.Next(tick)
		cancelTick()
		if !open || ctx.Err() != nil {
			return
		}
		if err := rc.SetWriteDeadline(time.Now().Add(pushWriteTimeout)); err != nil {
			return
		}
		if ev.Kind == "" { // heartbeat tick: keep intermediaries awake
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
		} else {
			buf, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, buf); err != nil {
				return
			}
		}
		if err := rc.Flush(); err != nil {
			return
		}
	}
}
