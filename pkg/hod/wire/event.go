package wire

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// EventKind names one kind of push event delivered over the live
// subscription endpoint (GET /v1/events, Server-Sent Events).
type EventKind string

// The push event kinds of the v1 protocol.
const (
	// EventAlert carries a batch of newly raised EWMA alerts, in fold
	// order. Seq is the highest alert sequence number of the batch.
	EventAlert EventKind = "alert"
	// EventCubeDelta signals that the plant's OLAP cube (and roll-up
	// tree) advanced to Revision; the payload is intentionally a
	// notification, not a diff — clients re-query the slices they care
	// about.
	EventCubeDelta EventKind = "cube_delta"
	// EventStats carries a full StatsResponse snapshot taken at a fold
	// batch boundary.
	EventStats EventKind = "stats"
)

// Valid reports whether k is a known event kind.
func (k EventKind) Valid() bool {
	return k == EventAlert || k == EventCubeDelta || k == EventStats
}

// Event is one push message of the live subscription stream. Exactly
// the payload fields matching Kind are set: Alerts for EventAlert,
// Stats for EventStats, none for EventCubeDelta (Revision suffices).
//
// Coalesced marks an event that stands in for more than one original
// emission: a slow consumer's queue replaces stale cube/stats events
// with the latest snapshot and merges (and, past the ring capacity,
// trims) alert batches instead of buffering without bound. A client
// that must not miss alerts resumes from its highest seen Alert.Seq
// via SubscribeRequest.AfterSeq.
type Event struct {
	Kind  EventKind `json:"kind"`
	Plant string    `json:"plant"`
	// Seq is the highest Alert.Seq carried by an alert event; zero
	// otherwise.
	Seq uint64 `json:"seq,omitempty"`
	// Revision is the plant data revision after the fold batch that
	// produced the event (cube_delta and stats events).
	Revision  uint64         `json:"revision,omitempty"`
	Coalesced bool           `json:"coalesced,omitempty"`
	Alerts    []Alert        `json:"alerts,omitempty"`
	Stats     *StatsResponse `json:"stats,omitempty"`
}

// Channel is one parsed subscription channel: an event kind scoped to
// one plant, or to every visible plant via the "*" wildcard.
type Channel struct {
	Kind  EventKind
	Plant string
}

// String renders the channel in wire form: "alerts:plant-a",
// "cube:*", "stats:plant-b".
func (c Channel) String() string {
	return channelPrefix(c.Kind) + ":" + c.Plant
}

func channelPrefix(k EventKind) string {
	switch k {
	case EventAlert:
		return "alerts"
	case EventCubeDelta:
		return "cube"
	case EventStats:
		return "stats"
	}
	return string(k)
}

// ParseChannel parses a wire channel name. The grammar is
// "{alerts|cube|stats}:{plant}" where plant is a registered plant id
// or "*" for every plant the subscriber may see.
func ParseChannel(s string) (Channel, error) {
	kind, plant, ok := strings.Cut(s, ":")
	if !ok || plant == "" {
		return Channel{}, fmt.Errorf("wire: channel %q: want kind:plant (e.g. alerts:plant-a, cube:*)", s)
	}
	var k EventKind
	switch kind {
	case "alerts":
		k = EventAlert
	case "cube":
		k = EventCubeDelta
	case "stats":
		k = EventStats
	default:
		return Channel{}, fmt.Errorf("wire: channel %q: unknown kind %q (want alerts|cube|stats)", s, kind)
	}
	if plant != "*" {
		if err := ValidIdent("plant", plant); err != nil {
			return Channel{}, err
		}
	}
	return Channel{Kind: k, Plant: plant}, nil
}

// SubscribeRequest selects the channels of one subscription and where
// to resume each plant's stream. It travels as the query string of
// GET /v1/events — Encode and DecodeSubscribeRequest are the one
// grammar both ends share.
type SubscribeRequest struct {
	// Channels lists wire channel names ("alerts:plant-a", "cube:*").
	Channels []string `json:"channels"`
	// AfterSeq resumes alert delivery per plant: only alerts with
	// Seq > AfterSeq[plant] are replayed on connect.
	AfterSeq map[string]uint64 `json:"after_seq,omitempty"`
	// AfterRev suppresses the initial cube_delta/stats replay per
	// plant unless the plant's data revision exceeds AfterRev[plant].
	AfterRev map[string]uint64 `json:"after_rev,omitempty"`
}

// Encode renders the request as URL query values: one "channel" value
// per channel, and "after_seq"/"after_rev" values of the form
// "plant=n", sorted by plant for a deterministic encoding.
func (r SubscribeRequest) Encode() url.Values {
	v := url.Values{}
	for _, ch := range r.Channels {
		v.Add("channel", ch)
	}
	encodeSeqMap(v, "after_seq", r.AfterSeq)
	encodeSeqMap(v, "after_rev", r.AfterRev)
	return v
}

func encodeSeqMap(v url.Values, key string, m map[string]uint64) {
	plants := make([]string, 0, len(m))
	for p := range m {
		plants = append(plants, p)
	}
	sort.Strings(plants)
	for _, p := range plants {
		v.Add(key, p+"="+strconv.FormatUint(m[p], 10))
	}
}

// DecodeSubscribeRequest parses what Encode produced. At least one
// channel is required; every channel must parse; duplicate resume
// entries for one plant are rejected.
func DecodeSubscribeRequest(v url.Values) (SubscribeRequest, error) {
	var r SubscribeRequest
	for _, ch := range v["channel"] {
		if _, err := ParseChannel(ch); err != nil {
			return SubscribeRequest{}, err
		}
		r.Channels = append(r.Channels, ch)
	}
	if len(r.Channels) == 0 {
		return SubscribeRequest{}, fmt.Errorf("wire: subscribe needs at least one channel parameter")
	}
	var err error
	if r.AfterSeq, err = decodeSeqMap(v, "after_seq"); err != nil {
		return SubscribeRequest{}, err
	}
	if r.AfterRev, err = decodeSeqMap(v, "after_rev"); err != nil {
		return SubscribeRequest{}, err
	}
	return r, nil
}

func decodeSeqMap(v url.Values, key string) (map[string]uint64, error) {
	vals := v[key]
	if len(vals) == 0 {
		return nil, nil
	}
	m := make(map[string]uint64, len(vals))
	for _, s := range vals {
		plant, num, ok := strings.Cut(s, "=")
		if !ok || plant == "" {
			return nil, fmt.Errorf("wire: %s %q: want plant=n", key, s)
		}
		n, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wire: %s %q: %v", key, s, err)
		}
		if _, dup := m[plant]; dup {
			return nil, fmt.Errorf("wire: %s repeats plant %q", key, plant)
		}
		m[plant] = n
	}
	return m, nil
}
