// Package scenario is the deterministic fault-injection and soak layer
// of the serving stack. A Config declares, in JSON, a plantsim trace
// plus a schedule of failures — sensor dropout windows, duplicated and
// re-sent batches, clock-skewed timestamps, a corrupted WAL tail
// followed by a restart, kill -9 at scheduled batch offsets, 429
// storms, 5xx bursts, connection resets on either side of the wire,
// push-side faults against a live subscriber (a stalled consumer, a
// severed subscription transport) —
// and the Runner executes it against a real hodserve: it replays the
// trace through the pkg/hod client, restarts the server in-process
// from its data dir exactly where the schedule says, and afterwards
// checks the survivor against an offline oracle fed the same
// acknowledged stream. Every scenario is seed-deterministic: two runs
// of the same config produce the same result digest, so a soak matrix
// doubles as a regression corpus.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Failure kinds a schedule can carry. Trace transforms (dropout,
// clock_skew) rewrite the record stream before batching; send-schedule
// faults fire at a batch offset during the replay.
const (
	// KindDropout removes a sensor window from the trace — records of
	// one machine (optionally one sensor) with From <= T < To never
	// leave the client. The oracle sees the surviving records only.
	KindDropout = "dropout"
	// KindClockSkew shifts T by Skew for the matched window — the
	// misconfigured-edge-gateway story. Skewed samples land in (and
	// first-seen-win) the shifted cells on server and oracle alike.
	KindClockSkew = "clock_skew"
	// KindDuplicate re-sends batch At exactly Count times right after
	// its first ack. Idempotent ingest must fold the copies to zero
	// state change.
	KindDuplicate = "duplicate"
	// KindResend re-sends the first Count already-acked batches (in
	// reverse order, for spice) after batch At acks — the client-side
	// "replay on reconnect" story.
	KindResend = "resend"
	// KindReorder swaps batches At and At+1 in the send schedule.
	KindReorder = "reorder"
	// KindKill hard-stops the server (no drain, no snapshot) right
	// before batch At is sent, restarts it from the data dir, and
	// re-sends everything not yet acked. Durable scenarios only.
	KindKill = "kill"
	// KindCorruptWALTail kills the server before batch At, appends
	// garbage to the newest WAL segment of every shard (a torn tail:
	// partial frames past the last acked record), then restarts.
	// Recovery must truncate the tails and lose nothing acked.
	KindCorruptWALTail = "corrupt_wal_tail"
	// KindStorm429 arms Count injected 429 responses before batch At;
	// the client's Retry-After backoff must absorb them.
	KindStorm429 = "storm_429"
	// KindStorm5xx arms Count injected 500 responses before batch At;
	// the runner's outer retry loop must re-send.
	KindStorm5xx = "storm_5xx"
	// KindConnReset arms Count injected client-side connection resets
	// before batch At.
	KindConnReset = "conn_reset"
	// KindListenerReset arms Count server-side accept-then-RST drops
	// before batch At (the fault listener slams the door).
	KindListenerReset = "listener_reset"
	// KindSlowConsumer stalls the live push subscriber from batch At
	// on — no reads until the verify phase resumes it. Ingest must be
	// unaffected (the hub never blocks the fold path) and the resumed
	// stream must arrive coalesced and converge to the polled ring.
	// Needs "subscribe": true.
	KindSlowConsumer = "slow_consumer"
	// KindPushDisconnect severs the subscriber's transport before batch
	// At; the subscription must redial and resume from its seq cursor
	// without replaying or losing alerts. Needs "subscribe": true.
	KindPushDisconnect = "push_disconnect"
	// KindCorruptFrame posts a structurally corrupt binary columnar
	// frame (wire.ContentTypeBinary) before batch At. The server must
	// reject it whole with 400 + bad_frame — and the next valid batch
	// must still admit: a torn frame can never wedge a shard pipeline.
	KindCorruptFrame = "corrupt_frame"
	// KindNodeKill kills the node owning the target plant — listener
	// gone, queues dropped, no snapshot; a machine death, not a process
	// restart (that is "kill") — declares it failed at the router, and
	// re-sends every acked batch. The promoted warm standby must already
	// hold the replicated prefix and fold the resent stream idempotently
	// on top. Needs "nodes" >= 2.
	KindNodeKill = "node_kill"
	// KindRouterPartition cuts the router→owner network path for the
	// next Count proxied requests to the target plant's owner. Reads
	// fall back to the warm standby; writes surface retriable 503s the
	// client absorbs. Needs "nodes" >= 2.
	KindRouterPartition = "router_partition"
)

// Failure is one scheduled injection.
type Failure struct {
	Kind string `json:"kind"`
	// Plant targets one plant of the scenario (default: the first).
	Plant string `json:"plant,omitempty"`

	// Machine/Sensor/From/To select the trace window for dropout and
	// clock_skew. Empty machine matches environment records; empty
	// sensor matches every sensor. To == 0 means "to the end".
	Machine string `json:"machine,omitempty"`
	Sensor  string `json:"sensor,omitempty"`
	From    int    `json:"from,omitempty"`
	To      int    `json:"to,omitempty"`
	// Skew is the T shift of clock_skew (may be negative; skewing a
	// record below T=0 rejects it at the server — on both servers).
	Skew int `json:"skew,omitempty"`

	// At is the zero-based batch offset a send-schedule fault fires at.
	At int `json:"at,omitempty"`
	// Count sizes the fault: copies for duplicate, batches for resend,
	// responses for storms, drops for resets (default 1).
	Count int `json:"count,omitempty"`
}

// PlantSpec is one simulated plant of a scenario.
type PlantSpec struct {
	ID string `json:"id"`
	// Simulator shape; zero values take plantsim defaults.
	Lines           int `json:"lines,omitempty"`
	MachinesPerLine int `json:"machines_per_line,omitempty"`
	JobsPerMachine  int `json:"jobs_per_machine,omitempty"`
	PhaseSamples    int `json:"phase_samples,omitempty"`
}

// Config is one declarative scenario.
type Config struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Short marks the scenario as part of the CI short matrix.
	Short bool `json:"short,omitempty"`
	// Notes is free-form documentation shown by `hodctl soak -list`.
	Notes string `json:"notes,omitempty"`

	Plants []PlantSpec `json:"plants"`

	// BatchRecords chunks each plant's trace (default 512 records).
	BatchRecords int `json:"batch_records,omitempty"`
	// Server shape under test.
	Shards     int `json:"shards,omitempty"`      // default 3
	QueueDepth int `json:"queue_depth,omitempty"` // default 64
	// Nodes runs the scenario against a cluster: Nodes hodserve nodes
	// behind a routing proxy, the client pointed at the router, plants
	// placed by rendezvous hash with warm standbys tailing the owner's
	// WAL. Requires "durable": true (standby seeding ships WAL frames).
	// 0 or 1 means one plain server.
	Nodes int `json:"nodes,omitempty"`
	// Durable makes the server run from a data dir (WAL + snapshots).
	// Required by kill and corrupt_wal_tail.
	Durable bool   `json:"durable,omitempty"`
	Fsync   string `json:"fsync,omitempty"` // default "none" (fast, still crash-safe for process kills)
	// SnapshotIntervalMS tunes the background snapshot loop (default:
	// off — recovery replays the WAL; kills stay batch-deterministic).
	SnapshotIntervalMS int `json:"snapshot_interval_ms,omitempty"`
	// DrainTimeoutMS bounds every WaitDrained (default 60s).
	DrainTimeoutMS int `json:"drain_timeout_ms,omitempty"`

	// Subscribe attaches a live push subscriber (alerts:* through the
	// gateway) to the victim for the whole replay; the verify phase
	// then checks the pushed stream, after coalescing, converges to
	// the same final state as polling /v1/plants/{id}/alerts. Required
	// by slow_consumer and push_disconnect; incompatible with restart
	// faults (recovery re-raises alerts, so push convergence across a
	// kill is not deterministic).
	Subscribe bool `json:"subscribe,omitempty"`
	// AlertThreshold is the server's streaming alert threshold (zero =
	// server default). Push scenarios lower it so the trace raises a
	// dense alert stream worth coalescing.
	AlertThreshold float64 `json:"alert_threshold,omitempty"`

	Failures []Failure `json:"failures,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.BatchRecords <= 0 {
		c.BatchRecords = 512
	}
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Fsync == "" {
		c.Fsync = "none"
	}
	if c.DrainTimeoutMS <= 0 {
		c.DrainTimeoutMS = int(60 * time.Second / time.Millisecond)
	}
	for i := range c.Plants {
		p := &c.Plants[i]
		if p.Lines == 0 {
			p.Lines = 1
		}
		if p.MachinesPerLine == 0 {
			p.MachinesPerLine = 2
		}
		if p.JobsPerMachine == 0 {
			p.JobsPerMachine = 3
		}
		if p.PhaseSamples == 0 {
			p.PhaseSamples = 24
		}
	}
	return c
}

// kinds every Validate accepts, and whether each needs a durable server.
var kindNeedsDurable = map[string]bool{
	KindDropout:         false,
	KindClockSkew:       false,
	KindDuplicate:       false,
	KindResend:          false,
	KindReorder:         false,
	KindKill:            true,
	KindCorruptWALTail:  true,
	KindCorruptFrame:    false,
	KindStorm429:        false,
	KindStorm5xx:        false,
	KindConnReset:       false,
	KindListenerReset:   false,
	KindSlowConsumer:    false,
	KindPushDisconnect:  false,
	KindNodeKill:        true,
	KindRouterPartition: false,
}

// kinds that only make sense with a live subscriber attached.
var kindNeedsSubscribe = map[string]bool{
	KindSlowConsumer:   true,
	KindPushDisconnect: true,
}

// kinds that only make sense against a cluster (nodes >= 2).
var kindNeedsCluster = map[string]bool{
	KindNodeKill:        true,
	KindRouterPartition: true,
}

// single-server kinds the cluster harness cannot express: the fault
// listener and the restart loop wrap one process, and the wildcard
// push subscriber is not routable.
var kindSingleServer = map[string]bool{
	KindKill:           true,
	KindCorruptWALTail: true,
	KindListenerReset:  true,
	KindSlowConsumer:   true,
	KindPushDisconnect: true,
}

// Validate rejects configs the runner could not execute
// deterministically: unknown failure kinds, kills without a data dir,
// failures aimed at undeclared plants.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("scenario: config needs a name")
	}
	if len(c.Plants) == 0 {
		return fmt.Errorf("scenario %s: needs at least one plant", c.Name)
	}
	seen := map[string]bool{}
	for _, p := range c.Plants {
		if p.ID == "" {
			return fmt.Errorf("scenario %s: plant without an id", c.Name)
		}
		if seen[p.ID] {
			return fmt.Errorf("scenario %s: duplicate plant %q", c.Name, p.ID)
		}
		seen[p.ID] = true
	}
	if c.Nodes < 0 {
		return fmt.Errorf("scenario %s: negative node count", c.Name)
	}
	if c.Nodes > 1 {
		if !c.Durable {
			return fmt.Errorf("scenario %s: \"nodes\": %d needs \"durable\": true — standby seeding tails the owner's WAL", c.Name, c.Nodes)
		}
		if c.Subscribe {
			return fmt.Errorf("scenario %s: \"subscribe\" cannot run against a cluster — the wildcard watcher channel is not routable", c.Name)
		}
	}
	for i, f := range c.Failures {
		needsDurable, ok := kindNeedsDurable[f.Kind]
		if !ok {
			return fmt.Errorf("scenario %s: failure %d: unknown kind %q", c.Name, i, f.Kind)
		}
		if needsDurable && !c.Durable {
			return fmt.Errorf("scenario %s: failure %d: %s needs \"durable\": true", c.Name, i, f.Kind)
		}
		if kindNeedsCluster[f.Kind] && c.Nodes < 2 {
			return fmt.Errorf("scenario %s: failure %d: %s needs \"nodes\" >= 2", c.Name, i, f.Kind)
		}
		if c.Nodes > 1 && kindSingleServer[f.Kind] {
			return fmt.Errorf("scenario %s: failure %d: %s targets a single server and cannot run against a cluster", c.Name, i, f.Kind)
		}
		if kindNeedsSubscribe[f.Kind] && !c.Subscribe {
			return fmt.Errorf("scenario %s: failure %d: %s needs \"subscribe\": true", c.Name, i, f.Kind)
		}
		if needsDurable && c.Subscribe {
			return fmt.Errorf("scenario %s: failure %d: %s cannot run with a live subscriber — recovery re-raises alerts, so push convergence across a restart is not deterministic", c.Name, i, f.Kind)
		}
		if f.Plant != "" && !seen[f.Plant] {
			return fmt.Errorf("scenario %s: failure %d: unknown plant %q", c.Name, i, f.Plant)
		}
		if f.At < 0 || f.Count < 0 || f.From < 0 || f.To < 0 {
			return fmt.Errorf("scenario %s: failure %d: negative offsets", c.Name, i)
		}
	}
	return nil
}

// Load reads and validates one scenario config file.
func Load(path string) (Config, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	return Parse(buf)
}

// Parse decodes and validates one scenario config. Unknown fields are
// errors, so a typo in a failure schedule cannot silently disarm it.
func Parse(buf []byte) (Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("scenario: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
