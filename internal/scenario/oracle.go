package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/pkg/hod/wire"
)

// Result is one scenario's outcome — the JSON `hodctl soak` prints.
type Result struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`

	Batches       int               `json:"batches"`
	AckedBatches  int               `json:"acked_batches"`
	AckedRecords  uint64            `json:"acked_records"`
	DistinctCells uint64            `json:"distinct_cells"`
	Restarts      int               `json:"restarts"`
	Injected      map[string]uint64 `json:"injected"`
	ClientRetried uint64            `json:"client_retried"`
	RunnerRetries uint64            `json:"runner_retries"`
	ListenerDrops uint64            `json:"listener_drops"`

	// Push-subscriber telemetry of "subscribe" scenarios (zero
	// otherwise). Informational, like DurationMS: coalescing and
	// reconnect counts depend on timing and stay out of the digest.
	PushEvents     uint64 `json:"push_events,omitempty"`
	PushCoalesced  uint64 `json:"push_coalesced,omitempty"`
	PushReconnects uint64 `json:"push_reconnects,omitempty"`

	// Digest fingerprints every compared serving surface of the victim
	// (reports, roll-ups, cube views). Two runs of the same config must
	// produce the same digest — `hodctl soak -runs 2` enforces it.
	Digest string `json:"digest"`

	Checks []Check `json:"checks"`
	Pass   bool    `json:"pass"`

	// DurationMS is wall time; it is informational and excluded from
	// the digest.
	DurationMS int64 `json:"duration_ms"`
}

// Check is one verified invariant.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

func (r *Result) check(name string, pass bool, detail string) {
	if pass {
		detail = ""
	}
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: detail})
}

func (r *Result) finish(start time.Time) {
	r.Pass = len(r.Checks) > 0
	for _, c := range r.Checks {
		if !c.Pass {
			r.Pass = false
		}
	}
	r.DurationMS = time.Since(start).Milliseconds()
}

// plantQueries is the compared serving surface: every report level the
// dashboard reads, both roll-up grains, and the three cube access
// paths. Stats are deliberately absent — received_records legitimately
// varies with restart timing; the *data* surfaces must not.
func plantQueries(firstMachine string) []string {
	return []string{
		"/report?level=1&top=512",
		"/report?level=2&top=64",
		"/report?level=4",
		"/rollup?level=sensor",
		"/rollup?level=plant",
		"/cube?op=slice",
		"/cube?op=rollup&keep=machine,sensor",
		"/cube?op=drilldown&dim=phase&where=machine%3D" + url.QueryEscape(firstMachine),
	}
}

// verify replays the acknowledged stream into a fresh in-memory oracle
// and byte-compares every serving surface, then checks the counter
// invariants. All findings land in res.Checks.
func (r *Runner) verify(ctx context.Context, cfg Config, h *harness, traces []*plantTrace, acked []ackedBatch, drainTimeout time.Duration, res *Result) {
	res.AckedBatches = len(acked)
	rejected := uint64(0)
	distinct := map[string]map[string]struct{}{}
	for _, ab := range acked {
		res.AckedRecords += uint64(ab.admitted)
		rejected += uint64(len(ab.records) - ab.admitted)
	}

	// The oracle: same shard shape, no durability, no faults — fed the
	// exact acked stream in ack order. Idempotent first-seen folds make
	// it converge to the victim's state whatever the schedule injected.
	oracle, err := newHarness(Config{
		Name:   cfg.Name + "-oracle",
		Shards: cfg.Shards, QueueDepth: cfg.QueueDepth, Fsync: "none",
		Plants: cfg.Plants,
	}.withDefaults(), "")
	if err != nil {
		res.check("oracle_boots", false, err.Error())
		return
	}
	defer oracle.shutdown()

	for _, tr := range traces {
		if _, err := oracle.client.Register(ctx, tr.topo); err != nil {
			res.check("oracle_boots", false, err.Error())
			return
		}
	}
	oracleAdmitted := map[string]uint64{}
	for _, ab := range acked {
		perCell := distinct[ab.plant]
		if perCell == nil {
			perCell = map[string]struct{}{}
			distinct[ab.plant] = perCell
		}
		for _, rec := range ab.records {
			perCell[fmt.Sprintf("%t|%s|%s|%s|%s|%d", rec.Env, rec.Machine, rec.Job, rec.Phase, rec.Sensor, rec.T)] = struct{}{}
		}
		// The victim was fed binary frames (hod.Client.Ingest); the
		// oracle takes the same batches through the NDJSON door, so
		// every bytes_equal check is also a cross-codec check.
		body, err := wire.EncodeNDJSON(ab.records)
		if err != nil {
			res.check("oracle_ingest", false, err.Error())
			return
		}
		ack, err := oracle.client.IngestBody(ctx, ab.plant, "application/x-ndjson", body)
		if err != nil {
			res.check("oracle_ingest", false, err.Error())
			return
		}
		if ack.Records != ab.admitted {
			res.check("oracle_ingest", false, fmt.Sprintf(
				"oracle admitted %d of a batch the victim admitted %d of", ack.Records, ab.admitted))
			return
		}
		oracleAdmitted[ab.plant] += uint64(ack.Records)
	}
	for _, tr := range traces {
		if len(tr.jobs) > 0 {
			if _, err := oracle.client.Jobs(ctx, tr.spec.ID, tr.jobs); err != nil {
				res.check("oracle_ingest", false, err.Error())
				return
			}
		}
		dctx, cancel := context.WithTimeout(ctx, drainTimeout)
		err := oracle.client.WaitDrained(dctx, tr.spec.ID, oracleAdmitted[tr.spec.ID])
		cancel()
		if err != nil {
			res.check("oracle_drains", false, err.Error())
			return
		}
	}

	// Byte-compare every surface, folding the victim's bytes into the
	// determinism digest as we go.
	digest := sha256.New()
	httpc := newQueryClient()
	for _, tr := range traces {
		id := tr.spec.ID
		firstMachine := tr.topo.Lines[0].Machines[0]
		for _, q := range plantQueries(firstMachine) {
			want, errW := fetch(httpc, oracle.baseURL, id, q)
			got, errG := fetch(httpc, h.baseURL, id, q)
			name := "bytes_equal/" + id + q
			switch {
			case errW != nil || errG != nil:
				res.check(name, false, fmt.Sprintf("oracle err=%v, victim err=%v", errW, errG))
			case !bytes.Equal(want, got):
				res.check(name, false, fmt.Sprintf("oracle %d bytes != victim %d bytes\noracle: %.256s\nvictim: %.256s",
					len(want), len(got), want, got))
			default:
				res.check(name, true, "")
			}
			digest.Write([]byte(id))
			digest.Write([]byte(q))
			digest.Write(got)
		}
	}
	res.Digest = hex.EncodeToString(digest.Sum(nil))

	// No acked-then-lost records: every record the victim acknowledged
	// holds a folded cell. accepted_records counts fresh cells only, so
	// with the duplicate/replay traffic collapsed it must equal the
	// number of distinct acked coordinates — on victim and oracle alike.
	for _, tr := range traces {
		id := tr.spec.ID
		cells := uint64(len(distinct[id]))
		res.DistinctCells += cells
		vst, errV := h.client.Stats(ctx, id)
		ost, errO := oracle.client.Stats(ctx, id)
		if errV != nil || errO != nil {
			res.check("accepted_matches_acked/"+id, false, fmt.Sprintf("victim err=%v, oracle err=%v", errV, errO))
			continue
		}
		if rejected == 0 {
			res.check("accepted_matches_acked/"+id,
				vst.AcceptedRecords == cells,
				fmt.Sprintf("victim accepted %d, distinct acked cells %d", vst.AcceptedRecords, cells))
		}
		res.check("accepted_matches_oracle/"+id,
			vst.AcceptedRecords == ost.AcceptedRecords,
			fmt.Sprintf("victim accepted %d, oracle accepted %d", vst.AcceptedRecords, ost.AcceptedRecords))
	}
}

// newQueryClient is the plain client the verifier queries through — a
// separate transport, so leftover armed faults can never eat a
// comparison request.
func newQueryClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second}
}

func fetch(c *http.Client, base, plantID, q string) ([]byte, error) {
	resp, err := c.Get(base + "/v1/plants/" + plantID + q)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: status %d: %.200s", plantID, q, resp.StatusCode, body)
	}
	return body, nil
}
