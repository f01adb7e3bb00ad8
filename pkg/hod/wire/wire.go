// Package wire is the single source of truth for the v1 HTTP protocol
// of the fleet serving layer: every request and response body, the
// error envelope, and the codecs of the two ingest doors — NDJSON for
// curl, and binary columnar frames (frame.go), which every Go client
// sends. DecodeCSV converts a plantsim trace on the client side; the
// server takes no CSV. The server (internal/server) and the typed
// client (pkg/hod.Client) both compile against these types, so a
// protocol change happens in exactly one place — and the golden-file
// test in this package pins the JSON encoding of every type, so it
// cannot happen silently.
//
// The package is dependency-free standard-library Go and importable
// from outside the module.
package wire

import (
	"fmt"
	"unicode/utf8"
)

// Default level-2 vector widths — the simulator's setup (layer height,
// speed, setpoint, extrusion, viscosity) and CAQ (dimensional error,
// roughness, porosity, tensile, warp, completion) shapes. Clients
// converting plantsim jobs.csv rows split the columns with the same
// constants the server registers by default.
const (
	DefaultSetupDims = 5
	DefaultCAQDims   = 6
)

// MaxBatchRecords caps the records of one ingest request. The decode
// helpers reject bigger batches before buffering them.
const MaxBatchRecords = 1 << 20

// Level enumerates the five production levels of the paper's Fig. 2,
// ordered from the most detailed view (phase) to the most aggregated
// (production). On the wire a level travels as its integer 1..5.
type Level int

// The five hierarchy levels.
const (
	LevelPhase Level = iota + 1
	LevelJob
	LevelEnvironment
	LevelProductionLine
	LevelProduction
)

// Valid reports whether l is one of the five levels.
func (l Level) Valid() bool { return l >= LevelPhase && l <= LevelProduction }

// String names the level like the paper does.
func (l Level) String() string {
	switch l {
	case LevelPhase:
		return "phase"
	case LevelJob:
		return "job"
	case LevelEnvironment:
		return "environment"
	case LevelProductionLine:
		return "production-line"
	case LevelProduction:
		return "production"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ParseLevel accepts a level by number ("1".."5") or by name; the
// empty string means the default start level (phase).
func ParseLevel(s string) (Level, error) {
	switch s {
	case "", "1", "phase":
		return LevelPhase, nil
	case "2", "job":
		return LevelJob, nil
	case "3", "environment", "env":
		return LevelEnvironment, nil
	case "4", "production-line", "line":
		return LevelProductionLine, nil
	case "5", "production":
		return LevelProduction, nil
	}
	return 0, fmt.Errorf("wire: unknown level %q (want 1..5 or phase|job|environment|production-line|production)", s)
}

// Record is one ingested observation: either a machine sensor sample
// (Machine/Job/Phase set) or an environment sample (Env true).
type Record struct {
	Machine string  `json:"machine,omitempty"`
	Job     string  `json:"job,omitempty"`
	Phase   string  `json:"phase,omitempty"`
	Sensor  string  `json:"sensor"`
	T       int     `json:"t"`
	Value   float64 `json:"value"`
	Env     bool    `json:"env,omitempty"`
}

// JobMeta carries the level-2 vectors of one job (setup parameters and
// the CAQ quality vector), ingested out of band of the sensor stream.
type JobMeta struct {
	Machine string    `json:"machine"`
	Job     string    `json:"job"`
	Setup   []float64 `json:"setup"`
	CAQ     []float64 `json:"caq"`
	Faulty  bool      `json:"faulty,omitempty"`
}

// Topology registers one plant: its line/machine layout plus the phase
// schedule and sensor set every machine shares. Omitted phase, sensor
// and dimension fields take the server's defaults (the simulator's
// shapes), so a plantsim trace replays without ceremony.
type Topology struct {
	ID         string     `json:"id"`
	Lines      []TopoLine `json:"lines"`
	Phases     []string   `json:"phases,omitempty"`
	Sensors    []string   `json:"sensors,omitempty"`
	EnvSensors []string   `json:"env_sensors,omitempty"`
	SetupDims  int        `json:"setup_dims,omitempty"`
	CAQDims    int        `json:"caq_dims,omitempty"`
}

// TopoLine is one production line of the registered fleet.
type TopoLine struct {
	ID       string   `json:"id"`
	Machines []string `json:"machines"`
}

// Validate checks the parts of a topology the server will reject:
// missing ids, empty lines, duplicate machines, control characters in
// identifiers (reserved by the cube's coordinate keys), too-narrow
// setup vectors.
func (t Topology) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("wire: topology needs an id")
	}
	if len(t.Lines) == 0 {
		return fmt.Errorf("wire: topology %s has no lines", t.ID)
	}
	seen := map[string]bool{}
	for _, l := range t.Lines {
		if l.ID == "" {
			return fmt.Errorf("wire: topology %s has a line without id", t.ID)
		}
		if err := ValidIdent("line", l.ID); err != nil {
			return err
		}
		if len(l.Machines) == 0 {
			return fmt.Errorf("wire: line %s has no machines", l.ID)
		}
		for _, m := range l.Machines {
			if m == "" {
				return fmt.Errorf("wire: line %s has an empty machine id", l.ID)
			}
			if err := ValidIdent("machine", m); err != nil {
				return err
			}
			if seen[m] {
				return fmt.Errorf("wire: machine %s registered twice", m)
			}
			seen[m] = true
		}
	}
	for _, kind := range []struct {
		name string
		ids  []string
	}{
		{"phase", t.Phases}, {"sensor", t.Sensors}, {"environment sensor", t.EnvSensors},
	} {
		for _, id := range kind.ids {
			if err := ValidIdent(kind.name, id); err != nil {
				return err
			}
		}
	}
	if t.SetupDims != 0 && t.SetupDims < 3 {
		return fmt.Errorf("wire: setup_dims must be >= 3 (index 2 is the setpoint)")
	}
	return nil
}

// ValidIdent rejects identifiers that are not valid UTF-8 or carry
// control characters — topology ids (and the free-form job ids the
// ingest path vets with the same rule) become cube coordinate members,
// whose keys reserve the 0x1f separator (and sibling control bytes buy
// nothing but trouble in CSV and log output either). A binary frame
// carries raw bytes, so without the UTF-8 check two distinct invalid
// names would both decode to U+FFFD in every JSON answer. The one
// policy definition for registration, ingest, and restore gates.
func ValidIdent(kind, id string) error {
	if !utf8.ValidString(id) {
		return fmt.Errorf("wire: %s id %q is not valid UTF-8", kind, id)
	}
	for _, r := range id {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("wire: %s id %q contains a control character", kind, id)
		}
	}
	return nil
}

// RegisterAck acknowledges a plant registration.
type RegisterAck struct {
	ID         string `json:"id"`
	Lines      int    `json:"lines"`
	Machines   int    `json:"machines"`
	Shards     int    `json:"shards"`
	QueueDepth int    `json:"queue_depth"`
}

// PlantList is the GET /v1/plants response.
type PlantList struct {
	Plants []string `json:"plants"`
}

// IngestAck acknowledges one sample batch: how many records were
// admitted, how many failed validation, and the first rejection reason
// (empty when everything was admitted).
type IngestAck struct {
	Records        int    `json:"records"`
	Rejected       int    `json:"rejected"`
	FirstRejection string `json:"first_rejection,omitempty"`
}

// JobsAck acknowledges a job-metadata batch.
type JobsAck struct {
	Jobs           int    `json:"jobs"`
	Rejected       int    `json:"rejected"`
	FirstRejection string `json:"first_rejection,omitempty"`
}

// Outlier is the algorithm's result record on the wire: the paper's
// triple ⟨global score, outlierness, support⟩ plus the location of the
// finding. Levels travel as integers 1..5.
type Outlier struct {
	Level       Level   `json:"level"`
	Sensor      string  `json:"sensor,omitempty"` // phase level only
	Index       int     `json:"index"`            // position on the start level's axis
	JobIndex    int     `json:"job"`              // the job the finding falls into
	GlobalScore int     `json:"global_score"`
	Outlierness float64 `json:"outlierness"`
	Support     float64 `json:"support"`
	// SeenAt lists every level that confirmed the outlier during the
	// global-score recursion (includes the start level).
	SeenAt []Level `json:"seen_at"`
}

// Warning is a measurement-error warning from Algorithm 1's downward
// pass: an outlier visible at Level but absent at Below.
type Warning struct {
	Level    Level  `json:"level"`
	Below    Level  `json:"below"`
	JobIndex int    `json:"job"`
	Sensor   string `json:"sensor,omitempty"`
	Reason   string `json:"reason"`
}

// FleetOutlier is one outlier of the fleet report, tagged with the
// machine it belongs to.
type FleetOutlier struct {
	Machine string `json:"machine"`
	Outlier
}

// FleetWarning is one measurement-error warning, machine-tagged.
type FleetWarning struct {
	Machine string `json:"machine"`
	Reason  string `json:"reason"`
}

// ReportResponse is the fleet outlier report: per-machine Algorithm 1
// runs over the incremental snapshot, ranked fleet-wide, top-K
// truncated.
type ReportResponse struct {
	Plant         string         `json:"plant"`
	Level         string         `json:"level"`
	Machines      []string       `json:"machines"`
	Missing       []string       `json:"missing,omitempty"`
	TotalOutliers int            `json:"total_outliers"`
	TopK          int            `json:"top_k"`
	Outliers      []FleetOutlier `json:"outliers"`
	Warnings      []FleetWarning `json:"warnings,omitempty"`
	DataRevision  uint64         `json:"data_revision"`
}

// RollupNode is one aggregate of the incremental roll-up tree.
type RollupNode struct {
	Key   string  `json:"key"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// RollupResponse is the GET rollup body.
type RollupResponse struct {
	Plant string       `json:"plant"`
	Level string       `json:"level"`
	Nodes []RollupNode `json:"nodes"`
}

// Cube query operations accepted by GET /v1/plants/{id}/cube.
const (
	CubeOpSlice     = "slice"
	CubeOpRollup    = "rollup"
	CubeOpMembers   = "members"
	CubeOpDrilldown = "drilldown"
)

// CubeDims returns the dimension names of the v1 serving cube, in
// coordinate order — the single definition the server's incremental
// cube and the SDK's batch builder both construct from.
func CubeDims() []string {
	return []string{"line", "machine", "job", "phase", "sensor"}
}

// CubeCell is one aggregate cell of the OLAP cube: the coordinate
// along the response's Dims plus the measure aggregates folded from
// every fact landing in the cell.
type CubeCell struct {
	Coord []string `json:"coord"`
	Count int      `json:"count"`
	Sum   float64  `json:"sum"`
	Mean  float64  `json:"mean"`
	Min   float64  `json:"min"`
	Max   float64  `json:"max"`
}

// CubeResponse is the GET cube body: the answer to one slice, rollup,
// members, or drilldown query over the plant's incrementally
// maintained cube. Dims names the coordinate axes of Cells (in order);
// Where echoes the applied dim=member constraints sorted by dimension;
// TotalCells counts the materialised cells of the full cube the query
// ran against. Cells are in deterministic coordinate order.
type CubeResponse struct {
	Plant      string     `json:"plant"`
	Op         string     `json:"op"`
	Dims       []string   `json:"dims"`
	Where      []string   `json:"where,omitempty"`
	Members    []string   `json:"members,omitempty"`
	Cells      []CubeCell `json:"cells,omitempty"`
	TotalCells int        `json:"total_cells"`
}

// Alert is one streaming detection event raised at ingest time by the
// per-sensor EWMA tracker — the live complement of the batch report.
// Seq is the plant-wide alert sequence number assigned in fold order;
// push subscribers deduplicate and resume by it.
type Alert struct {
	Seq     uint64  `json:"seq"`
	Machine string  `json:"machine"`
	Phase   string  `json:"phase"`
	Sensor  string  `json:"sensor"`
	T       int     `json:"t"`
	Value   float64 `json:"value"`
	Score   float64 `json:"score"`
}

// AlertsResponse is the GET alerts body.
type AlertsResponse struct {
	Plant  string  `json:"plant"`
	Alerts []Alert `json:"alerts"`
}

// StatsResponse reports one plant's ingest counters, queue depths,
// and durability gauges. ReceivedRecords counts every valid record
// folded through the pipeline — fresh or idempotent replay — which is
// what drain-watchers must poll (AcceptedRecords counts only fresh
// cells, so a re-sent trace never advances it). WALSegments and
// SnapshotRev are zero when the server runs without a data dir.
type StatsResponse struct {
	Plant           string `json:"plant"`
	AcceptedRecords uint64 `json:"accepted_records"`
	ReceivedRecords uint64 `json:"received_records"`
	RejectedRecords uint64 `json:"rejected_records"`
	ShedBatches     uint64 `json:"shed_batches"`
	DataRevision    uint64 `json:"data_revision"`
	Shards          int    `json:"shards"`
	QueueDepths     []int  `json:"queue_depths"`
	WALSegments     int    `json:"wal_segments"`
	SnapshotRev     uint64 `json:"snapshot_rev"`
}

// RestoreAck acknowledges a POST restore: the plant now serves the
// backup's state.
type RestoreAck struct {
	ID          string `json:"id"`
	Machines    int    `json:"machines"`
	Records     uint64 `json:"records"` // received_records carried by the backup
	SnapshotRev uint64 `json:"snapshot_rev"`
}

// Machine-readable error codes of the v1 API. The typed client maps
// them onto errors.Is-able sentinel values.
const (
	CodeBadRequest        = "bad_request"
	CodeBadFrame          = "bad_frame"
	CodeUnknownPlant      = "unknown_plant"
	CodeUnknownMachine    = "unknown_machine"
	CodeAlreadyRegistered = "already_registered"
	CodeBackpressure      = "backpressure"
	CodeShuttingDown      = "shutting_down"
	CodeNoData            = "no_data"
	CodeVectorDims        = "vector_dims"
	CodeInternal          = "internal"
	CodeUnauthorized      = "unauthorized"
	CodeForbidden         = "forbidden"
	CodeRateLimited       = "rate_limited"
	// Cluster-mode codes: the node answering is not the plant's owner
	// at the current epoch, or ownership is in flux (a promotion or a
	// plant move). Both ride a 503 + Retry-After and are safe to retry.
	CodeNotOwner = "not_owner"
	CodeFailover = "failover"
)

// ErrorBody is the machine-readable half of an error response.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the body of every non-2xx v1 response:
// {"error":{"code":"...","message":"..."}}.
type ErrorEnvelope struct {
	Err ErrorBody `json:"error"`
}
