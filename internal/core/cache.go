package core

import (
	"errors"
	"math"
	"sync"

	"repro/internal/detector/olapcube"
	"repro/internal/plant"
	"repro/internal/stats"
)

var errMissingRoomTemp = errors.New("core: environment series missing room-temp")

// memo is a resettable once: each getter fills its entry exactly once
// between invalidations, holding the entry lock across both the fill
// and the read so a concurrent reset+refill can never race a reader.
// Unlike sync.Once it can be reset, which is what lets a caller roll
// new data into a live cache without rebuilding the untouched entries.
// Refills always allocate fresh slices, so values returned before a
// reset stay valid for their holders.
type memo struct {
	mu   sync.Mutex
	done bool
}

// do runs fill once per validity window, then snap — both under the
// entry lock, so the pattern that keeps readers safe from a concurrent
// reset+refill lives in one place.
func (m *memo) do(fill, snap func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.done {
		fill()
		m.done = true
	}
	snap()
}

// reset marks the entry stale so the next getter refills it.
func (m *memo) reset() {
	m.mu.Lock()
	m.done = false
	m.mu.Unlock()
}

// PlantCache shares the plant-wide score computations across the
// machine hierarchies of one plant. The environment tracker and the
// production-level cube compare the whole shop floor, so without
// sharing every machine's Hierarchy recomputes them from scratch —
// once per machine for the experiments, and once per sibling lookup
// inside lineSupport. All methods are safe for concurrent use; the
// parallel experiment engine evaluates machines on one shared cache.
//
// The cache is additionally *invalidatable*: Rebind swaps in a new
// plant snapshot (dropping the plant-spanning production entry),
// InvalidateEnv drops the environment tracker, and InvalidateMachine
// drops one machine's line scores, so a roll-forward after fresh data
// recomputes only the changed subtrees. The serving layer does not use
// this — it builds a fresh cache per data revision — and the rebound
// replay benchmark (bench/replay.go) does.
type PlantCache struct {
	mu    sync.Mutex // guards plant pointer and the line map
	plant *plant.Plant

	envMemo memo
	env     []float64
	envErr  error

	prodMemo memo
	prod     []float64
	prodIdx  map[string]int
	prodErr  error

	line map[string]*lineEntry
}

type lineEntry struct {
	memo   memo
	scores []float64
	err    error
}

// NewPlantCache builds an empty cache for the plant. Hierarchies
// constructed with NewHierarchyWithCache over the same cache share
// every plant-level computation.
func NewPlantCache(p *plant.Plant) *PlantCache {
	return &PlantCache{plant: p, line: make(map[string]*lineEntry)}
}

// Plant returns the plant snapshot the cache is currently bound to.
func (c *PlantCache) Plant() *plant.Plant {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plant
}

// Rebind points the cache at a new plant snapshot and drops the
// production-level entry (it spans every machine, so any change
// invalidates it). The environment and per-machine line entries are
// kept: callers invalidate exactly the subtrees whose data changed via
// InvalidateEnv and InvalidateMachine.
func (c *PlantCache) Rebind(p *plant.Plant) {
	c.mu.Lock()
	c.plant = p
	c.mu.Unlock()
	c.prodMemo.reset()
}

// InvalidateEnv drops the cached environment scores; the next EnvScores
// call recomputes them from the bound plant.
func (c *PlantCache) InvalidateEnv() { c.envMemo.reset() }

// InvalidateMachine drops one machine's cached line scores. The
// production entry is left alone — pair with Rebind when machine data
// changed, which drops it.
func (c *PlantCache) InvalidateMachine(id string) {
	c.mu.Lock()
	e, ok := c.line[id]
	c.mu.Unlock()
	if ok {
		e.memo.reset()
	}
}

// EnvScores returns the level-3 drift scores (EWMA tracker over the
// room-temperature series), computed once per plant.
func (c *PlantCache) EnvScores() (scores []float64, err error) {
	c.envMemo.do(
		func() { c.env, c.envErr = computeEnvScores(c.Plant()) },
		func() { scores, err = c.env, c.envErr })
	return scores, err
}

// ProductionScores returns the level-5 cube scores for every machine
// plus the machine-ID → index mapping, computed once per plant.
func (c *PlantCache) ProductionScores() (scores []float64, idx map[string]int, err error) {
	c.prodMemo.do(
		func() { c.prod, c.prodIdx, c.prodErr = computeProductionScores(c.Plant()) },
		func() { scores, idx, err = c.prod, c.prodIdx, c.prodErr })
	return scores, idx, err
}

// LineScores returns the level-4 robust scores of one machine,
// computed once per machine — sibling-support lookups hit the cache
// instead of rebuilding the series. Each entry fills under its own
// lock, so concurrent fills for different machines never serialize.
func (c *PlantCache) LineScores(m *plant.Machine) ([]float64, error) {
	c.mu.Lock()
	e, ok := c.line[m.ID]
	if !ok {
		e = &lineEntry{}
		c.line[m.ID] = e
	}
	c.mu.Unlock()
	var scores []float64
	var err error
	e.memo.do(
		func() { e.scores, e.err = computeLineScores(m) },
		func() { scores, err = e.scores, e.err })
	return scores, err
}

func computeEnvScores(p *plant.Plant) ([]float64, error) {
	if p.Environment == nil {
		return nil, errMissingRoomTemp
	}
	room := p.Environment.Dim("room-temp")
	if room == nil {
		return nil, errMissingRoomTemp
	}
	tr := stats.NewEWMATracker(0.05)
	out := make([]float64, room.Len())
	for i, v := range room.Values {
		out[i] = tr.Add(v)
	}
	return out, nil
}

func computeProductionScores(p *plant.Plant) ([]float64, map[string]int, error) {
	series, err := p.ProductionSeries()
	if err != nil {
		return nil, nil, err
	}
	batch := make([][]float64, len(series))
	machines := p.Machines()
	idx := make(map[string]int, len(machines))
	for i, s := range series {
		batch[i] = s.Values
		idx[machines[i].ID] = i
	}
	var raw []float64
	if len(batch) >= 3 {
		d := olapcube.New()
		raw, err = d.ScoreSeries(batch)
		if err != nil {
			return nil, nil, err
		}
	} else {
		raw = make([]float64, len(batch))
	}
	return raw, idx, nil
}

func computeLineScores(m *plant.Machine) ([]float64, error) {
	ls, err := m.LineSeries()
	if err != nil {
		return nil, err
	}
	qs, err := m.QualitySeries()
	if err != nil {
		return nil, err
	}
	zTemp := stats.RobustZScores(ls.Values)
	zQual := stats.RobustZScores(qs.Values)
	out := make([]float64, len(zTemp))
	for i := range out {
		// A job is line-level anomalous when either its mean
		// temperature or its quality deviates.
		out[i] = math.Max(math.Abs(zTemp[i]), math.Abs(zQual[i]))
	}
	return out, nil
}
