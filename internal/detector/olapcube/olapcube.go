// Package olapcube implements the unsupervised online OLAP detector of
// Li & Han (2007, top-k subspace anomalies) — Table 1 row "Online
// Analytical Processing Cube [20]", family UOA, granularities PTS and
// TSS.
//
// Facts (time bucket × optional context dimensions, measure = sensor
// value) populate a cube; inside every subspace of the cuboid lattice,
// a cell's anomaly score is its robust deviation from its sibling cells.
// A point inherits the worst score of its time bucket across subspaces.
package olapcube

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/detector"
	"repro/internal/olap"
	"repro/internal/stats"
)

// Detector is an OLAP subspace-anomaly scorer.
type Detector struct {
	buckets int
}

// Option configures a Detector.
type Option func(*Detector)

// WithBuckets sets the number of time buckets per series (default 32).
func WithBuckets(b int) Option {
	return func(d *Detector) { d.buckets = b }
}

// New builds the detector.
func New(opts ...Option) *Detector {
	d := &Detector{buckets: 32}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Info implements detector.Detector.
func (d *Detector) Info() detector.Info {
	return detector.Info{
		Name:       "olap-cube",
		Title:      "Online Analytical Processing Cube",
		Citation:   "[20]",
		Family:     detector.FamilyUOA,
		Capability: detector.Capability{Points: true, Series: true},
	}
}

// medianBuf owns the two reusable buffers the per-subspace and
// per-bucket robust statistics share, so the scoring loops allocate
// once per call instead of once per group.
type medianBuf struct {
	vals    []float64
	scratch []float64
}

// means returns a length-n value buffer and sizes the selection
// scratch to match, reusing prior capacity.
func (b *medianBuf) means(n int) []float64 {
	if cap(b.vals) < n {
		b.vals = make([]float64, n)
		b.scratch = make([]float64, n)
	}
	return b.vals[:n]
}

// CellScore couples a cube cell with its subspace anomaly score.
type CellScore struct {
	Subspace []string
	Coord    []string
	Score    float64
}

// ScoreCube scores every cell of every subspace of the cube by robust
// deviation of the cell mean from its subspace siblings. It returns the
// scores sorted by the cube's deterministic cell order per subspace.
func ScoreCube(c *olap.Cube) ([]CellScore, error) {
	var out []CellScore
	var buf medianBuf
	for _, dims := range c.Subspaces() {
		cells, err := c.RollUp(dims...)
		if err != nil {
			return nil, err
		}
		if len(cells) < 3 {
			continue
		}
		means := buf.means(len(cells))
		for i, cell := range cells {
			means[i] = cell.Mean
		}
		med, mad := stats.MedianMAD(means, buf.scratch)
		if stats.DegenerateMAD(mad) {
			// Fall back to standard deviation for near-constant
			// subspaces.
			_, sd := stats.MeanStd(means)
			if sd == 0 {
				continue
			}
			mad = sd
		}
		for i, cell := range cells {
			out = append(out, CellScore{
				Subspace: dims,
				Coord:    cell.Coord,
				Score:    math.Abs(means[i]-med) / mad,
			})
		}
	}
	return out, nil
}

// TopK returns the k highest-scoring cells across all subspaces.
func TopK(scores []CellScore, k int) []CellScore {
	cp := append([]CellScore(nil), scores...)
	for i := 0; i < len(cp); i++ {
		for j := i + 1; j < len(cp); j++ {
			if cp[j].Score > cp[i].Score {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	if k > len(cp) {
		k = len(cp)
	}
	return cp[:k]
}

// ScorePoints implements detector.PointScorer: the series is bucketed
// into time cells of a 1-D cube; each point inherits its bucket's
// robust deviation score.
func (d *Detector) ScorePoints(values []float64) ([]float64, error) {
	n := len(values)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty series", detector.ErrInput)
	}
	buckets := d.buckets
	if buckets > n {
		buckets = n
	}
	cube, err := olap.New("time")
	if err != nil {
		return nil, err
	}
	per := (n + buckets - 1) / buckets
	for i, v := range values {
		if err := cube.AddFact([]string{bucketName(i / per)}, v); err != nil {
			return nil, err
		}
	}
	cellScores, err := ScoreCube(cube)
	if err != nil {
		return nil, err
	}
	byBucket := make(map[string]float64, len(cellScores))
	for _, cs := range cellScores {
		byBucket[cs.Coord[0]] = cs.Score
	}
	out := make([]float64, n)
	for i := range values {
		out[i] = byBucket[bucketName(i/per)]
	}
	// Within-bucket refinement: scale each point by its local deviation
	// so the anomalous point inside a flagged bucket stands out. One
	// scratch buffer serves every bucket's median/MAD selection.
	scratch := make([]float64, per)
	for b := 0; b*per < n; b++ {
		lo, hi := b*per, (b+1)*per
		if hi > n {
			hi = n
		}
		seg := values[lo:hi]
		med, mad := stats.MedianMAD(seg, scratch)
		if stats.DegenerateMAD(mad) {
			continue
		}
		for i := lo; i < hi; i++ {
			local := math.Abs(values[i]-med) / mad
			out[i] = out[i] * (1 + local)
		}
	}
	return out, nil
}

// ScoreSeries implements detector.SeriesScorer: each series is one
// member of a "series" dimension crossed with coarse time buckets; a
// series scores by the maximum deviation of its cells within sibling
// groups, matching the cube drill-across the cited work performs over
// multi-dimensional time series data.
func (d *Detector) ScoreSeries(batch [][]float64) ([]float64, error) {
	if len(batch) < 3 {
		return nil, fmt.Errorf("%w: need at least 3 series", detector.ErrInput)
	}
	cube, err := olap.New("series", "time")
	if err != nil {
		return nil, err
	}
	const timeCells = 8
	for si, s := range batch {
		if len(s) == 0 {
			return nil, fmt.Errorf("%w: series %d empty", detector.ErrInput, si)
		}
		per := (len(s) + timeCells - 1) / timeCells
		for i, v := range s {
			err := cube.AddFact([]string{"s" + strconv.Itoa(si), bucketName(i / per)}, v)
			if err != nil {
				return nil, err
			}
		}
	}
	out := make([]float64, len(batch))
	// For every time bucket, compare the series' cell means across the
	// series dimension (siblings at fixed time).
	var buf medianBuf
	for t := 0; t < timeCells; t++ {
		cells, err := cube.Slice(map[string]string{"time": bucketName(t)})
		if err != nil {
			return nil, err
		}
		if len(cells) < 3 {
			continue
		}
		means := buf.means(len(cells))
		for i, c := range cells {
			means[i] = c.Mean
		}
		med, mad := stats.MedianMAD(means, buf.scratch)
		if stats.DegenerateMAD(mad) {
			continue
		}
		for i, c := range cells {
			var si int
			if _, err := fmt.Sscanf(c.Coord[0], "s%d", &si); err != nil {
				return nil, fmt.Errorf("olapcube: bad series member %q: %w", c.Coord[0], err)
			}
			score := math.Abs(means[i]-med) / mad
			if score > out[si] {
				out[si] = score
			}
		}
	}
	return out, nil
}

func bucketName(b int) string { return "t" + strconv.Itoa(b) }
