// Package analysis computes every table and figure of the paper's
// evaluation (Sections 4–6) from a NetSession log set — whether that log
// came from the live control plane or from the simulator. Analyze walks a
// month's logs once; each Table*/Figure* view of the result returns a
// structured result, and Month.Report turns them into the text blocks
// EXPERIMENTS.md records.
package analysis

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// FractionBelow returns P(X <= x).
func (c *CDF) FractionBelow(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	ix := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(ix) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	ix := int(q * float64(len(c.sorted)-1))
	return c.sorted[ix]
}

// Points samples the CDF at the given x values, returning P(X <= x) for
// each — the series a plot would draw.
func (c *CDF) Points(xs []float64) []Point {
	out := make([]Point, len(xs))
	for i, x := range xs {
		out[i] = Point{X: x, Y: 100 * c.FractionBelow(x)}
	}
	return out
}

// Point is one (x, y) pair of a rendered series.
type Point struct {
	X float64
	Y float64
}

// LogSpace returns n log-spaced values from lo to hi inclusive.
func LogSpace(lo, hi float64, n int) []float64 {
	if n < 2 || lo <= 0 || hi <= lo {
		return []float64{lo, hi}
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := 0; i < n; i++ {
		out[i] = v
		v *= ratio
	}
	return out
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) of xs.
func Percentile(xs []float64, p float64) float64 {
	return NewCDF(xs).Quantile(p / 100)
}

// Bucket is a generic aggregation bucket with mean and spread.
type Bucket struct {
	Label string
	X     float64 // representative x (e.g. bucket center)
	N     int
	Mean  float64
	P20   float64
	P80   float64
}

// BucketizeLog groups (x, y) samples into log-spaced x buckets and reports
// the mean and 20th/80th percentiles of y per bucket — the error-bar format
// of Figures 5 and 6.
func BucketizeLog(xs, ys []float64, lo, hi float64, nBuckets int) []Bucket {
	if len(xs) != len(ys) || nBuckets < 1 || lo <= 0 || hi <= lo {
		return nil
	}
	edges := LogSpace(lo, hi, nBuckets+1)
	groups := make([][]float64, nBuckets)
	for i, x := range xs {
		if x < lo || x > hi {
			continue
		}
		b := sort.SearchFloat64s(edges, x) - 1
		if b < 0 {
			b = 0
		}
		if b >= nBuckets {
			b = nBuckets - 1
		}
		groups[b] = append(groups[b], ys[i])
	}
	var out []Bucket
	for b, g := range groups {
		if len(g) == 0 {
			continue
		}
		out = append(out, Bucket{
			X:    math.Sqrt(edges[b] * edges[b+1]),
			N:    len(g),
			Mean: Mean(g),
			P20:  Percentile(g, 20),
			P80:  Percentile(g, 80),
		})
	}
	return out
}
