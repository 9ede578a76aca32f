package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
)

// decl declares one metric of the contract in ../BENCHMARK.json; the smoke
// test checks that the two lists agree. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type decl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the system sees, on every workload: how fast
// the workload's own operation completes, how long one takes, how much
// memory the process needed and how long it took to get ready. The README
// says which operation each workload counts.
var endToEnd = []decl{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// metric is one measured value. N is the number of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// quantile returns the q-quantile (nearest rank) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tail returns the highest of p90/p99/p99.9 that still has at least ten
// samples beyond it, with its label; with fewer than 100 samples it falls
// back to the maximum.
func tail(xs []float64) (label string, v float64) {
	s := sortedCopy(xs)
	switch n := len(s); {
	case n >= 10000:
		return "p99.9", quantile(s, 0.999)
	case n >= 1000:
		return "p99", quantile(s, 0.99)
	case n >= 100:
		return "p90", quantile(s, 0.90)
	default:
		return "max", quantile(s, 1)
	}
}

// peakRSSMB is this process's high-water resident set; every workload runs
// in a process of its own, so it is the workload's.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (m metric) String() string {
	return fmt.Sprintf("  %-38s %14.4f %-8s n=%d", m.Name, m.Value, m.Unit, m.N)
}
