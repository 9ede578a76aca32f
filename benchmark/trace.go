package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call: nothing inside the program is instrumented. Spans of one download,
// batch or control operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: the root of its operation
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the recorder started
	End    int64  `json:"endNs"`
	// Weight splits time that sibling spans cover together; a stage window
	// built from Download.Trace() carries its mean concurrency.
	Weight float64 `json:"weight"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced run pays nothing for tracing.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// op allocates the identifier the spans of one operation share.
func (r *recorder) op() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// begin opens a span and returns its ID for end and for child spans.
func (r *recorder) begin(parent, op int, layer, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: op,
		Layer: layer, Name: name, Start: now, Weight: 1,
	})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval is already known.
func (r *recorder) add(parent, op int, layer, name string, start, end time.Time, weight float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Weight: weight,
	})
}

// selfTime is the time attributed to one (layer, span name) pair.
type selfTime struct {
	Layer, Name string
	Ns          float64
	Count       int
}

// selfTimes attributes every root span's duration to the spans below it: a
// span's self time is its interval minus what its children cover, and time
// that several siblings cover together is split between them by weight. The
// returned rows therefore sum to the total of the root durations.
func (r *recorder) selfTimes() (rows []selfTime, total float64) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	acc := map[[2]string]*selfTime{}
	var attribute func(i int, budget float64)
	attribute = func(i int, budget float64) {
		s := spans[i]
		key := [2]string{s.Layer, s.Name}
		row := acc[key]
		if row == nil {
			row = &selfTime{Layer: s.Layer, Name: s.Name}
			acc[key] = row
		}
		row.Count++
		kids := children[s.ID]
		dur := float64(s.End - s.Start)
		if dur <= 0 || len(kids) == 0 {
			row.Ns += budget
			return
		}
		// Cut the span at every child boundary and share out each piece.
		cuts := []int64{s.Start, s.End}
		for _, k := range kids {
			cuts = append(cuts, clamp(spans[k].Start, s.Start, s.End), clamp(spans[k].End, s.Start, s.End))
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		kidNs := make([]float64, len(kids))
		self := 0.0
		for c := 0; c+1 < len(cuts); c++ {
			a, b := cuts[c], cuts[c+1]
			if a == b {
				continue
			}
			sumW := 0.0
			for _, k := range kids {
				if spans[k].Start <= a && spans[k].End >= b {
					sumW += spans[k].Weight
				}
			}
			if sumW == 0 {
				self += float64(b - a)
				continue
			}
			for j, k := range kids {
				if spans[k].Start <= a && spans[k].End >= b {
					kidNs[j] += float64(b-a) * spans[k].Weight / sumW
				}
			}
		}
		scale := budget / dur
		row.Ns += self * scale
		for j, k := range kids {
			attribute(k, kidNs[j]*scale)
		}
	}
	for i, s := range spans {
		if s.Parent == 0 {
			d := float64(s.End - s.Start)
			total += d
			attribute(i, d)
		}
	}
	for _, row := range acc {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Ns > rows[b].Ns })
	return rows, total
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// layerShares folds selfTimes by layer into shares of the total.
func layerShares(rows []selfTime, total float64) map[string]float64 {
	out := map[string]float64{}
	if total <= 0 {
		return out
	}
	for _, r := range rows {
		out[r.Layer] += r.Ns / total
	}
	return out
}

// printShareTable shows where the workload's wall time went, by layer and
// span name. The shares sum to 1 by construction.
func printShareTable(rows []selfTime, total float64) {
	fmt.Println("  self-time shares (sum of operation wall times = 1):")
	for _, r := range rows {
		fmt.Printf("    %-13s %-22s %6.1f%%  mean %9.3f ms  n=%d\n",
			r.Layer, r.Name, 100*r.Ns/total, r.Ns/float64(r.Count)/1e6, r.Count)
	}
}

func (r *recorder) writeFile(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
