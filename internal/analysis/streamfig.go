package analysis

import "sort"

// StreamingFigure summarizes the deadline-driven delivery metrics across a
// log set — the streaming analog of the paper's quality-of-service figures
// (startup delay in place of first-byte latency, rebuffers in place of
// pauses).
type StreamingFigure struct {
	Sessions int
	// Startup-delay distribution, milliseconds.
	StartupMeanMs float64
	StartupP50Ms  int64
	StartupP95Ms  int64
	// Rebuffering.
	PctWithRebuffer float64 // sessions with at least one stall
	RebufferEvents  int64
	RebufferMs      int64
	// Deadlines.
	DeadlineMissPct float64 // of all played pieces
	EdgeRescueBytes int64
}

// StreamingFigure derives the figure from the stream sums and the exact-only
// startup samples. Sessions is zero when the log had no streams; callers gate
// rendering on that. A sketched tally has no samples, so its percentiles
// read as zero.
func (t *Tally) StreamingFigure() StreamingFigure {
	s := t.stream
	f := StreamingFigure{
		Sessions:        int(s.n),
		RebufferEvents:  s.rebuffers,
		RebufferMs:      s.rebufferMs,
		DeadlineMissPct: pct(s.misses, s.played),
		EdgeRescueBytes: s.rescueBytes,
		PctWithRebuffer: pct(t.stalled, s.n),
	}
	if s.n > 0 {
		f.StartupMeanMs = float64(s.startupMs) / float64(s.n)
	}
	if n := len(t.startups); n > 0 {
		startups := append([]int64(nil), t.startups...)
		sort.Slice(startups, func(i, j int) bool { return startups[i] < startups[j] })
		f.StartupP50Ms = startups[n/2]
		f.StartupP95Ms = startups[n*95/100]
	}
	return f
}
