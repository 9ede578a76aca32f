package sim

import (
	"time"

	"netsession/internal/geo"
	"netsession/internal/protocol"
	"netsession/internal/telemetry"
)

// simMetrics pre-resolves the simulator's metric handles. Counters are
// atomic and shared across shards (their final values are order-independent
// sums); gauges are written only by per-shard snapshots for per-region
// series, or by the coordinator for run-wide totals.
type simMetrics struct {
	reg *telemetry.Registry

	started        *telemetry.Counter
	byOutcome      [protocol.OutcomeAborted + 1]*telemetry.Counter
	activeFlows    *telemetry.Gauge
	faultsInjected *telemetry.Counter

	virtualMs    *telemetry.Gauge
	events       *telemetry.Gauge
	eventsPerSec *telemetry.Gauge
	virtWallX    *telemetry.Gauge

	// shardEvents counts events executed per region shard; comparing the
	// per-region series on /metrics makes shard imbalance visible.
	shardEvents [geo.NumRegions]*telemetry.Counter
	// mergeWait is how long (wall ms) the worker pool idled on its slowest
	// shards: from the first worker finding the shard queue empty to the
	// last worker finishing — the cost of imbalance.
	mergeWait *telemetry.Gauge
}

func newSimMetrics(reg *telemetry.Registry) *simMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &simMetrics{
		reg: reg,
		started: reg.Counter("sim_downloads_started_total",
			"workload requests started", nil),
		activeFlows: reg.Gauge("sim_active_flows",
			"downloads currently in flight", nil),
		faultsInjected: reg.Counter("sim_faults_injected_total",
			"serving peers killed mid-download by the fault layer", nil),
		virtualMs: reg.Gauge("sim_virtual_ms",
			"virtual clock position in milliseconds", nil),
		events: reg.Gauge("sim_events_executed",
			"cumulative simulator events executed", nil),
		eventsPerSec: reg.Gauge("sim_events_per_sec",
			"simulator event throughput (events per wall-clock second)", nil),
		virtWallX: reg.Gauge("sim_virtual_wall_ratio",
			"virtual seconds simulated per wall-clock second", nil),
		mergeWait: reg.Gauge("sim_merge_wait_ms",
			"wall-clock ms from the first shard worker going idle to the last finishing (shard imbalance)", nil),
	}
	for o := protocol.OutcomeCompleted; o <= protocol.OutcomeAborted; o++ {
		m.byOutcome[o] = reg.Counter("sim_downloads_finished_total",
			"finished downloads, by outcome", telemetry.Labels{"outcome": o.String()})
	}
	for r := 0; r < geo.NumRegions; r++ {
		m.shardEvents[r] = reg.Counter("sim_shard_events_total",
			"simulator events executed, by region shard",
			telemetry.Labels{"region": geo.NetworkRegion(r).String()})
	}
	return m
}

// snapshotLoop emits a per-region progress line every intervalMs of virtual
// time and keeps the region's event counter fresh. It reschedules itself
// until the engine's horizon cuts it off; the interval rides in the event
// argument so no closure is needed.
func (sh *shard) snapshotLoop(intervalMs int64) {
	sh.eng.After(intervalMs, sh.onSnapshot, uint64(intervalMs))
}

func (sh *shard) handleSnapshot(intervalMs uint64) {
	sh.logSnapshot()
	sh.snapshotLoop(int64(intervalMs))
}

// logSnapshot publishes the shard's own progress: one text line and the
// per-region event counter. Lines from parallel shards interleave in
// wall-clock order (they are progress diagnostics); the record logs the
// run returns are merged deterministically instead.
func (sh *shard) logSnapshot() {
	events := sh.eng.Executed()
	sh.metrics.shardEvents[sh.region].Add(int64(events - sh.lastEvents))
	sh.lastEvents = events
	sh.logf("sim region=%s t=%.2fd events=%d flows=%d finished=%d",
		sh.region, float64(sh.eng.Now())/86_400_000, events, sh.activeFlows, sh.finishedFlows)
}

// finalSnapshot publishes run-wide totals once every shard has finished.
func (s *Sim) finalSnapshot(untilMs int64, events int) {
	wall := time.Since(s.wallStart).Seconds()
	if wall <= 0 {
		wall = 1e-9
	}
	eps := float64(events) / wall
	virtSec := float64(untilMs) / 1000
	ratio := virtSec / wall
	active, finished := 0, 0
	for _, sh := range s.shards {
		active += sh.activeFlows
		finished += sh.finishedFlows
	}
	s.metrics.virtualMs.Set(float64(untilMs))
	s.metrics.events.Set(float64(events))
	s.metrics.eventsPerSec.Set(eps)
	s.metrics.virtWallX.Set(ratio)
	s.metrics.activeFlows.Set(float64(active))
	s.cfg.Logf("sim t=%.2fd events=%d events/sec=%.0f virt/wall=%.0fx flows=%d finished=%d workers=%d",
		float64(untilMs)/86_400_000, events, eps, ratio, active, finished, s.workerCount())
}
