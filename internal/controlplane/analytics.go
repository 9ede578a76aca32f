package controlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"

	"netsession/internal/analysis"
	"netsession/internal/geo"
	"netsession/internal/logpipe"
	"netsession/internal/telemetry"
)

// cpAnalytics is the control plane's live paper-metrics pipeline: every
// accepted download record — whether its entry arrived in-band on the
// control connection or through a logpipe batch — is folded into a sharded
// streaming summarizer, and the headline quantities are mirrored onto
// Prometheus series. The full document is served on GET /v1/analytics for
// the monitor's fleet view and the report dashboard.
type cpAnalytics struct {
	summarizer *analysis.ShardedTally

	// Per-region running byte totals, updated atomically on the record path
	// so the offload gauges cost O(1) per record instead of a full snapshot.
	regionIdx   map[string]int
	regionInfra [geo.NumRegions]atomic.Int64
	regionPeers [geo.NumRegions]atomic.Int64

	offload     [geo.NumRegions]*telemetry.Gauge
	intraAS     *telemetry.Counter
	interAS     *telemetry.Counter
	activeGUIDs *telemetry.Gauge
	observed    atomic.Int64

	// Streaming-delivery counters (§3.4), eager like the rest: deadline-driven
	// sessions booked, their rebuffer events, missed piece deadlines, and
	// urgent-window bytes the edge rescued.
	streamSessions    *telemetry.Counter
	streamRebuffers   *telemetry.Counter
	streamMisses      *telemetry.Counter
	streamRescueBytes *telemetry.Counter
}

// analyticsShards balances CN session-loop concurrency against snapshot
// merge cost; the summarizer keys shards by GUID, so any value works.
const analyticsShards = 8

// guidEstimateEvery bounds how often the record path pays for an HLL merge
// to refresh the active-GUID gauge.
const guidEstimateEvery = 64

// newCPAnalytics registers the analytics series eagerly — every region's
// offload gauge and both locality counters are visible at zero before the
// first record, so dashboards see series, not gaps.
func newCPAnalytics(reg *telemetry.Registry) *cpAnalytics {
	a := &cpAnalytics{
		summarizer: analysis.NewStreamingSummarizer(analyticsShards),
		regionIdx:  make(map[string]int, geo.NumRegions),
		intraAS: reg.Counter("cp_intra_as_bytes_total",
			"peer-uploaded bytes served within the downloader's AS", nil),
		interAS: reg.Counter("cp_inter_as_bytes_total",
			"peer-uploaded bytes that crossed an AS boundary", nil),
		activeGUIDs: reg.Gauge("cp_active_guids_estimate",
			"estimated distinct GUIDs seen in download reports (HyperLogLog)", nil),
		streamSessions: reg.Counter("cp_stream_sessions_total",
			"deadline-driven streaming downloads reported", nil),
		streamRebuffers: reg.Counter("cp_stream_rebuffer_events_total",
			"playback rebuffer events across reported streams", nil),
		streamMisses: reg.Counter("cp_stream_deadline_misses_total",
			"pieces reported unavailable at their playback deadline", nil),
		streamRescueBytes: reg.Counter("cp_stream_edge_rescue_bytes_total",
			"urgent-window bytes reported rescued from the edge", nil),
	}
	for r := 0; r < geo.NumRegions; r++ {
		name := geo.NetworkRegion(r).String()
		a.regionIdx[name] = r
		a.offload[r] = reg.Gauge("cp_offload_fraction",
			"fraction of the region's downloaded bytes served by peers",
			telemetry.Labels{"region": name})
	}
	return a
}

// observe folds one annotated record into the live aggregates. Called from
// CN session loops and the ingest handler; everything here is lock-free or
// sharded.
func (a *cpAnalytics) observe(d *analysis.OfflineDownload) {
	a.summarizer.Observe(d)
	if r, ok := a.regionIdx[d.Region]; ok {
		infra := a.regionInfra[r].Add(d.BytesInfra)
		peers := a.regionPeers[r].Add(d.BytesPeers)
		if total := infra + peers; total > 0 {
			a.offload[r].Set(float64(peers) / float64(total))
		}
	}
	var intra, inter int64
	for i := range d.FromPeers {
		if d.FromPeers[i].ASN == d.ASN {
			intra += d.FromPeers[i].Bytes
		} else {
			inter += d.FromPeers[i].Bytes
		}
	}
	if intra > 0 {
		a.intraAS.Add(intra)
	}
	if inter > 0 {
		a.interAS.Add(inter)
	}
	if st := d.Stream; st != nil {
		a.streamSessions.Inc()
		if st.RebufferCount > 0 {
			a.streamRebuffers.Add(st.RebufferCount)
		}
		if st.DeadlineMisses > 0 {
			a.streamMisses.Add(st.DeadlineMisses)
		}
		if st.EdgeRescueBytes > 0 {
			a.streamRescueBytes.Add(st.EdgeRescueBytes)
		}
	}
	if a.observed.Add(1)%guidEstimateEvery == 0 {
		a.activeGUIDs.Set(a.summarizer.ActiveGUIDs())
	}
}

// seedAnalytics folds the records already in the node's segment store into
// its live analytics through observe, the ingest path's fold, so a restarted
// node's /v1/analytics and gauges cover its whole store. StartNode calls it
// after OpenStore has sealed any leftover open segment and before a CN or
// the status surface serves, so no record is counted twice. A store the
// reader refuses (a damaged segment that is not the last) is returned as the
// error; an empty or new log dir seeds nothing.
func (cp *ControlPlane) seedAnalytics() error {
	if cp.store == nil || !logpipe.HasSegments(cp.store.Dir()) {
		return nil
	}
	_, err := logpipe.ForEachDownloadParallel(cp.store.Dir(), runtime.GOMAXPROCS(0), func(d *analysis.OfflineDownload) error {
		cp.analytics.observe(d)
		return nil
	})
	if err != nil {
		return fmt.Errorf("controlplane: seed analytics from %s: %w", cp.store.Dir(), err)
	}
	// Concurrent observe calls can leave a gauge on a value an earlier
	// record computed; set them from the final totals.
	a := cp.analytics
	for r := range a.offload {
		if infra, peers := a.regionInfra[r].Load(), a.regionPeers[r].Load(); infra+peers > 0 {
			a.offload[r].Set(float64(peers) / float64(infra+peers))
		}
	}
	a.activeGUIDs.Set(a.summarizer.ActiveGUIDs())
	return nil
}

// Analytics returns the control plane's live streaming summary. The
// active-GUID gauge is refreshed on the way so a scrape that reads both
// surfaces sees consistent numbers.
func (cp *ControlPlane) Analytics() analysis.StreamingSummary {
	sum := cp.analytics.summarizer.Snapshot()
	cp.analytics.activeGUIDs.Set(sum.ActiveGUIDs)
	return sum
}

// AnalyticsHandler serves the streaming summary as JSON on GET /v1/analytics.
func (cp *ControlPlane) AnalyticsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(cp.Analytics())
	})
}
