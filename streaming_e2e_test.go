package netsession

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"netsession/internal/analysis"
	"netsession/internal/logpipe"
	"netsession/internal/peer"
	"netsession/internal/protocol"
	"netsession/internal/streaming"
)

// streamStart starts a deadline-driven download, retrying while the edge is
// in a fault window (authorization fails while it is flapped down).
func streamStart(t *testing.T, p *Peer, oid ObjectID, cfg streaming.Config) *Download {
	t.Helper()
	var dl *Download
	if !chaosEventually(30*time.Second, func() bool {
		var err error
		dl, err = p.DownloadWith(oid, peer.DownloadOpts{Streaming: &cfg})
		return err == nil
	}) {
		t.Fatal("streaming download never started")
	}
	return dl
}

// TestStreamingE2EDelivery is the live streaming gate: a cluster streams
// several objects at a bitrate the loopback edge can trivially sustain, so
// every session must start playback and miss zero deadlines; the playback
// metrics must then flow intact through the log pipeline into the offline
// summary (batch-read and tailed alike) and the control plane's live
// analytics and /metrics surfaces.
func TestStreamingE2EDelivery(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.LogDir = t.TempDir()
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const streams = 3
	scfg := streaming.Config{BitrateBps: 1_000_000}
	for i := 0; i < streams; i++ {
		obj, err := NewObject(4001, "studio/episode-"+string(rune('a'+i))+".vid", 1,
			int64(300_000+50_000*i), 16<<10, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Publish(obj); err != nil {
			t.Fatal(err)
		}
		p := spawnLogpipePeer(t, c, t.TempDir())
		dl := streamStart(t, p, obj.ID, scfg)
		if sm := dl.StreamMetrics(); sm == nil {
			t.Fatal("live streaming download exposes no playback metrics")
		}
		res, err := dl.Wait(ctx)
		if err != nil || res.Outcome != protocol.OutcomeCompleted {
			t.Fatalf("stream %d: res=%+v err=%v", i, res, err)
		}
		st := res.Stream
		if st == nil {
			t.Fatalf("stream %d: result carries no streaming metrics", i)
		}
		if st.BitrateBps != scfg.BitrateBps {
			t.Fatalf("stream %d: bitrate %d, want %d", i, st.BitrateBps, scfg.BitrateBps)
		}
		// The loopback edge outruns a 1 Mbps playback clock by orders of
		// magnitude: a feasible bitrate must never miss a deadline.
		if st.DeadlineMisses != 0 || st.RebufferCount != 0 {
			t.Fatalf("stream %d: %d deadline misses, %d rebuffers at a feasible bitrate",
				i, st.DeadlineMisses, st.RebufferCount)
		}
		snap := p.Metrics().Snapshot()
		if got := snap.Counters["peer_stream_sessions_total"]; got != 1 {
			t.Fatalf("stream %d: peer_stream_sessions_total = %d, want 1", i, got)
		}
		if got := snap.Counters["peer_stream_deadline_misses_total"]; got != 0 {
			t.Fatalf("stream %d: peer_stream_deadline_misses_total = %d, want 0", i, got)
		}
		if err := p.FlushLogs(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.LogStore().Flush(); err != nil {
		t.Fatal(err)
	}

	// The offline summary sees the streams through the batch reader.
	recs, err := logpipe.ReadDownloads(cfg.LogDir)
	if err != nil {
		t.Fatal(err)
	}
	sum := analysis.SummarizeOffline(recs)
	if sum.StreamingDownloads != streams {
		t.Fatalf("offline summary shows %d streaming downloads, want %d", sum.StreamingDownloads, streams)
	}
	if sum.StreamRebufferEvents != 0 || sum.StreamDeadlineMissPct != 0 {
		t.Fatalf("offline summary shows stalls at a feasible bitrate: %+v", sum)
	}

	// Control plane surfaces: live analytics document and /metrics series.
	aresp, err := http.Get(c.ControlPlaneURL() + "/v1/analytics")
	if err != nil {
		t.Fatal(err)
	}
	var cpSum analysis.StreamingSummary
	err = json.NewDecoder(aresp.Body).Decode(&cpSum)
	aresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cpSum.StreamDownloads != streams {
		t.Fatalf("CP analytics shows %d stream downloads, want %d", cpSum.StreamDownloads, streams)
	}
	mresp, err := http.Get(c.ControlPlaneURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<20)
	n, _ := mresp.Body.Read(body)
	mresp.Body.Close()
	page := string(body[:n])
	if !strings.Contains(page, "cp_stream_sessions_total 3") {
		t.Errorf("/metrics page missing cp_stream_sessions_total 3")
	}
}

// TestStreamingE2ERebufferInjection streams at an infeasible bitrate while
// the edge and CN tiers inject latency and errors: playback must stall —
// and be reported as rebuffers with urgent-window edge rescues — while the
// download itself still completes hash-verified.
func TestStreamingE2ERebufferInjection(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.LogDir = t.TempDir()
	cfg.EdgeFaults = FaultProfile{
		Seed:       42,
		ErrorRate:  0.1,
		LatencyMin: 5 * time.Millisecond,
		LatencyMax: 20 * time.Millisecond,
	}
	cfg.CNFaults = FaultProfile{
		Seed:       43,
		LatencyMin: time.Millisecond,
		LatencyMax: 10 * time.Millisecond,
	}
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := NewObject(4002, "studio/live-keynote.vid", 1, 2_000_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}

	p := spawnLogpipePeer(t, c, t.TempDir())
	// 500 Mbps playback: every piece's deadline is sub-millisecond, far
	// inside the injected edge latency, so stalls are guaranteed.
	dl := streamStart(t, p, obj.ID, streaming.Config{BitrateBps: 500_000_000})

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil || res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("faulted stream: res=%+v err=%v", res, err)
	}
	st := res.Stream
	if st == nil {
		t.Fatal("faulted stream carries no streaming metrics")
	}
	if st.RebufferCount == 0 || st.RebufferMs == 0 {
		t.Fatalf("infeasible bitrate under injected faults reported no rebuffering: %+v", st)
	}
	if st.DeadlineMisses == 0 {
		t.Fatalf("infeasible bitrate reported no deadline misses: %+v", st)
	}
	if st.EdgeRescueBytes == 0 {
		t.Fatalf("urgent-window pieces were edge-fetched but no rescue bytes recorded: %+v", st)
	}
	snap := p.Metrics().Snapshot()
	if got := snap.Counters["peer_stream_rebuffer_events_total"]; got == 0 {
		t.Error("peer_stream_rebuffer_events_total stayed zero")
	}
	if got := snap.Counters["peer_stream_edge_rescue_bytes_total"]; got == 0 {
		t.Error("peer_stream_edge_rescue_bytes_total stayed zero")
	}
}
