package netsession

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netsession/internal/analysis"
	"netsession/internal/cluster"
	"netsession/internal/faults"
	"netsession/internal/id"
	"netsession/internal/logpipe"
	"netsession/internal/protocol"
	"netsession/internal/sim"
)

const logSpoolSubdir = "logspool"

// copyDir snapshots a flat directory (the spool layout has no subdirs).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func replaceDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.RemoveAll(dst); err != nil {
		t.Fatal(err)
	}
	copyDir(t, src, dst)
}

// spawnLogpipePeer starts a peer whose usage reports go through the durable
// log spool and batched uploader (never the in-band stats path), with the
// background loop disabled so tests control every drain.
func spawnLogpipePeer(t *testing.T, c *Cluster, stateDir string) *Peer {
	return spawnLogpipePeerURL(t, c, stateDir, c.ControlPlaneURL())
}

// spawnLogpipePeerURL is spawnLogpipePeer with an explicit upload target, so
// cross-node tests can pin the uploader to one control-plane node.
func spawnLogpipePeerURL(t *testing.T, c *Cluster, stateDir, uploadURL string) *Peer {
	t.Helper()
	ip, err := c.AllocateIdentity("JP")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPeer(PeerConfig{
		DeclaredIP:        ip,
		ControlAddrs:      c.ControlAddrs(),
		EdgeURL:           c.EdgeURL(),
		UploadsEnabled:    true,
		StateDir:          stateDir,
		LogUploadURL:      uploadURL,
		LogUploadInterval: -1,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestCrashLogpipeExactlyOnce kills a peer at the two dangerous points of the
// log pipeline — after the report reached the spool but before any upload,
// and after the control plane's ack but before the cursor write — and
// verifies the control plane accounts the download exactly once: nothing
// lost, nothing double-counted.
func TestCrashLogpipeExactlyOnce(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.LogDir = t.TempDir()
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := NewObject(3001, "logpipe/payload.bin", 1, 600_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	stateDir := t.TempDir()
	victim := spawnLogpipePeer(t, c, stateDir)
	guid := victim.GUID()
	res, err := chaosStart(t, victim, obj.ID).Wait(ctx)
	if err != nil || res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("download: res=%+v err=%v", res, err)
	}
	if !chaosEventually(10*time.Second, func() bool { return victim.LogsPending() > 0 }) {
		t.Fatal("completed download never reached the log spool")
	}
	if got := len(c.AccountingLog().Downloads); got != 0 {
		t.Fatalf("CP holds %d downloads before any upload, want 0 (report must be out-of-band)", got)
	}

	// Crash #1: the report is spooled but never uploaded.
	victim.Kill()

	// Snapshot the spool now — this is also exactly what the disk holds if a
	// later crash lands after the CP's ack but before the cursor write.
	spoolDir := filepath.Join(stateDir, logSpoolSubdir)
	snapDir := t.TempDir()
	copyDir(t, spoolDir, snapDir)

	// Restart from the same state directory: the spool must still hold the
	// report, and one explicit drain delivers it. Zero reports lost.
	reborn := spawnLogpipePeer(t, c, stateDir)
	if reborn.GUID() != guid {
		t.Fatalf("restarted peer has GUID %v, want persisted %v", reborn.GUID(), guid)
	}
	if reborn.LogsPending() == 0 {
		t.Fatal("kill lost the spooled report")
	}
	if err := reborn.FlushLogs(ctx); err != nil {
		t.Fatal(err)
	}
	log := c.AccountingLog()
	if len(log.Downloads) != 1 {
		t.Fatalf("CP holds %d downloads after the post-crash drain, want exactly 1", len(log.Downloads))
	}
	rec := log.Downloads[0]
	if rec.GUID != guid || rec.Object != obj.ID {
		t.Fatalf("accounted record %+v does not match the download (guid %v, object %v)",
			rec, guid, obj.ID)
	}
	if rec.BytesInfra+rec.BytesPeers != obj.Size {
		t.Fatalf("accounted bytes %d+%d, want the object size %d",
			rec.BytesInfra, rec.BytesPeers, obj.Size)
	}
	if reborn.LogsPending() != 0 {
		t.Fatalf("%d spool segments left after a successful drain", reborn.LogsPending())
	}

	// Crash #2: the ack-before-cursor window. Restore the pre-upload spool
	// (cursor write "lost") and drain again from a fresh process: the resend
	// carries the same idempotent batch ID, so the CP must dedup it.
	reborn.Kill()
	replaceDir(t, snapDir, spoolDir)
	third := spawnLogpipePeer(t, c, stateDir)
	if third.LogsPending() == 0 {
		t.Fatal("restored spool shows nothing pending; the resend scenario never ran")
	}
	if err := third.FlushLogs(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(c.AccountingLog().Downloads); got != 1 {
		t.Fatalf("CP holds %d downloads after the resend, want still exactly 1 (no double count)", got)
	}
	cpSnap := c.nodes[0].ControlPlane().Metrics().Snapshot()
	if got := cpSnap.Counters["logpipe_ingest_deduped_total"]; got < 1 {
		t.Errorf("logpipe_ingest_deduped_total = %d, want the resend counted as a dedup", got)
	}
	if got := cpSnap.Counters["logpipe_ingest_records_total"]; got != 1 {
		t.Errorf("logpipe_ingest_records_total = %d, want 1", got)
	}
	if got := cpSnap.Counters[`accounting_records_total{kind="download"}`]; got != 1 {
		t.Errorf(`accounting_records_total{kind="download"} = %d, want 1`, got)
	}

	// The durable store holds the single accepted record, geo-annotated.
	if err := c.LogStore().Flush(); err != nil {
		t.Fatal(err)
	}
	stored, err := logpipe.ReadDownloads(cfg.LogDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 {
		t.Fatalf("segment store holds %d records, want 1", len(stored))
	}
	if stored[0].GUID != guid.String() || stored[0].Country != "JP" {
		t.Fatalf("stored record %+v, want the JP peer's download", stored[0])
	}
}

// batchOwner returns the index of the node that owns a GUID's log batches:
// its owner on the ring over every node started.
func batchOwner(t *testing.T, c *Cluster, guid id.GUID) int {
	t.Helper()
	ids := make([]string, c.NumCPNodes())
	for i := range ids {
		ids[i] = c.nodes[i].ID()
	}
	owner, _ := cluster.NewRing(ids).Owner(guid.String())
	for i, nodeID := range ids {
		if nodeID == owner {
			return i
		}
	}
	t.Fatalf("no node owns %s", guid)
	return -1
}

// TestCrashLogpipeCrossCPDedup replays the ack-before-cursor crash across
// control-plane nodes: a batch acked after an upload to node A is resent —
// after a peer crash restores the pre-upload spool — to node B. Each node
// keeps its own durable ack store in its own state directory; the probe
// interval is set to an hour so anti-entropy can never replicate the ack
// before the resend lands. The record must still be accounted exactly once
// cluster-wide: both copies reach the ring owner of the peer's GUID, which
// dedups the resend from its own ack store.
func TestCrashLogpipeCrossCPDedup(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.CPNodes = 2
	cfg.LogDir = t.TempDir()
	cfg.CPProbeInterval = time.Hour
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The ack tables are genuinely per-node and durable: each node owns an
	// ack journal under its own state directory, not a shared pointer.
	for _, node := range []string{"cp-0", "cp-1"} {
		p := filepath.Join(cfg.LogDir, node, "acks", "acks.json")
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("node %s has no durable ack checkpoint: %v", node, err)
		}
	}

	obj, err := NewObject(3001, "logpipe/crosscp.bin", 1, 500_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	urls := c.ControlPlaneURLs()
	stateDir := t.TempDir()
	victim := spawnLogpipePeerURL(t, c, stateDir, urls[0])
	res, err := chaosStart(t, victim, obj.ID).Wait(ctx)
	if err != nil || res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("download: res=%+v err=%v", res, err)
	}
	if !chaosEventually(10*time.Second, func() bool { return victim.LogsPending() > 0 }) {
		t.Fatal("completed download never reached the log spool")
	}

	// Snapshot the spool before the drain — the disk image of a crash that
	// lands after node A's ack but before the cursor write.
	spoolDir := filepath.Join(stateDir, logSpoolSubdir)
	snapDir := t.TempDir()
	copyDir(t, spoolDir, snapDir)

	// Node A accepts the batch.
	if err := victim.FlushLogs(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(c.AccountingLog().Downloads); got != 1 {
		t.Fatalf("cluster holds %d downloads after node A's drain, want 1", got)
	}

	// Crash, restore the pre-upload spool, and come back pointed at node B
	// only — the failover case where the original ingest node is gone.
	victim.Kill()
	replaceDir(t, snapDir, spoolDir)
	reborn := spawnLogpipePeerURL(t, c, stateDir, urls[1])
	if reborn.LogsPending() == 0 {
		t.Fatal("restored spool shows nothing pending; the resend scenario never ran")
	}
	if err := reborn.FlushLogs(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(c.AccountingLog().Downloads); got != 1 {
		t.Fatalf("cluster holds %d downloads after the cross-node resend, want still 1", got)
	}
	owner := batchOwner(t, c, reborn.GUID())
	ownSnap := c.ControlPlaneNode(owner).Metrics().Snapshot()
	if got := ownSnap.Counters["logpipe_ingest_deduped_total"]; got < 1 {
		t.Errorf("owner logpipe_ingest_deduped_total = %d, want >= 1", got)
	}
	if got := ownSnap.Counters["logpipe_ingest_records_total"]; got != 1 {
		t.Errorf("owner accepted %d records, want the first copy's 1", got)
	}
	// Anti-entropy never ran (hour-long probe interval): the dedup can only
	// have come from the owner's own ack of the first copy.
	if got := ownSnap.Counters["logpipe_ack_sync_pulls_total"]; got != 0 {
		t.Errorf("owner pulled %d times; the replay was supposed to beat anti-entropy", got)
	}
	if got := c.ControlPlaneNode(1 - owner).Metrics().Snapshot().Counters["logpipe_ingest_records_total"]; got != 0 {
		t.Errorf("the node that does not own the GUID accepted %d records", got)
	}
}

// TestCrashLogpipeAckAntiEntropyFailover is the same resend-after-crash but
// with anti-entropy given time to run and the node that booked the batch —
// the ring owner of the peer's GUID, node A here — killed before the resend:
// node B must have pulled A's ack into its own store while A was alive, so
// it dedups the replayed batch locally — no remote check possible, A is
// gone.
func TestCrashLogpipeAckAntiEntropyFailover(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.CPNodes = 2
	cfg.CPProbeInterval = 50 * time.Millisecond
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := NewObject(3001, "logpipe/antientropy.bin", 1, 500_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	urls := c.ControlPlaneURLs()
	stateDir := t.TempDir()
	victim := spawnLogpipePeerURL(t, c, stateDir, urls[0])
	res, err := chaosStart(t, victim, obj.ID).Wait(ctx)
	if err != nil || res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("download: res=%+v err=%v", res, err)
	}
	if !chaosEventually(10*time.Second, func() bool { return victim.LogsPending() > 0 }) {
		t.Fatal("completed download never reached the log spool")
	}

	spoolDir := filepath.Join(stateDir, logSpoolSubdir)
	snapDir := t.TempDir()
	copyDir(t, spoolDir, snapDir)

	// Node A acks the batch; its advertised ack sequence advances, and node
	// B's next probe of A pulls the new ack into B's own store.
	if err := victim.FlushLogs(ctx); err != nil {
		t.Fatal(err)
	}
	a := batchOwner(t, c, victim.GUID())
	nodeB := c.nodes[1-a]
	if !chaosEventually(10*time.Second, func() bool { return nodeB.ControlPlane().Status().AckSeq >= 1 }) {
		t.Fatal("node B never pulled node A's ack by anti-entropy")
	}
	if got := nodeB.ControlPlane().Metrics().Snapshot().Counters["logpipe_ack_sync_pulls_total"]; got < 1 {
		t.Fatalf("node B logpipe_ack_sync_pulls_total = %d, want >= 1", got)
	}

	// Kill node A — the replicated ack is now the only copy that matters.
	// Wait for node B to demote it so logins stop redirecting at a corpse.
	victim.Kill()
	c.KillCPNode(a)
	if !chaosEventually(10*time.Second, func() bool { return len(nodeB.ControlPlane().Status().Members) == 1 }) {
		t.Fatal("node B never noticed node A's death")
	}
	replaceDir(t, snapDir, spoolDir)
	reborn := spawnLogpipePeerURL(t, c, stateDir, urls[1-a])
	if reborn.LogsPending() == 0 {
		t.Fatal("restored spool shows nothing pending; the resend scenario never ran")
	}
	if err := reborn.FlushLogs(ctx); err != nil {
		t.Fatal(err)
	}
	bSnap := nodeB.ControlPlane().Metrics().Snapshot()
	if got := bSnap.Counters["logpipe_ingest_deduped_total"]; got < 1 {
		t.Errorf("node B logpipe_ingest_deduped_total = %d, want >= 1", got)
	}
	if got := bSnap.Counters["logpipe_ingest_records_total"]; got != 0 {
		t.Errorf("node B accepted %d records from a batch the dead node already acked", got)
	}
}

// TestChaosLogpipeIngestStorm drives a hard 503 storm on the live ingest
// endpoint: the uploader must trip its breaker rather than hammer the CP, the
// spooled report must survive the storm, and clearing the faults must let the
// drain complete with exactly-once accounting.
func TestChaosLogpipeIngestStorm(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.LogDir = t.TempDir()
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := NewObject(3001, "logpipe/storm.bin", 1, 400_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	p := spawnLogpipePeer(t, c, t.TempDir())
	res, err := chaosStart(t, p, obj.ID).Wait(ctx)
	if err != nil || res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("download: res=%+v err=%v", res, err)
	}
	if !chaosEventually(10*time.Second, func() bool { return p.LogsPending() > 0 }) {
		t.Fatal("completed download never reached the log spool")
	}

	// Storm: every POST /v1/logs/batch answers an injected 503.
	c.LogIngest().SetFaults(faults.New(faults.Config{Seed: 11, ErrorRate: 1}, nil))
	stormCtx, cancelStorm := context.WithTimeout(context.Background(), 2*time.Second)
	err = p.FlushLogs(stormCtx)
	cancelStorm()
	if err == nil {
		t.Fatal("drain succeeded against a 100% 503 storm")
	}
	if p.LogsPending() == 0 {
		t.Fatal("storm lost the spooled report")
	}
	peerSnap := p.Metrics().Snapshot()
	if got := peerSnap.Counters["logpipe_upload_errors_total"]; got == 0 {
		t.Error("logpipe_upload_errors_total = 0 after the storm")
	}
	if got := peerSnap.Counters["logpipe_upload_breaker_trips_total"]; got == 0 {
		t.Error("breaker never tripped during the storm; uploader kept hammering the CP")
	}
	if got := len(c.AccountingLog().Downloads); got != 0 {
		t.Fatalf("CP accounted %d downloads during the storm, want 0", got)
	}

	// Clear the faults: the next drain waits out the breaker cooldown,
	// half-opens, and delivers the report exactly once.
	c.LogIngest().SetFaults(nil)
	if err := p.FlushLogs(ctx); err != nil {
		t.Fatal(err)
	}
	if p.LogsPending() != 0 {
		t.Fatalf("%d spool segments left after the storm cleared", p.LogsPending())
	}
	if got := len(c.AccountingLog().Downloads); got != 1 {
		t.Fatalf("CP holds %d downloads after recovery, want exactly 1", got)
	}
	if got := c.nodes[0].ControlPlane().Metrics().Snapshot().Counters["logpipe_ingest_records_total"]; got != 1 {
		t.Errorf("logpipe_ingest_records_total = %d, want 1", got)
	}
}

// TestLogpipeLiveSimParity runs the same download log through both producers
// — a live cluster spilling accepted reports to its segment store, and the
// simulator exporting segments — and consumes both through the identical
// reader (the netsession-analyze path). Totals must agree with the control
// plane's /metrics, and the satellite accounting series must be present on
// the exposition page even at zero.
func TestLogpipeLiveSimParity(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.LogDir = t.TempDir()
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := NewObject(3001, "logpipe/parity.bin", 1, 300_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const livePeers = 3
	for i := 0; i < livePeers; i++ {
		p := spawnLogpipePeer(t, c, t.TempDir())
		res, err := chaosStart(t, p, obj.ID).Wait(ctx)
		if err != nil || res.Outcome != protocol.OutcomeCompleted {
			t.Fatalf("peer %d download: res=%+v err=%v", i, res, err)
		}
		if err := p.FlushLogs(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.LogStore().Flush(); err != nil {
		t.Fatal(err)
	}

	// Live segments through the analyzer's reader.
	live, err := logpipe.ReadDownloads(cfg.LogDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != livePeers {
		t.Fatalf("live segment store holds %d records, want %d", len(live), livePeers)
	}
	for i, d := range live {
		if d.Country != "JP" || d.ASN == 0 {
			t.Fatalf("live record %d lacks geo annotation: %+v", i, d)
		}
		if d.Region != "AS-NEA" {
			t.Fatalf("live record %d region %q, want AS-NEA (JP)", i, d.Region)
		}
		if d.Outcome != "completed" {
			t.Fatalf("live record %d outcome %q", i, d.Outcome)
		}
	}

	// Totals agree with the CP's own metrics.
	cpSnap := c.nodes[0].ControlPlane().Metrics().Snapshot()
	for _, key := range []string{
		"logpipe_ingest_records_total",
		"logpipe_store_records_total",
		`accounting_records_total{kind="download"}`,
	} {
		if got := cpSnap.Counters[key]; got != int64(livePeers) {
			t.Errorf("%s = %d, want %d (must match the segment store)", key, got, livePeers)
		}
	}

	// The satellite series are on the actual /metrics page, rejects at zero.
	resp, err := http.Get(c.ControlPlaneURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{
		`accounting_records_total{kind="download"} 3`,
		`accounting_rejected_total{reason="unauthorized"} 0`,
		`accounting_rejected_total{reason="overclaim"} 0`,
		`accounting_rejected_total{reason="other"} 0`,
		"logpipe_ingest_records_total 3",
		"logpipe_ingest_deduped_total 0",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics page missing %q", want)
		}
	}

	// Simulated segments: export a small scenario through the same store
	// format (what `netsession-sim` does) and read it back through the same
	// code path.
	simCfg := sim.SmallScenario()
	simCfg.NumPeers = 1200
	simCfg.TotalDownloads = 2500
	simCfg.Days = 3
	simRes, err := RunScenario(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	simDir := t.TempDir()
	if err := logpipe.ExportDownloads(simDir, simRes.Log.Downloads, simRes.Scape); err != nil {
		t.Fatal(err)
	}
	fromSim, err := logpipe.ReadDownloads(simDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromSim) != len(simRes.Log.Downloads) {
		t.Fatalf("sim segments hold %d records, want %d", len(fromSim), len(simRes.Log.Downloads))
	}

	// Both sources summarize through the identical offline analysis; the
	// summaries must see every record and a populated geo dimension.
	liveSum := analysis.SummarizeOffline(live)
	simSum := analysis.SummarizeOffline(fromSim)
	if liveSum.Downloads != livePeers || simSum.Downloads != len(simRes.Log.Downloads) {
		t.Fatalf("summaries dropped records: live %d/%d, sim %d/%d",
			liveSum.Downloads, livePeers, simSum.Downloads, len(simRes.Log.Downloads))
	}
	if simSum.Countries < 2 || simSum.ASes < 2 {
		t.Fatalf("sim summary lost the geo annotation: %+v", simSum)
	}

	// The control plane serves the same live analytics on GET /v1/analytics.
	aresp, err := http.Get(c.ControlPlaneURL() + "/v1/analytics")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	var cpSum analysis.StreamingSummary
	if err := json.NewDecoder(aresp.Body).Decode(&cpSum); err != nil {
		t.Fatal(err)
	}
	if cpSum.Downloads != int64(livePeers) {
		t.Fatalf("CP analytics shows %d downloads, want %d", cpSum.Downloads, livePeers)
	}
	if cpSum.BytesInfra+cpSum.BytesPeers == 0 {
		t.Fatal("CP analytics shows zero bytes for completed downloads")
	}
	foundNEA := false
	for _, r := range cpSum.Regions {
		if r.Region == "AS-NEA" && r.Downloads == int64(livePeers) {
			foundNEA = true
		}
	}
	if !foundNEA {
		t.Fatalf("CP analytics regions missing the JP peers' AS-NEA bucket: %+v", cpSum.Regions)
	}

	// The monitor scrapes that document into its fleet view.
	c.Monitor().ScrapeOnce()
	fleet, ok := c.Monitor().FleetAnalytics()
	if !ok {
		t.Fatal("monitor scraped no analytics from the control plane")
	}
	if fleet.Downloads != int64(livePeers) {
		t.Fatalf("fleet analytics shows %d downloads, want %d", fleet.Downloads, livePeers)
	}
}
