package netsession

import (
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netsession/internal/geo"
	"netsession/internal/protocol"
)

// countPieceFiles counts the durable verified pieces a state directory holds
// for one object — the crash tests' ground truth for "what survived the
// kill".
func countPieceFiles(stateDir string, oid ObjectID) int {
	dir := filepath.Join(stateDir, "content", "objects", hex.EncodeToString(oid[:]))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".piece") {
			n++
		}
	}
	return n
}

func checkpointFile(stateDir string, oid ObjectID) string {
	return filepath.Join(stateDir, "downloads", hex.EncodeToString(oid[:])+".json")
}

// TestCrashPeerKillAndResume kills a peer mid-swarm (the in-process
// equivalent of a SIGKILL: no goodbye, no stats report, no checkpoint
// cleanup) and restarts it from the same state directory. The restarted peer
// must resume from its persisted bitfield — fetching exactly the missing
// pieces, never refetching a verified one — and complete hash-verified.
func TestCrashPeerKillAndResume(t *testing.T) {
	cfg := DefaultClusterConfig()
	// Injected edge latency widens the window between first piece and
	// completion so the kill reliably lands mid-download.
	cfg.EdgeFaults = FaultProfile{
		Seed:       17,
		LatencyMin: 2 * time.Millisecond,
		LatencyMax: 6 * time.Millisecond,
	}
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := NewObject(3001, "crash/payload.bin", 1, 4_000_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}

	spawn := func(stateDir string) *Peer {
		ip, err := c.AllocateIdentity("JP")
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPeer(PeerConfig{
			DeclaredIP:     ip,
			ControlAddrs:   c.ControlAddrs(),
			EdgeURL:        c.EdgeURL(),
			UploadsEnabled: true,
			StateDir:       stateDir,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// A complete holder so the victim downloads mid-swarm, not edge-only.
	seed := spawn("")
	if res, err := chaosStart(t, seed, obj.ID).Wait(ctx); err != nil ||
		res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("seed download: res=%+v err=%v", res, err)
	}

	stateDir := t.TempDir()
	victim := spawn(stateDir)
	dl := chaosStart(t, victim, obj.ID)
	if !chaosEventually(30*time.Second, func() bool {
		have, _ := dl.Progress()
		return have >= 8
	}) {
		t.Fatal("download made no progress before the kill")
	}
	victim.Kill()

	onDisk := countPieceFiles(stateDir, obj.ID)
	if onDisk == 0 {
		t.Fatal("kill left no durable pieces")
	}
	if onDisk >= obj.NumPieces() {
		t.Fatalf("download completed (%d pieces) before the kill landed", onDisk)
	}
	if _, err := os.Stat(checkpointFile(stateDir, obj.ID)); err != nil {
		t.Fatalf("kill left no checkpoint: %v", err)
	}

	// Restart from the same state directory: the client recovers the store,
	// loads the checkpoint, and resumes on its own.
	reborn := spawn(stateDir)
	if !chaosEventually(60*time.Second, func() bool {
		return reborn.Store().Complete(obj.ID)
	}) {
		t.Fatalf("resumed download never completed; counters: %+v",
			reborn.Metrics().Snapshot().Counters)
	}

	// Completion retires the checkpoint. The store reports the last piece
	// before the download books it, so the counters below are read only
	// once completion has run.
	if !chaosEventually(10*time.Second, func() bool {
		_, err := os.Stat(checkpointFile(stateDir, obj.ID))
		return os.IsNotExist(err)
	}) {
		t.Error("checkpoint not retired after completion")
	}
	snap := reborn.Metrics().Snapshot()
	if got := snap.Counters["peer_resume_total"]; got != 1 {
		t.Errorf("peer_resume_total = %d, want 1", got)
	}
	recovered := snap.Counters["peer_pieces_recovered_total"]
	if recovered < int64(onDisk) {
		t.Errorf("peer_pieces_recovered_total = %d, want >= %d pieces found on disk",
			recovered, onDisk)
	}
	// Zero re-downloads of verified pieces: everything fetched after the
	// restart is exactly the complement of what was recovered.
	fetched := snap.Counters[`peer_pieces_total{source="edge"}`] +
		snap.Counters[`peer_pieces_total{source="peer"}`]
	if fetched != int64(obj.NumPieces())-recovered {
		t.Errorf("resumed peer fetched %d pieces, want %d (total %d - recovered %d)",
			fetched, int64(obj.NumPieces())-recovered, obj.NumPieces(), recovered)
	}
	// The recovery-scan series is present (and zero: the kill was clean
	// thanks to the atomic write discipline).
	if got, ok := snap.Counters["store_recovery_corrupt_total"]; !ok {
		t.Error("store_recovery_corrupt_total missing from a disk-backed peer's registry")
	} else if got != 0 {
		t.Errorf("store_recovery_corrupt_total = %d after a clean kill, want 0", got)
	}

	// The content is hash-verified on read (DiskStore.Get re-verifies; a
	// corrupt piece would come back !ok).
	for i := 0; i < obj.NumPieces(); i++ {
		if _, ok := reborn.Store().Get(obj.ID, i); !ok {
			t.Fatalf("piece %d unreadable/corrupt after resumed completion", i)
		}
	}
}

// TestCrashDNRebuildConverges kills a region's DN under live peers: the
// directory must converge back to the pre-kill candidate count purely from
// peer re-announcements (no control-plane restart), the rebuild must be
// visible in telemetry, and Select must serve peers again once the window
// closes.
func TestCrashDNRebuildConverges(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.DNRebuildWindow = 500 * time.Millisecond
	// A WAN-like edge: on bare loopback the leech can fetch all 25 pieces
	// before its peer query is even answered, and then there is nothing
	// left to show that Select serves peers again.
	cfg.EdgeFaults = FaultProfile{LatencyMin: 2 * time.Millisecond, LatencyMax: 2 * time.Millisecond}
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := NewObject(3001, "crash/dnpayload.bin", 1, 400_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var region geo.NetworkRegion
	spawn := func() *Peer {
		ip, err := c.AllocateIdentity("JP")
		if err != nil {
			t.Fatal(err)
		}
		country, _, ok := c.Lookup(ip)
		if !ok || country != "JP" {
			t.Fatalf("identity %s did not resolve to JP", ip)
		}
		region = geo.NetworkRegion(9) // AS-NEA; all JP identities land here
		p, err := NewPeer(PeerConfig{
			DeclaredIP:     ip,
			ControlAddrs:   c.ControlAddrs(),
			EdgeURL:        c.EdgeURL(),
			UploadsEnabled: true,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}

	const holders = 3
	for i := 0; i < holders; i++ {
		p := spawn()
		if res, err := chaosStart(t, p, obj.ID).Wait(ctx); err != nil ||
			res.Outcome != protocol.OutcomeCompleted {
			t.Fatalf("holder %d download: res=%+v err=%v", i, res, err)
		}
	}
	if !chaosEventually(10*time.Second, func() bool {
		return c.nodes[0].ControlPlane().DN(region).Copies(obj.ID) == holders
	}) {
		t.Fatalf("directory holds %d copies, want %d", c.nodes[0].ControlPlane().DN(region).Copies(obj.ID), holders)
	}

	// Kill the DN. Its database empties; the rebuild window opens; every
	// connected peer in the region is asked to RE-ADD.
	c.nodes[0].ControlPlane().FailDN(region)
	if !chaosEventually(10*time.Second, func() bool {
		return c.nodes[0].ControlPlane().DN(region).Copies(obj.ID) == holders
	}) {
		t.Fatalf("directory converged to %d copies after DN kill, want pre-kill %d",
			c.nodes[0].ControlPlane().DN(region).Copies(obj.ID), holders)
	}

	annKey := `dn_rebuild_announces_total{region="` + region.String() + `"}`
	snap := c.nodes[0].ControlPlane().Metrics().Snapshot()
	if snap.Counters[annKey] == 0 {
		t.Errorf("%s = 0, want rebuild announcements counted", annKey)
	}
	if !chaosEventually(10*time.Second, func() bool {
		s := c.nodes[0].ControlPlane().Metrics().Snapshot()
		return s.Histograms["dn_rebuild_ms"].Count > 0 &&
			s.Gauges[`dn_rebuilding{region="`+region.String()+`"}`] == 0
	}) {
		t.Error("rebuild window never closed in telemetry (dn_rebuild_ms / dn_rebuilding)")
	}

	// Select serves the rebuilt directory without any control-plane restart:
	// a fresh leech's query finds the holders and the download completes.
	// The holders are public, so they are not told to dial back and peer
	// bytes can only come from the candidates the QueryResult named; either
	// counts as proof.
	leech := spawn()
	res, err := chaosStart(t, leech, obj.ID).Wait(ctx)
	if err != nil || res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("post-rebuild download: res=%+v err=%v", res, err)
	}
	if res.PeersReturned == 0 && res.BytesPeers == 0 {
		t.Errorf("post-rebuild query returned no candidates; Select still edge-only: %+v", res)
	}
}
