package netsession

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"testing"
	"time"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/protocol"
)

// chaosEventually polls cond until it holds or the timeout elapses.
func chaosEventually(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

// chaosUploader is a raw swarm server that misbehaves: in lying mode it
// answers every request with garbage (the §3.5 threat), in stalling mode it
// completes the handshake, claims every piece, and then never sends one —
// the slow/dead peer the stall watchdog exists for.
type chaosUploader struct {
	ln    net.Listener
	guid  id.GUID
	n     int
	lying bool
}

func startChaosUploader(t *testing.T, numPieces int, lying bool) *chaosUploader {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u := &chaosUploader{ln: ln, guid: id.NewGUID(), n: numPieces, lying: lying}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go u.handle(conn)
		}
	}()
	return u
}

func (u *chaosUploader) handle(conn net.Conn) {
	defer conn.Close()
	if _, err := protocol.ReadMessage(conn); err != nil {
		return
	}
	protocol.WriteMessage(conn, &protocol.HandshakeAck{OK: true, NumPieces: uint32(u.n)})
	full := content.NewBitfield(u.n)
	for i := 0; i < u.n; i++ {
		full.Set(i)
	}
	protocol.WriteMessage(conn, &protocol.BitfieldMsg{Bits: full.MarshalBinary()})
	for {
		msg, err := protocol.ReadMessage(conn)
		if err != nil {
			return
		}
		req, ok := msg.(*protocol.Request)
		if !ok || !u.lying {
			continue // stalling mode: swallow requests forever
		}
		junk := make([]byte, 16<<10)
		for i := range junk {
			junk[i] = 0x5a
		}
		if protocol.WriteMessage(conn, &protocol.Piece{Index: req.Index, Data: junk}) != nil {
			return
		}
	}
}

// registerChaosPeer logs a fake peer into the control plane and registers it
// as a complete holder of the object, then waits for the directory entry.
func registerChaosPeer(t *testing.T, c *Cluster, g id.GUID, swarmAddr string, oid ObjectID, wantCopies int) {
	t.Helper()
	ip, err := c.AllocateIdentity("JP")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", c.ControlAddrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := protocol.WriteMessage(conn, &protocol.Login{
		GUID: g, UploadsEnabled: true, SwarmAddr: swarmAddr,
		NAT: protocol.NATNone, DeclaredIP: ip,
	}); err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteMessage(conn, &protocol.Register{
		Object: oid, NumPieces: 1, HaveCount: 1, Complete: true,
	}); err != nil {
		t.Fatal(err)
	}
	go func() { // keep the session alive: drain ConnectTo etc.
		for {
			if _, err := protocol.ReadMessage(conn); err != nil {
				return
			}
		}
	}()
	rec, ok := c.scape.Lookup(netip.MustParseAddr(ip))
	if !ok {
		t.Fatalf("allocated identity %s does not resolve", ip)
	}
	region := geo.RegionOf(rec)
	if !chaosEventually(5*time.Second, func() bool {
		return c.nodes[0].ControlPlane().DN(region).Copies(oid) >= wantCopies
	}) {
		t.Fatalf("directory never reached %d copies of %v", wantCopies, oid)
	}
}

// chaosStart starts a download, retrying while the edge is in a fault
// window (flapped down or injecting 503s, authorization fails then).
func chaosStart(t *testing.T, p *Peer, oid ObjectID) *Download {
	t.Helper()
	var dl *Download
	if !chaosEventually(30*time.Second, func() bool {
		var err error
		dl, err = p.Download(oid)
		return err == nil
	}) {
		t.Fatal("download never started through the edge faults")
	}
	return dl
}

// TestChaosDownloadsSurvive is the fault-injection end-to-end: a live
// cluster whose edge tier flaps and injects errors, a CN that dies
// mid-run, and a swarm seeded with a lying peer and a stalled peer. Every
// download must complete hash-verified; the poisoned one must degrade to
// edge-only rather than fail; and the retries, breaker trips, degradations
// and injected faults must all be visible in telemetry and /metrics.
func TestChaosDownloadsSurvive(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.NumCNs = 2
	cfg.EdgeFaults = FaultProfile{
		Seed:        42,
		ErrorRate:   0.15,
		LatencyMin:  time.Millisecond,
		LatencyMax:  5 * time.Millisecond,
		FlapPeriod:  2 * time.Second,
		FlapDownFor: 400 * time.Millisecond,
	}
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := NewObject(3001, "chaos/payload.bin", 1, 2_000_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}
	// A second object whose only "holders" will be liars and stallers: the
	// poisoned-swarm phase needs a download with no honest peer source.
	poisoned, err := NewObject(3001, "chaos/poisoned.bin", 1, 2_000_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(poisoned); err != nil {
		t.Fatal(err)
	}

	spawn := func(mutate func(*PeerConfig)) *Peer {
		ip, err := c.AllocateIdentity("JP")
		if err != nil {
			t.Fatal(err)
		}
		pc := PeerConfig{
			DeclaredIP:     ip,
			ControlAddrs:   c.ControlAddrs(),
			EdgeURL:        c.EdgeURL(),
			UploadsEnabled: true,
			Logf:           t.Logf,
		}
		if mutate != nil {
			mutate(&pc)
		}
		p, err := NewPeer(pc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Phase 1: an edge-only download rides out the flapping, erroring edge.
	seed := spawn(nil)
	res, err := chaosStart(t, seed, obj.ID).Wait(ctx)
	if err != nil || res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("seed download under edge faults: res=%+v err=%v", res, err)
	}
	if !seed.Store().Complete(obj.ID) {
		t.Fatal("seed store incomplete after completed download")
	}

	// Phase 2: poison the swarm — the poisoned object's only registered
	// holders are a lying uploader and a stalled uploader. (The honest seed
	// must not hold it: selected beside the liars, it would serve the whole
	// object and the download would never need to degrade. Being public, it
	// would not even be told to dial back.)
	evil := startChaosUploader(t, poisoned.NumPieces(), true)
	registerChaosPeer(t, c, evil.guid, evil.ln.Addr().String(), poisoned.ID, 1)
	stalled := startChaosUploader(t, poisoned.NumPieces(), false)
	registerChaosPeer(t, c, stalled.guid, stalled.ln.Addr().String(), poisoned.ID, 2)

	// A tight corruption budget forces the degradation decision quickly —
	// the second corrupt piece crosses the download-level threshold before
	// the per-connection drop (3 corrupt pieces) silently contains the liar.
	// The stall watchdog is the backup rung on the same ladder.
	leech := spawn(func(pc *PeerConfig) {
		pc.CorruptPieceLimit = 1
		pc.StallWindow = 4 * time.Second
	})
	dl := chaosStart(t, leech, poisoned.ID)
	if !chaosEventually(30*time.Second, dl.Degraded) {
		t.Fatalf("poisoned swarm never degraded the download to edge-only; leech counters: %+v",
			leech.Metrics().Snapshot().Counters)
	}

	// Phase 3: kill a CN mid-download; every client reconnects to the
	// surviving one (§3.8) while the transfer keeps going.
	c.nodes[0].CNs()[0].Close()
	res2, err := dl.Wait(ctx)
	if err != nil || res2.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("degraded download must still complete: res=%+v err=%v", res2, err)
	}
	if !leech.Store().Complete(poisoned.ID) {
		t.Fatal("leech store incomplete after completed download")
	}
	if got := res2.FromPeers[evil.guid]; got != 0 {
		t.Errorf("lying peer credited with %d bytes", got)
	}
	if !chaosEventually(15*time.Second, func() bool {
		a := seed.Metrics().Snapshot().Counters[`peer_retries_total{op="control_reconnect"}`]
		b := leech.Metrics().Snapshot().Counters[`peer_retries_total{op="control_reconnect"}`]
		return a+b > 0 && c.ControlPlane().SessionCount() >= 2
	}) {
		t.Error("CN kill produced no control reconnects")
	}

	// Telemetry: retries, degradations, and injected faults all counted.
	snap := leech.Metrics().Snapshot()
	snap.Merge(seed.Metrics().Snapshot())
	if snap.Counters[`peer_retries_total{op="edge_fetch"}`] == 0 {
		t.Error("edge error injection produced no edge retries")
	}
	degr := snap.Counters[`peer_p2p_degradations_total{reason="corruption"}`] +
		snap.Counters[`peer_p2p_degradations_total{reason="stall"}`]
	if degr == 0 {
		t.Error("no p2p degradation counted")
	}
	edgeSnap := c.edgeSrv.Metrics().Snapshot()
	var injected int64
	for k, v := range edgeSnap.Counters {
		if strings.HasPrefix(k, "faults_injected_total") {
			injected += v
		}
	}
	if injected == 0 {
		t.Error("edge fault injector reports zero injected faults")
	}

	// The injected-fault series are on the edge's public /metrics page
	// (which is itself exempt from injection).
	resp, err := http.Get(c.EdgeURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		`faults_injected_total{kind="error"}`,
		`faults_injected_total{kind="flap"}`,
		`faults_injected_total{kind="latency"}`,
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("edge /metrics missing %q", series)
		}
	}

	// Phase 4: a hard edge outage trips the per-server circuit breaker.
	c.edgeSrv.Close()
	for i := 0; i < 5; i++ {
		seed.Download(obj.ID) // authorize fails; each attempt feeds the breaker
	}
	if got := seed.Metrics().Snapshot().Counters[`peer_breaker_trips_total{target="edge"}`]; got == 0 {
		t.Error("hard edge outage did not trip the breaker")
	}
}
