package controlplane

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"netsession/internal/accounting"
	"netsession/internal/content"
	"netsession/internal/edge"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/logpipe"
	"netsession/internal/protocol"
)

// harness starts a control-plane node with one CN over a small atlas.
type harness struct {
	t      *testing.T
	atlas  *geo.Atlas
	scape  *geo.EdgeScape
	minter *edge.TokenMinter
	node   *Node
	cp     *ControlPlane
	cn     *CN
}

func newHarness(t *testing.T, mutate func(*Config)) *harness {
	t.Helper()
	acfg := geo.DefaultAtlasConfig()
	acfg.TailCountries = 2
	atlas := geo.GenerateAtlas(acfg)
	scape := geo.NewEdgeScape(atlas)
	minter := edge.NewTokenMinter([]byte("cp-test-key"))
	cfg := Config{
		Scape:        scape,
		Minter:       minter,
		Collector:    accounting.NewCollector(nil),
		ClientConfig: edge.DefaultClientConfig(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return &harness{t: t, atlas: atlas, scape: scape, minter: minter,
		node: n, cp: n.ControlPlane(), cn: n.CNs()[0]}
}

// rawPeer is a minimal protocol-level client for driving the CN directly.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
	guid id.GUID
	rec  geo.Record
	// incoming delivers every message read from the CN.
	incoming chan protocol.Message
}

func (h *harness) allocRecord(country geo.CountryCode) geo.Record {
	h.t.Helper()
	c, ok := h.atlas.Country(country)
	if !ok {
		h.t.Fatalf("unknown country %s", country)
	}
	ip, err := h.scape.AllocateIP(c.ASNs[0], c.Locations[0])
	if err != nil {
		h.t.Fatal(err)
	}
	return h.scape.MustLookup(ip)
}

func (h *harness) dialPeer(country geo.CountryCode, uploadsEnabled bool) *rawPeer {
	h.t.Helper()
	rec := h.allocRecord(country)
	conn, err := net.Dial("tcp", h.cn.Addr())
	if err != nil {
		h.t.Fatal(err)
	}
	p := &rawPeer{
		t: h.t, conn: conn, guid: id.NewGUID(), rec: rec,
		incoming: make(chan protocol.Message, 64),
	}
	h.t.Cleanup(func() { conn.Close() })
	err = protocol.WriteMessage(conn, &protocol.Login{
		GUID:            p.guid,
		SoftwareVersion: "test-1",
		UploadsEnabled:  uploadsEnabled,
		SwarmAddr:       "127.0.0.1:9",
		NAT:             protocol.NATNone,
		DeclaredIP:      rec.IP.String(),
	})
	if err != nil {
		h.t.Fatal(err)
	}
	go func() {
		for {
			m, err := protocol.ReadMessage(conn)
			if err != nil {
				close(p.incoming)
				return
			}
			p.incoming <- m
		}
	}()
	return p
}

// expect reads messages until one of the wanted type arrives.
func expect[T protocol.Message](p *rawPeer) T {
	p.t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m, ok := <-p.incoming:
			if !ok {
				p.t.Fatalf("connection closed waiting for %T", *new(T))
			}
			if want, ok := m.(T); ok {
				return want
			}
		case <-deadline:
			p.t.Fatalf("timeout waiting for %T", *new(T))
		}
	}
}

func (p *rawPeer) send(m protocol.Message) {
	p.t.Helper()
	if err := protocol.WriteMessage(p.conn, m); err != nil {
		p.t.Fatal(err)
	}
}

func (h *harness) token(g id.GUID, oid content.ObjectID, p2p bool) []byte {
	return h.minter.Mint(edge.Claims{
		GUID: g, Object: oid,
		ExpiresMs: time.Now().UnixMilli() + 60_000, P2P: p2p,
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	waitUntil(t, 5*time.Second, cond, "timeout waiting for %s", what)
}

func TestLoginRecordsAndSession(t *testing.T) {
	h := newHarness(t, nil)
	p := h.dialPeer("US", true)
	ack := expect[*protocol.LoginAck](p)
	if !ack.OK {
		t.Fatal("login rejected")
	}
	cfg := expect[*protocol.ConfigUpdate](p)
	if cfg.MaxUploadConns == 0 {
		t.Error("config update missing upload connection limit")
	}
	waitFor(t, "session registration", func() bool { return h.cp.Connected(p.guid) })
	log := h.cp.Collector().Snapshot()
	if len(log.Logins) != 1 {
		t.Fatalf("%d login records, want 1", len(log.Logins))
	}
	if log.Logins[0].IP != p.rec.IP {
		t.Errorf("login record IP %v, want declared %v", log.Logins[0].IP, p.rec.IP)
	}
	// Ping/pong liveness.
	p.send(&protocol.Ping{Nonce: 99})
	if pong := expect[*protocol.Pong](p); pong.Nonce != 99 {
		t.Error("pong nonce mismatch")
	}
}

func TestRegisterQueryConnectTo(t *testing.T) {
	h := newHarness(t, nil)
	oid := content.NewObjectID(7, "file", 1)

	up := h.dialPeer("US", true)
	expect[*protocol.LoginAck](up)
	up.send(&protocol.Register{Object: oid, NumPieces: 10, HaveCount: 10, Complete: true})

	region := geo.RegionOf(up.rec)
	waitFor(t, "registration", func() bool { return h.cp.DN(region).Copies(oid) == 1 })

	down := h.dialPeer("US", false)
	expect[*protocol.LoginAck](down)
	down.send(&protocol.Query{Object: oid, Token: h.token(down.guid, oid, true), MaxPeers: 40})
	qr := expect[*protocol.QueryResult](down)
	if qr.Err != "" {
		t.Fatalf("query error: %s", qr.Err)
	}
	if len(qr.Peers) != 1 || qr.Peers[0].GUID != up.guid {
		t.Fatalf("query returned %d peers, want the uploader", len(qr.Peers))
	}
	// The uploader is instructed to connect back to the downloader.
	ct := expect[*protocol.ConnectTo](up)
	if ct.Object != oid || ct.Peer.GUID != down.guid {
		t.Error("connect-to does not target the downloader")
	}
}

func TestQueryAuthorization(t *testing.T) {
	h := newHarness(t, nil)
	oid := content.NewObjectID(7, "file", 1)
	p := h.dialPeer("US", false)
	expect[*protocol.LoginAck](p)

	// Garbage token.
	p.send(&protocol.Query{Object: oid, Token: []byte("junk"), MaxPeers: 10})
	if qr := expect[*protocol.QueryResult](p); qr.Err == "" {
		t.Error("garbage token accepted")
	}
	// Valid token for the wrong object.
	other := content.NewObjectID(7, "other", 1)
	p.send(&protocol.Query{Object: oid, Token: h.token(p.guid, other, true), MaxPeers: 10})
	if qr := expect[*protocol.QueryResult](p); qr.Err == "" {
		t.Error("wrong-object token accepted")
	}
	// Token minted for a different peer.
	p.send(&protocol.Query{Object: oid, Token: h.token(id.NewGUID(), oid, true), MaxPeers: 10})
	if qr := expect[*protocol.QueryResult](p); qr.Err == "" {
		t.Error("stolen token accepted")
	}
	// Token without the p2p bit (provider disabled peer delivery).
	p.send(&protocol.Query{Object: oid, Token: h.token(p.guid, oid, false), MaxPeers: 10})
	if qr := expect[*protocol.QueryResult](p); qr.Err == "" {
		t.Error("non-p2p token accepted for peer search")
	}
}

func TestRegisterRequiresUploadsEnabled(t *testing.T) {
	h := newHarness(t, nil)
	oid := content.NewObjectID(7, "file", 1)
	p := h.dialPeer("US", false) // uploads disabled
	expect[*protocol.LoginAck](p)
	p.send(&protocol.Register{Object: oid, NumPieces: 1, HaveCount: 1, Complete: true})
	// The session handles messages in order, so a ping-pong round trip
	// proves the register was processed — no fixed sleep.
	p.send(&protocol.Ping{Nonce: 1})
	expect[*protocol.Pong](p)
	if got := h.cp.DN(geo.RegionOf(p.rec)).Copies(oid); got != 0 {
		t.Fatalf("upload-disabled peer registered: copies=%d", got)
	}
}

func TestReAddAfterDNFailure(t *testing.T) {
	h := newHarness(t, nil)
	oid := content.NewObjectID(7, "file", 1)
	p := h.dialPeer("US", true)
	expect[*protocol.LoginAck](p)
	p.send(&protocol.Register{Object: oid, NumPieces: 4, HaveCount: 4, Complete: true})
	region := geo.RegionOf(p.rec)
	waitFor(t, "registration", func() bool { return h.cp.DN(region).Copies(oid) == 1 })

	h.cp.FailDN(region)
	if h.cp.DN(region).Copies(oid) != 0 {
		t.Fatal("DN failure did not clear the directory")
	}
	// The peer receives RE-ADD and answers with its object list.
	expect[*protocol.ReAdd](p)
	p.send(&protocol.ReAddReply{Entries: []protocol.ReAddEntry{
		{Object: oid, NumPieces: 4, HaveCount: 4, Complete: true},
	}})
	waitFor(t, "directory repopulation", func() bool { return h.cp.DN(region).Copies(oid) == 1 })
}

// TestDNRebuildWindow: after a DN loss the directory opens a rebuild window
// during which queries answer edge-only while peers RE-ADD their holdings;
// once the window closes, queries see the rebuilt directory — no control
// plane restart involved. The window is visible in telemetry: announces are
// counted per region, a gauge marks the window, and its duration lands in
// the dn_rebuild_ms histogram.
func TestDNRebuildWindow(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.DNRebuildWindowMs = 500 })
	oid := content.NewObjectID(7, "file", 1)

	holder := h.dialPeer("US", true)
	expect[*protocol.LoginAck](holder)
	holder.send(&protocol.Register{Object: oid, NumPieces: 4, HaveCount: 4, Complete: true})
	region := geo.RegionOf(holder.rec)
	waitFor(t, "registration", func() bool { return h.cp.DN(region).Copies(oid) == 1 })

	querier := h.dialPeer("US", true)
	expect[*protocol.LoginAck](querier)
	if geo.RegionOf(querier.rec) != region {
		t.Fatalf("querier in region %v, holder in %v", geo.RegionOf(querier.rec), region)
	}

	h.cp.FailDN(region)
	expect[*protocol.ReAdd](holder)
	holder.send(&protocol.ReAddReply{Entries: []protocol.ReAddEntry{
		{Object: oid, NumPieces: 4, HaveCount: 4, Complete: true},
	}})
	waitFor(t, "re-announce absorbed", func() bool { return h.cp.DN(region).Copies(oid) == 1 })

	// Mid-window: the directory already has the entry back, but a query
	// still answers edge-only rather than serving a partial view.
	querier.send(&protocol.Query{Object: oid, Token: h.token(querier.guid, oid, true), MaxPeers: 40})
	if qr := expect[*protocol.QueryResult](querier); qr.Err != "" || len(qr.Peers) != 0 {
		t.Fatalf("mid-rebuild query: err=%q peers=%d, want empty edge-only answer",
			qr.Err, len(qr.Peers))
	}
	annKey := `dn_rebuild_announces_total{region="` + region.String() + `"}`
	gaugeKey := `dn_rebuilding{region="` + region.String() + `"}`
	snap := h.cp.Metrics().Snapshot()
	if snap.Counters[annKey] == 0 {
		t.Fatalf("%s = 0, want the RE-ADD counted", annKey)
	}
	if snap.Gauges[gaugeKey] != 1 {
		t.Fatalf("%s = %v during the window, want 1", gaugeKey, snap.Gauges[gaugeKey])
	}

	// Past the window: the same query converges back to the pre-failure
	// candidate set.
	waitFor(t, "rebuild window close", func() bool {
		return !h.cp.DN(region).Rebuilding(wallNowMs())
	})
	querier.send(&protocol.Query{Object: oid, Token: h.token(querier.guid, oid, true), MaxPeers: 40})
	if qr := expect[*protocol.QueryResult](querier); len(qr.Peers) != 1 || qr.Peers[0].GUID != holder.guid {
		t.Fatalf("post-rebuild query returned %d peers, want the holder", len(qr.Peers))
	}
	snap = h.cp.Metrics().Snapshot()
	if hs := snap.Histograms["dn_rebuild_ms"]; hs.Count == 0 {
		t.Fatal("dn_rebuild_ms not observed after the window closed")
	}
	if snap.Gauges[gaugeKey] != 0 {
		t.Fatalf("%s = %v after the window, want 0", gaugeKey, snap.Gauges[gaugeKey])
	}
}

func TestSessionSheddingWhenOverloaded(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.MaxSessionsPerCN = 1 })
	p1 := h.dialPeer("US", true)
	if ack := expect[*protocol.LoginAck](p1); !ack.OK {
		t.Fatal("first login rejected")
	}
	p2 := h.dialPeer("US", true)
	ack := expect[*protocol.LoginAck](p2)
	if ack.OK {
		t.Fatal("overload login accepted")
	}
	if ack.RetryAfterMs == 0 {
		t.Error("shed login lacks retry-after")
	}
}

func TestSessionReplacedOnReconnect(t *testing.T) {
	h := newHarness(t, nil)
	p1 := h.dialPeer("US", true)
	expect[*protocol.LoginAck](p1)
	waitFor(t, "session", func() bool { return h.cp.SessionCount() == 1 })

	// Same GUID reconnects (e.g. after a network blip the old socket is
	// still lingering); the new session replaces the old.
	conn, err := net.Dial("tcp", h.cn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = protocol.WriteMessage(conn, &protocol.Login{
		GUID: p1.guid, SwarmAddr: "127.0.0.1:10", DeclaredIP: p1.rec.IP.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "old session replaced", func() bool {
		_, ok := <-p1.incoming // drained until closed
		return !ok
	})
	if h.cp.SessionCount() != 1 {
		t.Fatalf("SessionCount=%d, want 1", h.cp.SessionCount())
	}
}

// sendUsage sends a usage entry in-band, as a peer without a log spool does.
func (p *rawPeer) sendUsage(e *logpipe.Entry) {
	p.t.Helper()
	raw, err := logpipe.EncodeEntry(e)
	if err != nil {
		p.t.Fatal(err)
	}
	p.send(&protocol.UsageLog{Entry: raw})
}

func usageEntry(oid content.ObjectID, size, infra int64, token []byte) *logpipe.Entry {
	return &logpipe.Entry{Kind: logpipe.EntryKindDownload, Object: oid.Hex(),
		CP: 7, Size: size, BytesInfra: infra, Token: token}
}

func TestStatsVerificationFiltersForgedReports(t *testing.T) {
	ledger := edge.NewLedger()
	var collector *accounting.Collector
	h := newHarness(t, func(c *Config) {
		collector = accounting.NewCollector(&accounting.LedgerVerifier{Edge: ledger})
		c.Collector = collector
	})
	oid := content.NewObjectID(7, "file", 1)
	p := h.dialPeer("US", true)
	expect[*protocol.LoginAck](p)
	other := h.dialPeer("DE", true)
	expect[*protocol.LoginAck](other)
	waitFor(t, "both sessions", func() bool { return h.cp.Connected(p.guid) && h.cp.Connected(other.guid) })
	downloads := func() []accounting.DownloadRecord { return collector.Snapshot().Downloads }

	// Forged: never authorized by the edge.
	p.sendUsage(usageEntry(oid, 100, 100, nil))
	waitFor(t, "rejected report", func() bool { return collector.Rejected() == 1 })

	// Legitimate: authorized, and claimed infra bytes within what the edge
	// served.
	ledger.RecordAuthorization(p.guid, oid)
	ledger.RecordServed(p.guid, oid, 1000)
	token := h.token(p.guid, oid, true)
	p.sendUsage(usageEntry(oid, 1000, 900, token))
	waitFor(t, "accepted report", func() bool { return len(downloads()) == 1 })
	rec := downloads()[0]
	if !rec.P2PEnabled {
		t.Error("p2p flag not recovered from token")
	}
	if rec.GUID != p.guid || rec.IP != p.rec.IP {
		t.Errorf("record booked to %s at %v, want the session's %s at %v", rec.GUID.Short(), rec.IP, p.guid.Short(), p.rec.IP)
	}

	// Impersonation: an entry naming another live peer's GUID and IP is
	// booked to the session that sent it.
	spoof := usageEntry(oid, 1000, 800, token)
	spoof.GUID, spoof.IP = other.guid.String(), other.rec.IP.String()
	p.sendUsage(spoof)
	waitFor(t, "spoofed report", func() bool { return len(downloads()) == 2 })
	if rec := downloads()[1]; rec.GUID != p.guid || rec.IP != p.rec.IP {
		t.Errorf("spoofed record booked to %s at %v, want the session's %s at %v", rec.GUID.Short(), rec.IP, p.guid.Short(), p.rec.IP)
	}

	// A streaming record survives the in-band path field for field, and its
	// contributor is attributed to the contributor's live session.
	stream := usageEntry(oid, 1000, 400, token)
	stream.BytesPeers = 600
	stream.FromPeers = []logpipe.EntryContribution{{GUID: other.guid.String(), Bytes: 600}}
	stream.Stream = &accounting.StreamStats{BitrateBps: 3_000_000, StartupDelayMs: 420, RebufferCount: 2,
		RebufferMs: 900, DeadlineMisses: 3, PiecesPlayed: 40, PiecesTotal: 48, EdgeRescueBytes: 1 << 20}
	p.sendUsage(stream)
	waitFor(t, "stream report", func() bool { return len(downloads()) == 3 })
	rec = downloads()[2]
	wantStream := accounting.StreamStats{BitrateBps: 3_000_000, StartupDelayMs: 420, RebufferCount: 2,
		RebufferMs: 900, DeadlineMisses: 3, PiecesPlayed: 40, PiecesTotal: 48, EdgeRescueBytes: 1 << 20}
	if rec.Stream == nil || *rec.Stream != wantStream {
		t.Errorf("stream sub-record %+v, want %+v", rec.Stream, wantStream)
	}
	wantFrom := []accounting.PeerContribution{{GUID: other.guid, IP: other.rec.IP, Bytes: 600}}
	if !reflect.DeepEqual(rec.FromPeers, wantFrom) || rec.BytesPeers != 600 {
		t.Errorf("contributors %+v (%d peer bytes), want %+v", rec.FromPeers, rec.BytesPeers, wantFrom)
	}

	// Inflated: claims more infra bytes than the edge served.
	p.sendUsage(usageEntry(oid, 1e9, 1<<40, token))
	waitFor(t, "second rejection", func() bool { return collector.Rejected() == 2 })
	if got := h.cp.Metrics().Snapshot().Counters["cp_stats_reports_total"]; got != 5 {
		t.Errorf("cp_stats_reports_total = %d, want one per report (5)", got)
	}
}

// TestNegativeUsageRejectedOnBothTransports: a record with negative bytes
// must never be booked, whether it arrives in-band or in an uploaded batch,
// and even on a control plane without an edge verifier (netsession-cp's
// default).
func TestNegativeUsageRejectedOnBothTransports(t *testing.T) {
	h := newHarness(t, nil)
	oid := content.NewObjectID(7, "file", 1)
	p := h.dialPeer("US", true)
	expect[*protocol.LoginAck](p)
	collector := h.cp.Collector()

	p.sendUsage(usageEntry(oid, 1000, -1<<40, nil))
	waitFor(t, "in-band rejection", func() bool { return collector.Rejected() == 1 })

	neg := usageEntry(oid, 1000, 0, nil)
	neg.BytesPeers = 500
	neg.FromPeers = []logpipe.EntryContribution{{GUID: id.NewGUID().String(), Bytes: -500}}
	line, err := logpipe.EncodeEntry(neg)
	if err != nil {
		t.Fatal(err)
	}
	body, err := logpipe.MarshalSegment([][]byte{line})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, logpipe.BatchPath, bytes.NewReader(body))
	req.Header.Set(logpipe.HeaderGUID, p.guid.String())
	req.Header.Set(logpipe.HeaderSeq, "1")
	w := httptest.NewRecorder()
	h.cp.LogIngest().Handler().ServeHTTP(w, req)
	var resp logpipe.BatchResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil || w.Code != http.StatusOK {
		t.Fatalf("ingest answered %d (%v)", w.Code, err)
	}
	if resp.Accepted != 0 || resp.Rejected != 1 {
		t.Errorf("ingest accepted %d, rejected %d; want the record rejected", resp.Accepted, resp.Rejected)
	}
	if got := collector.Rejected(); got != 2 {
		t.Errorf("Rejected() = %d, want 2", got)
	}
	if got := len(collector.Snapshot().Downloads); got != 0 {
		t.Errorf("%d negative records booked", got)
	}
	if got := h.cp.Metrics().Snapshot().Counters[`accounting_rejected_total{reason="other"}`]; got != 2 {
		t.Errorf(`accounting_rejected_total{reason="other"} = %d, want 2`, got)
	}
}

func TestMonitorIngestAndHTTP(t *testing.T) {
	m := NewMonitor()
	m.maxRing = 4
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 6; i++ {
		m.Ingest(Report{TimeMs: int64(i), GUID: "g", Kind: "crash", Detail: "x"})
	}
	if m.Count("crash") != 6 {
		t.Fatalf("Count=%d, want 6", m.Count("crash"))
	}
	if got := len(m.Recent()); got != 4 {
		t.Fatalf("ring kept %d, want 4", got)
	}
}

func TestStatusSnapshot(t *testing.T) {
	h := newHarness(t, nil)
	oid := content.NewObjectID(5, "s", 1)
	p := h.dialPeer("US", true)
	expect[*protocol.LoginAck](p)
	p.send(&protocol.Register{Object: oid, NumPieces: 1, HaveCount: 1, Complete: true})
	waitFor(t, "registration", func() bool {
		return h.cp.DN(geo.RegionOf(p.rec)).Copies(oid) == 1
	})

	st := h.cp.Status()
	if st.Sessions != 1 || st.CNs != 1 {
		t.Errorf("sessions=%d cns=%d", st.Sessions, st.CNs)
	}
	total := 0
	for _, r := range st.Regions {
		total += r.Objects
	}
	if total != 1 {
		t.Errorf("directory objects=%d, want 1", total)
	}
	// And over HTTP via the handler.
	srv := httptest.NewServer(h.cp.StatusHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Sessions != 1 {
		t.Errorf("HTTP status sessions=%d", got.Sessions)
	}
}

// addDownloads books n accepted download records straight into the
// collector.
func (h *harness) addDownloads(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		if err := h.cp.Collector().AddDownload(accounting.DownloadRecord{Size: 1}); err != nil {
			h.t.Fatal(err)
		}
	}
}

// TestStatusCountsEvictedDownloads: acceptedDownloads counts every accepted
// record, not just the ones the collector's bounded window still holds.
func TestStatusCountsEvictedDownloads(t *testing.T) {
	const limit, extra = 4, 3
	h := newHarness(t, func(c *Config) { c.MaxLogRecords = limit })
	h.addDownloads(limit + extra)
	if got := h.cp.Status().AcceptedDownloads; got != limit+extra {
		t.Fatalf("acceptedDownloads = %d, want %d (%d retained + %d evicted)", got, limit+extra, limit, extra)
	}
}

// TestStatusCostIndependentOfLog: every peer node's membership probe reads
// /v1/status, so building it must not copy the accounting window — its cost
// is the same at 10 records as at 10,000.
func TestStatusCostIndependentOfLog(t *testing.T) {
	h := newHarness(t, nil)
	cost := func() (allocs float64, bytes uint64) {
		allocs = testing.AllocsPerRun(100, func() { h.cp.Status() })
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			h.cp.Status()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	h.addDownloads(10)
	smallAllocs, smallBytes := cost()
	h.addDownloads(10_000 - 10)
	bigAllocs, bigBytes := cost()
	if bigAllocs != smallAllocs {
		t.Errorf("Status allocates %v times at 10 records, %v at 10,000", smallAllocs, bigAllocs)
	}
	// Slack for whatever the node's own goroutines allocate meanwhile; one
	// copied window of 10,000 records is over a megabyte.
	if bigBytes > smallBytes+16<<10 {
		t.Errorf("Status allocates %d bytes at 10 records, %d at 10,000", smallBytes, bigBytes)
	}
}

func TestMonitorAlerts(t *testing.T) {
	m := NewMonitor()
	m.SetAlertThreshold("crash", 3)
	for i := 0; i < 5; i++ {
		m.Ingest(Report{Kind: "crash"})
	}
	m.Ingest(Report{Kind: "other"})
	alerts := m.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("got %d alerts, want exactly 1 (raised once at threshold)", len(alerts))
	}
	if alerts[0].Kind != "crash" || alerts[0].Count != 3 {
		t.Errorf("alert %+v", alerts[0])
	}
}
