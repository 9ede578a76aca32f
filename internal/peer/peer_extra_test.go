package peer

import (
	"context"
	"net"
	"testing"
	"time"

	"netsession/internal/accounting"
	"netsession/internal/content"
	"netsession/internal/controlplane"
	"netsession/internal/edge"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/nat"
	"netsession/internal/protocol"
)

// maliciousUploader is a raw swarm server that accepts handshakes, claims to
// have every piece, and answers requests with garbage — the §3.5 threat the
// piece-hash verification exists for.
type maliciousUploader struct {
	t    *testing.T
	ln   net.Listener
	guid id.GUID
	n    int // pieces claimed
}

func startMaliciousUploader(t *testing.T, numPieces int) *maliciousUploader {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := &maliciousUploader{t: t, ln: ln, guid: id.NewGUID(), n: numPieces}
	go m.serve()
	t.Cleanup(func() { ln.Close() })
	return m
}

func (m *maliciousUploader) serve() {
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		go m.handle(conn)
	}
}

func (m *maliciousUploader) handle(conn net.Conn) {
	defer conn.Close()
	msg, err := protocol.ReadMessage(conn)
	if err != nil {
		return
	}
	hs, ok := msg.(*protocol.Handshake)
	if !ok {
		return
	}
	protocol.WriteMessage(conn, &protocol.HandshakeAck{OK: true, NumPieces: uint32(m.n)})
	full := content.NewBitfield(m.n)
	for i := 0; i < m.n; i++ {
		full.Set(i)
	}
	protocol.WriteMessage(conn, &protocol.BitfieldMsg{Bits: full.MarshalBinary()})
	_ = hs
	for {
		msg, err := protocol.ReadMessage(conn)
		if err != nil {
			return
		}
		if req, ok := msg.(*protocol.Request); ok {
			// Garbage bytes of a plausible length.
			junk := make([]byte, 16<<10)
			for i := range junk {
				junk[i] = 0x5a
			}
			if protocol.WriteMessage(conn, &protocol.Piece{Index: req.Index, Data: junk}) != nil {
				return
			}
		}
	}
}

// registerRaw logs a fake peer into the control plane and registers it as a
// complete holder of the object, pointing its swarm address at addr.
func registerRaw(t *testing.T, d *deployment, g id.GUID, country geo.CountryCode, addr string, oid content.ObjectID) {
	t.Helper()
	c, _ := d.atlas.Country(country)
	ip, err := d.scape.AllocateIP(c.ASNs[0], c.Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", d.cns[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	err = protocol.WriteMessage(conn, &protocol.Login{
		GUID: g, UploadsEnabled: true, SwarmAddr: addr,
		NAT: protocol.NATNone, DeclaredIP: ip.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteMessage(conn, &protocol.Register{
		Object: oid, NumPieces: 1, HaveCount: 1, Complete: true,
	}); err != nil {
		t.Fatal(err)
	}
	// Keep the session alive: drain inbound messages (ConnectTo etc.).
	go func() {
		for {
			if _, err := protocol.ReadMessage(conn); err != nil {
				return
			}
		}
	}()
	loc := d.atlas.Location(c.Locations[0])
	region := geo.RegionOf(geo.Record{Country: country, Continent: loc.Continent, Coord: loc.Coord})
	waitUntil(t, 5*time.Second, func() bool {
		return d.cp.DN(region).Copies(oid) >= 1
	}, "raw registration never landed")
}

// TestMaliciousUploaderDiscarded: a peer serving corrupt pieces cannot harm
// the download — every piece is verified against the edge manifest, the
// garbage is discarded, and the edge covers the difference.
func TestMaliciousUploaderDiscarded(t *testing.T) {
	obj := e2eObject(t, 12_000_000, true)
	d := newDeployment(t, 1, obj)

	evil := startMaliciousUploader(t, obj.NumPieces())
	registerRaw(t, d, evil.guid, "US", evil.ln.Addr().String(), obj.ID)

	// Monitoring node receives the corrupt-piece reports.
	mon := controlplane.NewMonitor()
	if err := mon.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	ip, err := d.scape.AllocateIP(mustCountry(t, d, "US").ASNs[0], mustCountry(t, d, "US").Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{
		DeclaredIP:   ip.String(),
		ControlAddrs: d.cnAddrs(),
		EdgeURL:      "http://" + d.edgeSrv.Addr(),
		MonitorURL:   "http://" + mon.Addr(),
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	dl, err := cl.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.FromPeers[evil.guid] != 0 {
		t.Errorf("malicious peer credited with %d bytes", res.FromPeers[evil.guid])
	}
	verifyStored(t, cl, obj)
	// The client reported the corruption to the monitoring node.
	if !eventually(5*time.Second, func() bool { return mon.Count("piece-corrupt") > 0 }) {
		t.Error("no corrupt-piece report reached the monitor")
	}
}

func mustCountry(t *testing.T, d *deployment, code geo.CountryCode) *geo.Country {
	t.Helper()
	c, ok := d.atlas.Country(code)
	if !ok {
		t.Fatalf("unknown country %s", code)
	}
	return c
}

// TestEdgeFailover: with two edge servers, killing the preferred one mid-
// download must not break the transfer.
func TestEdgeFailover(t *testing.T) {
	obj := e2eObject(t, 3_000_000, false)
	d := newDeployment(t, 1, obj)

	// Second edge server sharing the same catalog/key/ledger.
	es2 := newSecondEdge(t, d, obj)

	ip, err := d.scape.AllocateIP(mustCountry(t, d, "US").ASNs[0], mustCountry(t, d, "US").Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{
		DeclaredIP:   ip.String(),
		ControlAddrs: d.cnAddrs(),
		EdgeURL:      "http://" + d.edgeSrv.Addr(),
		EdgeURLs:     []string{"http://" + es2.Addr()},
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	dl, err := cl.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the first edge server once a few pieces have arrived.
	waitUntil(t, 10*time.Second, func() bool {
		have, _ := dl.Progress()
		return have >= 2
	}, "no progress before killing the edge server")
	d.edgeSrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome %v after edge failover", res.Outcome)
	}
	verifyStored(t, cl, obj)
}

// newSecondEdge starts another edge server sharing the deployment's
// catalog, token key and ledger — a second member of the edge fleet.
func newSecondEdge(t *testing.T, d *deployment, _ ...*content.Object) *edge.Server {
	t.Helper()
	es := edge.NewServer(d.cat, d.minter, d.ledger, edge.DefaultClientConfig())
	if err := es.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { es.Close() })
	return es
}

func TestSTUNDiscoveryViaConfig(t *testing.T) {
	obj := e2eObject(t, 50_000, false)
	d := newDeployment(t, 1, obj)
	stun, err := nat.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stun.Close()

	ip, err := d.scape.AllocateIP(mustCountry(t, d, "US").ASNs[0], mustCountry(t, d, "US").Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{
		DeclaredIP:   ip.String(),
		ControlAddrs: d.cnAddrs(),
		EdgeURL:      "http://" + d.edgeSrv.Addr(),
		STUNAddr:     stun.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got := cl.ReflexiveAddr()
	if !got.IsValid() || got.Port() == 0 {
		t.Fatalf("reflexive address not discovered: %v", got)
	}
}

func TestSequentialDownload(t *testing.T) {
	obj := e2eObject(t, 500_000, false)
	d := newDeployment(t, 1, obj)
	c := d.spawnPeer("US", false, protocol.NATNone)
	dl, err := c.DownloadWith(obj.ID, DownloadOpts{sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	// While running, the verified prefix must stay contiguous (streaming
	// playback property). Sample a few times.
	for k := 0; k < 20; k++ {
		bf := c.Store().Have(obj.ID)
		if bf != nil {
			count := bf.Count()
			for i := 0; i < count; i++ {
				if !bf.Has(i) {
					t.Fatalf("sequential download has a hole at piece %d (count=%d)", i, count)
				}
			}
			if count == bf.Len() {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome %v", res.Outcome)
	}
	verifyStored(t, c, obj)
}

// TestSelfUpgrade reproduces §3.8's centrally controlled upgrade: the
// control plane pushes a target version; the client adopts it and
// re-logs-in, so the fleet converges without user interaction.
func TestSelfUpgrade(t *testing.T) {
	obj := e2eObject(t, 10_000, false)
	acfg := geo.DefaultAtlasConfig()
	acfg.TailCountries = 2
	atlas := geo.GenerateAtlas(acfg)
	scape := geo.NewEdgeScape(atlas)
	minter := edge.NewTokenMinter([]byte("up-key"))
	ledger := edge.NewLedger()
	cat := edge.NewCatalog()
	if err := cat.PublishSynthetic(obj); err != nil {
		t.Fatal(err)
	}
	es := edge.NewServer(cat, minter, ledger, edge.DefaultClientConfig())
	if err := es.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	cc := edge.DefaultClientConfig()
	cc.TargetVersion = "ns-9.9"
	node, err := controlplane.StartNode(controlplane.Config{
		Scape: scape, Minter: minter,
		Collector:    accounting.NewCollector(nil),
		ClientConfig: cc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	cp, cn := node.ControlPlane(), node.CNs()[0]

	c, _ := atlas.Country("US")
	ip, err := scape.AllocateIP(c.ASNs[0], c.Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{
		DeclaredIP:   ip.String(),
		ControlAddrs: []string{cn.Addr()},
		EdgeURL:      "http://" + es.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	waitUntil(t, 10*time.Second, func() bool {
		return cl.SoftwareVersion() == "ns-9.9" && cl.control.connected()
	}, "client never upgraded past %s", cl.SoftwareVersion())
	// The control plane observed logins at both versions.
	versions := func() (sawOld, sawNew bool) {
		for _, l := range cp.Collector().Snapshot().Logins {
			switch l.SoftwareVersion {
			case softwareVersion:
				sawOld = true
			case "ns-9.9":
				sawNew = true
			}
		}
		return
	}
	waitUntil(t, 5*time.Second, func() bool {
		sawOld, sawNew := versions()
		return sawOld && sawNew
	}, "control plane never observed logins at both versions")
}
