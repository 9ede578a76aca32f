package peer

import (
	"context"
	"testing"
	"time"

	"netsession/internal/accounting"
	"netsession/internal/content"
	"netsession/internal/controlplane"
	"netsession/internal/edge"
	"netsession/internal/faults"
	"netsession/internal/geo"
	"netsession/internal/protocol"
)

// deployment is a full live system on localhost: edge tier, control plane
// with one or more CNs, and helpers to spawn peers with synthetic
// identities.
type deployment struct {
	t       *testing.T
	atlas   *geo.Atlas
	scape   *geo.EdgeScape
	edgeSrv *edge.Server
	cat     *edge.Catalog
	minter  *edge.TokenMinter
	ledger  *edge.Ledger
	cp      *controlplane.ControlPlane
	cns     []*controlplane.CN
}

func newDeployment(t *testing.T, numCNs int, objs ...*content.Object) *deployment {
	t.Helper()
	return startDeployment(t, numCNs, 0, objs)
}

// newWANDeployment is a one-CN deployment whose edge answers every request
// 2 ms late, standing in for the WAN round trip that makes a nearby peer
// the better source. Tests that assert peers carried bytes use it: on bare
// loopback a small object can come entirely from the edge before the first
// peer query is answered.
func newWANDeployment(t *testing.T, objs ...*content.Object) *deployment {
	t.Helper()
	return startDeployment(t, 1, 2*time.Millisecond, objs)
}

func startDeployment(t *testing.T, numCNs int, edgeLatency time.Duration, objs []*content.Object) *deployment {
	t.Helper()
	acfg := geo.DefaultAtlasConfig()
	acfg.TailCountries = 2
	atlas := geo.GenerateAtlas(acfg)
	scape := geo.NewEdgeScape(atlas)
	minter := edge.NewTokenMinter([]byte("e2e-key"))
	ledger := edge.NewLedger()

	cat := edge.NewCatalog()
	for _, o := range objs {
		if err := cat.PublishSynthetic(o); err != nil {
			t.Fatal(err)
		}
	}
	es := edge.NewServer(cat, minter, ledger, edge.DefaultClientConfig())
	if edgeLatency > 0 {
		es.UseFaults(faults.New(faults.Config{LatencyMin: edgeLatency, LatencyMax: edgeLatency}, es.Metrics()))
	}
	if err := es.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { es.Close() })

	node, err := controlplane.StartNode(controlplane.Config{
		CNs:       numCNs,
		Scape:     scape,
		Minter:    minter,
		Collector: accounting.NewCollector(&accounting.LedgerVerifier{Edge: ledger}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return &deployment{t: t, atlas: atlas, scape: scape, edgeSrv: es,
		cat: cat, minter: minter, ledger: ledger, cp: node.ControlPlane(), cns: node.CNs()}
}

func (d *deployment) cnAddrs() []string {
	out := make([]string, len(d.cns))
	for i, cn := range d.cns {
		out[i] = cn.Addr()
	}
	return out
}

// spawnPeer starts a NetSession client with a synthetic identity in the
// given country.
func (d *deployment) spawnPeer(country geo.CountryCode, uploadsEnabled bool, natc protocol.NATClass) *Client {
	d.t.Helper()
	c, ok := d.atlas.Country(country)
	if !ok {
		d.t.Fatalf("unknown country %s", country)
	}
	ip, err := d.scape.AllocateIP(c.ASNs[0], c.Locations[0])
	if err != nil {
		d.t.Fatal(err)
	}
	cl, err := New(Config{
		DeclaredIP:     ip.String(),
		NAT:            natc,
		ControlAddrs:   d.cnAddrs(),
		EdgeURL:        "http://" + d.edgeSrv.Addr(),
		UploadsEnabled: uploadsEnabled,
		Logf:           d.t.Logf,
	})
	if err != nil {
		d.t.Fatal(err)
	}
	d.t.Cleanup(cl.Close)
	if !cl.WaitControlConnected(5 * time.Second) {
		d.t.Fatal("peer did not connect to control plane")
	}
	return cl
}

func e2eObject(t *testing.T, size int64, p2p bool) *content.Object {
	t.Helper()
	obj, err := content.NewObject(77, "e2e/blob.bin", 1, size, 16<<10, p2p)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// seed downloads the object on a fresh uploads-enabled peer so it becomes a
// registered copy, and waits for the registration to land in the directory.
func (d *deployment) seed(country geo.CountryCode, obj *content.Object) *Client {
	d.t.Helper()
	s := d.spawnPeer(country, true, protocol.NATNone)
	dl, err := s.Download(obj.ID)
	if err != nil {
		d.t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil {
		d.t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		d.t.Fatalf("seed download outcome %v", res.Outcome)
	}
	d.waitCopies(country, obj.ID, 1)
	return s
}

func (d *deployment) waitCopies(country geo.CountryCode, oid content.ObjectID, want int) {
	d.t.Helper()
	c, _ := d.atlas.Country(country)
	loc := d.atlas.Location(c.Locations[0])
	region := geo.RegionOf(geo.Record{Country: country, Continent: loc.Continent, Coord: loc.Coord})
	waitUntil(d.t, 5*time.Second, func() bool {
		return d.cp.DN(region).Copies(oid) >= want
	}, "directory never reached %d copies", want)
}

func verifyStored(t *testing.T, c *Client, obj *content.Object) {
	t.Helper()
	if !c.Store().Complete(obj.ID) {
		t.Fatal("store incomplete after download")
	}
	m, err := content.SyntheticManifest(obj)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < obj.NumPieces(); i++ {
		data, ok := c.Store().Get(obj.ID, i)
		if !ok {
			t.Fatalf("piece %d missing", i)
		}
		if err := m.Verify(i, data); err != nil {
			t.Fatalf("piece %d: %v", i, err)
		}
	}
}

func TestEdgeOnlyDownload(t *testing.T) {
	obj := e2eObject(t, 300_000, false) // p2p disabled by provider
	d := newDeployment(t, 1, obj)
	c := d.spawnPeer("US", false, protocol.NATNone)

	dl, err := c.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.BytesPeers != 0 {
		t.Errorf("p2p-disabled download got %d peer bytes", res.BytesPeers)
	}
	if res.BytesInfra != obj.Size {
		t.Errorf("infra bytes %d, want %d", res.BytesInfra, obj.Size)
	}
	verifyStored(t, c, obj)
}

func TestPeerAssistedDownload(t *testing.T) {
	obj := e2eObject(t, 512_000, true)
	d := newWANDeployment(t, obj)
	d.seed("US", obj)

	c := d.spawnPeer("US", true, protocol.NATNone)
	dl, err := c.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.BytesPeers == 0 {
		t.Error("peer-assisted download received no peer bytes")
	}
	if res.BytesInfra+res.BytesPeers != obj.Size {
		t.Errorf("byte accounting: infra %d + peers %d != %d",
			res.BytesInfra, res.BytesPeers, obj.Size)
	}
	if res.PeersReturned != 1 {
		t.Errorf("PeersReturned=%d, want 1", res.PeersReturned)
	}
	if len(res.FromPeers) != 1 {
		t.Errorf("FromPeers has %d entries, want 1", len(res.FromPeers))
	}
	verifyStored(t, c, obj)

	// Accounting: the CN accepted verified download records for both the
	// seed and this download.
	waitUntil(t, 5*time.Second, func() bool {
		return len(d.cp.Collector().Snapshot().Downloads) >= 2
	}, "collector never reached 2 download records")
	log := d.cp.Collector().Snapshot()
	var assisted *accounting.DownloadRecord
	for i := range log.Downloads {
		if log.Downloads[i].BytesPeers > 0 {
			assisted = &log.Downloads[i]
		}
	}
	if assisted == nil {
		t.Fatal("no peer-assisted record collected")
	}
	if !assisted.P2PEnabled {
		t.Error("record lost the p2p policy bit")
	}
	if got := assisted.PeerEfficiency(); got <= 0 || got > 1 {
		t.Errorf("peer efficiency %v out of range", got)
	}
}

func TestSwarmScalesToManySeeds(t *testing.T) {
	obj := e2eObject(t, 400_000, true)
	d := newWANDeployment(t, obj)
	d.seed("US", obj)
	d.seed("US", obj)
	d.waitCopies("US", obj.ID, 2)

	c := d.spawnPeer("US", true, protocol.NATNone)
	dl, err := c.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.PeersReturned != 2 {
		t.Errorf("PeersReturned=%d, want 2", res.PeersReturned)
	}
	verifyStored(t, c, obj)
}

func TestNATIncompatibleFallsBackToEdge(t *testing.T) {
	obj := e2eObject(t, 200_000, true)
	d := newDeployment(t, 1, obj)
	// Seed behind a symmetric NAT; downloader also symmetric: the DN's
	// connectivity-aware selection returns nothing and the edge covers the
	// whole download.
	s := d.spawnPeer("US", true, protocol.NATSymmetric)
	dl, err := s.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, _ := dl.Wait(ctx); res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("seed outcome %v", res.Outcome)
	}
	d.waitCopies("US", obj.ID, 1)

	c := d.spawnPeer("US", true, protocol.NATSymmetric)
	dl2, err := c.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dl2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.BytesPeers != 0 {
		t.Errorf("symmetric-symmetric pair exchanged %d peer bytes", res.BytesPeers)
	}
	verifyStored(t, c, obj)
}

func TestUploadsDisabledPeerDoesNotServe(t *testing.T) {
	obj := e2eObject(t, 200_000, true)
	d := newDeployment(t, 1, obj)
	// "Seed" with uploads disabled: completes but never registers.
	s := d.spawnPeer("US", false, protocol.NATNone)
	dl, err := s.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, _ := dl.Wait(ctx); res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome %v", res.Outcome)
	}
	time.Sleep(200 * time.Millisecond)

	c := d.spawnPeer("US", true, protocol.NATNone)
	dl2, err := c.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dl2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.BytesPeers != 0 {
		t.Errorf("received %d bytes from a peer that disabled uploads", res.BytesPeers)
	}
}

func TestPauseResume(t *testing.T) {
	obj := e2eObject(t, 400_000, false)
	d := newDeployment(t, 1, obj)
	c := d.spawnPeer("US", false, protocol.NATNone)
	dl, err := c.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	dl.Pause()
	time.Sleep(150 * time.Millisecond)
	have1, _ := dl.Progress()
	time.Sleep(150 * time.Millisecond)
	have2, _ := dl.Progress()
	if have2 > have1+1 { // at most one in-flight piece may land after Pause
		t.Errorf("download progressed while paused: %d -> %d", have1, have2)
	}
	dl.Resume()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome after resume %v", res.Outcome)
	}
	verifyStored(t, c, obj)
}

func TestAbortReportsAborted(t *testing.T) {
	obj := e2eObject(t, 20_000_000, false)
	d := newDeployment(t, 1, obj)
	c := d.spawnPeer("US", false, protocol.NATNone)
	dl, err := c.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Abort as soon as the first piece lands (well before 20 MB completes).
	waitUntil(t, 10*time.Second, func() bool {
		have, _ := dl.Progress()
		return have >= 1
	}, "no piece arrived before abort")
	dl.Abort()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeAborted {
		t.Fatalf("outcome %v, want aborted", res.Outcome)
	}
	// The aborted outcome reaches the accounting log.
	waitUntil(t, 5*time.Second, func() bool {
		for _, rec := range d.cp.Collector().Snapshot().Downloads {
			if rec.Outcome == protocol.OutcomeAborted {
				return true
			}
		}
		return false
	}, "aborted record never collected")
}

func TestResumeAfterAbortReusesStore(t *testing.T) {
	obj := e2eObject(t, 1_000_000, false)
	d := newDeployment(t, 1, obj)
	c := d.spawnPeer("US", false, protocol.NATNone)
	dl, err := c.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Let some pieces land, then abort.
	eventually(10*time.Second, func() bool {
		have, _ := dl.Progress()
		return have > 3
	})
	dl.Abort()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dl.Wait(ctx)
	before := c.Store().Have(obj.ID).Count()
	if before == 0 {
		t.Skip("abort landed before any piece; nothing to verify")
	}
	// A fresh download continues from the stored pieces.
	dl2, err := c.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dl2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if got := res.BytesInfra + res.BytesPeers; got >= obj.Size {
		t.Errorf("resumed download fetched %d bytes, expected less than %d", got, obj.Size)
	}
	verifyStored(t, c, obj)
}

func TestCNFailover(t *testing.T) {
	obj := e2eObject(t, 100_000, false)
	d := newDeployment(t, 2, obj)
	c := d.spawnPeer("US", true, protocol.NATNone)

	// Kill the CN the peer is connected to; it must re-login to the other.
	d.cns[0].Close()
	waitUntil(t, 10*time.Second, func() bool {
		return d.cp.Connected(c.GUID()) && c.control.connected()
	}, "peer did not fail over to the surviving CN")
	// And the peer still works end to end.
	dl, err := c.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome %v", res.Outcome)
	}
}

func TestPreferenceFlipStopsServing(t *testing.T) {
	obj := e2eObject(t, 200_000, true)
	d := newDeployment(t, 1, obj)
	s := d.seed("US", obj)

	// The user turns uploads off; the directory entry is soft state that
	// expires, but the peer must refuse new handshakes immediately.
	s.Preferences().SetUploadsEnabled(false)
	c := d.spawnPeer("US", true, protocol.NATNone)
	dl, err := c.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.BytesPeers != 0 {
		t.Errorf("peer with uploads disabled served %d bytes", res.BytesPeers)
	}
	if s.Preferences().Changes() != 1 {
		t.Errorf("Changes=%d, want 1", s.Preferences().Changes())
	}
}
