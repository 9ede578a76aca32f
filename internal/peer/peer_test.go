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
	"netsession/internal/telemetry"
)

// deployment is a full live system on localhost: edge tier, control plane
// with one or more CNs, and helpers to spawn peers with synthetic
// identities.
type deployment struct {
	t       testing.TB
	atlas   *geo.Atlas
	scape   *geo.EdgeScape
	edgeSrv *edge.Server
	cat     *edge.Catalog
	minter  *edge.TokenMinter
	ledger  *edge.Ledger
	cp      *controlplane.ControlPlane
	cns     []*controlplane.CN
}

func newDeployment(t testing.TB, numCNs int, objs ...*content.Object) *deployment {
	t.Helper()
	return startDeployment(t, numCNs, 0, nil, objs)
}

// newWANDeployment is a one-CN deployment whose edge answers every request
// 2 ms late, standing in for the WAN round trip that makes a nearby peer
// the better source. Tests that assert peers carried bytes use it: on bare
// loopback a small object can come entirely from the edge before the first
// peer query is answered.
func newWANDeployment(t *testing.T, objs ...*content.Object) *deployment {
	t.Helper()
	return startDeployment(t, 1, 2*time.Millisecond, nil, objs)
}

// startDeployment starts an edge and a one-node control plane; mutate, when
// set, adjusts the control plane's config before it starts.
func startDeployment(t testing.TB, numCNs int, edgeLatency time.Duration, mutate func(*controlplane.Config), objs []*content.Object) *deployment {
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

	cfg := controlplane.Config{
		CNs:       numCNs,
		Scape:     scape,
		Minter:    minter,
		Collector: accounting.NewCollector(&accounting.LedgerVerifier{Edge: ledger}),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	node, err := controlplane.StartNode(cfg)
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
	return d.spawnPeerWith(country, uploadsEnabled, natc, nil)
}

// spawnPeerWith is spawnPeer with mutate, when set, adjusting the client's
// config before it starts.
func (d *deployment) spawnPeerWith(country geo.CountryCode, uploadsEnabled bool, natc protocol.NATClass, mutate func(*Config)) *Client {
	d.t.Helper()
	c, ok := d.atlas.Country(country)
	if !ok {
		d.t.Fatalf("unknown country %s", country)
	}
	ip, err := d.scape.AllocateIP(c.ASNs[0], c.Locations[0])
	if err != nil {
		d.t.Fatal(err)
	}
	cfg := Config{
		DeclaredIP:     ip.String(),
		NAT:            natc,
		ControlAddrs:   d.cnAddrs(),
		EdgeURL:        "http://" + d.edgeSrv.Addr(),
		UploadsEnabled: uploadsEnabled,
		Logf:           d.t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	cl, err := New(cfg)
	if err != nil {
		d.t.Fatal(err)
	}
	d.t.Cleanup(cl.Close)
	if !cl.WaitControlConnected(5 * time.Second) {
		d.t.Fatal("peer did not connect to control plane")
	}
	return cl
}

func e2eObject(t testing.TB, size int64, p2p bool) *content.Object {
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

// region is the network region of the peers spawnPeer starts in country.
func (d *deployment) region(country geo.CountryCode) geo.NetworkRegion {
	c, _ := d.atlas.Country(country)
	loc := d.atlas.Location(c.Locations[0])
	return geo.RegionOf(geo.Record{Country: country, Continent: loc.Continent, Coord: loc.Coord})
}

func (d *deployment) waitCopies(country geo.CountryCode, oid content.ObjectID, want int) {
	d.t.Helper()
	region := d.region(country)
	waitUntil(d.t, 5*time.Second, func() bool {
		return d.cp.DN(region).Copies(oid) >= want
	}, "directory never reached %d copies", want)
}

func verifyStored(t testing.TB, c *Client, obj *content.Object) {
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

// TestPeersReturnedSurvivesLateQueryResult: the control plane answers a
// peer query before it tells the chosen holders to dial back, yet the
// holders' pieces can reach the download before the answer is dispatched.
// Here the control reader holds every answer until the download has
// finished, or has held all its pieces for 300 ms. The record must still say that the
// control plane returned both seeds, and the trace must carry the
// peer-lookup stage.
func TestPeersReturnedSurvivesLateQueryResult(t *testing.T) {
	obj := e2eObject(t, 400_000, true)
	d := newWANDeployment(t, obj)
	d.seed("US", obj)
	d.seed("US", obj)
	d.waitCopies("US", obj.ID, 2)

	c := d.spawnPeerWith("US", true, protocol.NATNone, func(cfg *Config) {
		cfg.holdQueryResult = func(c *Client, qr *protocol.QueryResult) {
			dl := c.activeDownload(qr.Object)
			if dl == nil {
				return
			}
			var complete time.Time
			for complete.IsZero() || time.Since(complete) < 300*time.Millisecond {
				select {
				case <-dl.doneCh:
					return
				case <-time.After(time.Millisecond):
				}
				if have, total := dl.Progress(); complete.IsZero() && have == total {
					complete = time.Now()
				}
			}
		}
	})
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
	if res.Outcome != protocol.OutcomeCompleted || res.BytesPeers == 0 {
		t.Fatalf("outcome %v with %d peer bytes, want completed from the dial-back seeds", res.Outcome, res.BytesPeers)
	}
	var rec *accounting.DownloadRecord
	waitUntil(t, 5*time.Second, func() bool {
		for _, r := range d.cp.Collector().Snapshot().Downloads {
			if r.GUID == c.GUID() {
				rec = &r
				return true
			}
		}
		return false
	}, "the download's record never reached the collector")
	if res.PeersReturned != 2 || rec.PeersReturned != 2 {
		t.Errorf("PeersReturned: result %d, record %d; want 2", res.PeersReturned, rec.PeersReturned)
	}
	if _, ok := dl.trace.Stage(telemetry.StagePeerLookup); !ok {
		t.Errorf("trace has no %s stage", telemetry.StagePeerLookup)
	}
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

// TestReloginDuringRebuildAnnouncesOnce: a peer that logs in while its
// region's DN is rebuilding re-registers each stored object once, from the
// login itself; a RE-ADD is only sent to peers already connected when the
// DN was lost (§3.8).
func TestReloginDuringRebuildAnnouncesOnce(t *testing.T) {
	objs := []*content.Object{e2eObject(t, 100_000, true), e2eObject(t, 100_000, true)}
	var err error
	if objs[1], err = content.NewObject(78, "e2e/second.bin", 1, 100_000, 16<<10, true); err != nil {
		t.Fatal(err)
	}
	d := startDeployment(t, 2, 0, func(c *controlplane.Config) { c.DNRebuildWindowMs = 60_000 }, objs)
	s := d.seed("US", objs[0])
	dl, err := s.Download(objs[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, err := dl.Wait(ctx); err != nil || res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("second download: %v, %v", res.Outcome, err)
	}
	d.waitCopies("US", objs[1].ID, 1)
	key := `dn_rebuild_announces_total{region="` + d.region("US").String() + `"}`
	announces := func() int64 { return d.cp.Metrics().Snapshot().Counters[key] }

	// The DN loss sends RE-ADD to the connected peer: one Register per object.
	d.cp.FailDN(d.region("US"))
	waitUntil(t, 5*time.Second, func() bool { return announces() >= 2 }, "RE-ADD never answered")
	d.waitCopies("US", objs[0].ID, 1)
	d.waitCopies("US", objs[1].ID, 1)

	// Relogin mid-window: close the peer's CN so it fails over to the other.
	for _, cn := range d.cns {
		if cn.SessionCount() > 0 {
			cn.Close()
		}
	}
	waitUntil(t, 10*time.Second, func() bool { return announces() >= 4 },
		"relogin never re-registered: %s = %d", key, announces())
	if eventually(500*time.Millisecond, func() bool { return announces() > 4 }) {
		t.Fatalf("%s = %d after one RE-ADD and one relogin of a peer storing 2 objects, want 4",
			key, announces())
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
