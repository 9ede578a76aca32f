package selection

import (
	"math/rand"
	"net"
	"net/netip"
	"testing"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/protocol"
)

type fixture struct {
	atlas *geo.Atlas
	scape *geo.EdgeScape
	dir   *Directory
	rng   *rand.Rand
	obj   content.ObjectID
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	cfg := geo.DefaultAtlasConfig()
	cfg.TailCountries = 5
	atlas := geo.GenerateAtlas(cfg)
	return &fixture{
		atlas: atlas,
		scape: geo.NewEdgeScape(atlas),
		dir:   NewDirectory(0),
		rng:   rand.New(rand.NewSource(42)),
		obj:   content.NewObjectID(1, "obj", 1),
	}
}

// addPeer registers a peer homed in the given country/AS-index.
func (f *fixture) addPeer(t testing.TB, country geo.CountryCode, asIx int, natc protocol.NATClass) Entry {
	t.Helper()
	c, ok := f.atlas.Country(country)
	if !ok {
		t.Fatalf("unknown country %s", country)
	}
	ip, err := f.scape.AllocateIP(c.ASNs[asIx%len(c.ASNs)], c.Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	rec := f.scape.MustLookup(ip)
	e := Entry{
		Info: protocol.PeerInfo{
			GUID: id.RandGUID(f.rng), Addr: ip.String() + ":7000",
			NAT: natc, ASN: uint32(rec.ASN), Location: uint32(rec.Location),
		},
		Rec: rec, Complete: true,
	}
	f.dir.Register(f.obj, e)
	return e
}

func (f *fixture) query(rec geo.Record, natc protocol.NATClass, max int) Query {
	return Query{
		Object: f.obj, Requester: rec, RequesterGUID: id.RandGUID(f.rng),
		RequesterNAT: natc, Max: max, Rand: f.rng,
	}
}

func (f *fixture) requesterIn(t testing.TB, country geo.CountryCode, asIx int) geo.Record {
	t.Helper()
	c, _ := f.atlas.Country(country)
	ip, err := f.scape.AllocateIP(c.ASNs[asIx%len(c.ASNs)], c.Locations[1])
	if err != nil {
		t.Fatal(err)
	}
	return f.scape.MustLookup(ip)
}

func TestSelectPrefersLocality(t *testing.T) {
	f := newFixture(t)
	// 5 peers in the requester's AS, 5 elsewhere in the country, 5 abroad.
	var sameAS, sameCountry, abroad []id.GUID
	for i := 0; i < 5; i++ {
		sameAS = append(sameAS, f.addPeer(t, "US", 0, protocol.NATNone).Info.GUID)
		sameCountry = append(sameCountry, f.addPeer(t, "US", 1, protocol.NATNone).Info.GUID)
		abroad = append(abroad, f.addPeer(t, "DE", 0, protocol.NATNone).Info.GUID)
	}
	req := f.requesterIn(t, "US", 0)
	pol := DefaultPolicy()
	pol.DiversityProb = 0 // make ordering deterministic
	got := f.dir.Select(pol, f.query(req, protocol.NATNone, 5))
	if len(got) != 5 {
		t.Fatalf("got %d peers, want 5", len(got))
	}
	inSet := func(g id.GUID, set []id.GUID) bool {
		for _, x := range set {
			if x == g {
				return true
			}
		}
		return false
	}
	for _, p := range got {
		if !inSet(p.GUID, sameAS) {
			t.Errorf("peer %v not from requester's AS", p.GUID.Short())
		}
	}
	// Asking for more than the AS can provide spills into the country set
	// before going abroad.
	got = f.dir.Select(pol, f.query(req, protocol.NATNone, 10))
	if len(got) != 10 {
		t.Fatalf("got %d peers, want 10", len(got))
	}
	for _, p := range got {
		if inSet(p.GUID, abroad) {
			t.Errorf("foreign peer %v selected while domestic peers remain", p.GUID.Short())
		}
	}
	// Asking for everything reaches the World set.
	got = f.dir.Select(pol, f.query(req, protocol.NATNone, 40))
	if len(got) != 15 {
		t.Fatalf("got %d peers, want all 15", len(got))
	}
}

// TestSelectRequiresOwnership: a directory whose region moved to another
// control-plane node must answer with no candidates — its entries are stale
// by definition — and resume answering when ownership returns.
func TestSelectRequiresOwnership(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 5; i++ {
		f.addPeer(t, "US", 0, protocol.NATNone)
	}
	req := f.requesterIn(t, "US", 0)
	if got := f.dir.Select(DefaultPolicy(), f.query(req, protocol.NATNone, 5)); len(got) == 0 {
		t.Fatal("owned directory returned no peers")
	}
	f.dir.SetOwned(false)
	if got := f.dir.Select(DefaultPolicy(), f.query(req, protocol.NATNone, 5)); len(got) != 0 {
		t.Fatalf("disowned directory returned %d peers, want 0", len(got))
	}
	f.dir.SetOwned(true)
	if got := f.dir.Select(DefaultPolicy(), f.query(req, protocol.NATNone, 5)); len(got) == 0 {
		t.Fatal("re-owned directory returned no peers")
	}
}

func TestSelectFairnessRotation(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 6; i++ {
		f.addPeer(t, "US", 0, protocol.NATNone)
	}
	req := f.requesterIn(t, "US", 0)
	pol := DefaultPolicy()
	pol.DiversityProb = 0
	first := f.dir.Select(pol, f.query(req, protocol.NATNone, 3))
	second := f.dir.Select(pol, f.query(req, protocol.NATNone, 3))
	// The second query must not return any of the first three: they moved
	// to the tail of the fairness list.
	seen := make(map[id.GUID]bool)
	for _, p := range first {
		seen[p.GUID] = true
	}
	for _, p := range second {
		if seen[p.GUID] {
			t.Errorf("peer %v selected twice in a row despite fairness rotation", p.GUID.Short())
		}
	}
	// A third query wraps around to the first batch again.
	third := f.dir.Select(pol, f.query(req, protocol.NATNone, 3))
	for _, p := range third {
		if !seen[p.GUID] {
			t.Errorf("rotation should have wrapped to the first batch")
		}
	}
}

func TestSelectNATFiltering(t *testing.T) {
	f := newFixture(t)
	sym := f.addPeer(t, "US", 0, protocol.NATSymmetric)
	cone := f.addPeer(t, "US", 0, protocol.NATFullCone)
	req := f.requesterIn(t, "US", 0)
	got := f.dir.Select(DefaultPolicy(), f.query(req, protocol.NATSymmetric, 40))
	if len(got) != 1 || got[0].GUID != cone.Info.GUID {
		t.Fatalf("symmetric requester should only get the cone peer, got %d peers", len(got))
	}
	_ = sym
	// With filtering off, both are returned.
	pol := DefaultPolicy()
	pol.RequireNATCompat = false
	got = f.dir.Select(pol, f.query(req, protocol.NATSymmetric, 40))
	if len(got) != 2 {
		t.Fatalf("unfiltered selection returned %d peers, want 2", len(got))
	}
}

func TestSelectExcludesRequester(t *testing.T) {
	f := newFixture(t)
	e := f.addPeer(t, "US", 0, protocol.NATNone)
	q := f.query(e.Rec, protocol.NATNone, 40)
	q.RequesterGUID = e.Info.GUID
	if got := f.dir.Select(DefaultPolicy(), q); len(got) != 0 {
		t.Fatalf("requester returned as its own upload peer")
	}
}

func TestSelectDiversity(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 30; i++ {
		f.addPeer(t, "US", 0, protocol.NATNone)
		f.addPeer(t, "DE", 0, protocol.NATNone)
	}
	req := f.requesterIn(t, "US", 0)
	pol := DefaultPolicy()
	pol.DiversityProb = 0.5
	foreign := 0
	for trial := 0; trial < 50; trial++ {
		got := f.dir.Select(pol, f.query(req, protocol.NATNone, 10))
		for _, p := range got {
			rec := f.scape.MustLookup(mustAddr(t, p.Addr))
			if rec.Country != "US" {
				foreign++
			}
		}
	}
	if foreign == 0 {
		t.Error("diversity mechanism never picked a less specific set")
	}
}

func TestUnregisterAndDropPeer(t *testing.T) {
	f := newFixture(t)
	a := f.addPeer(t, "US", 0, protocol.NATNone)
	b := f.addPeer(t, "US", 0, protocol.NATNone)
	obj2 := content.NewObjectID(1, "obj2", 1)
	f.dir.Register(obj2, a)

	f.dir.Unregister(f.obj, a.Info.GUID)
	if f.dir.Copies(f.obj) != 1 {
		t.Fatalf("Copies=%d after unregister, want 1", f.dir.Copies(f.obj))
	}
	if f.dir.Copies(obj2) != 1 {
		t.Fatal("unregister of one object affected another")
	}
	f.dir.DropPeer(a.Info.GUID)
	if f.dir.Copies(obj2) != 0 {
		t.Fatal("DropPeer left registrations behind")
	}
	f.dir.DropPeer(b.Info.GUID)
	if f.dir.Objects() != 0 {
		t.Fatal("directory not empty after dropping all peers")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	f := newFixture(t)
	e := f.addPeer(t, "US", 0, protocol.NATNone)
	// Re-register same peer: refresh, not duplicate.
	f.dir.Register(f.obj, e)
	if f.dir.Copies(f.obj) != 1 {
		t.Fatalf("Copies=%d after re-register, want 1", f.dir.Copies(f.obj))
	}
	got := f.dir.Select(DefaultPolicy(), f.query(f.requesterIn(t, "US", 0), protocol.NATNone, 40))
	if len(got) != 1 {
		t.Fatalf("select returned %d, want 1", len(got))
	}
}

func TestClearSimulatesDNFailure(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 5; i++ {
		f.addPeer(t, "US", 0, protocol.NATNone)
	}
	f.dir.Clear()
	if f.dir.Copies(f.obj) != 0 || f.dir.Objects() != 0 {
		t.Fatal("Clear left state behind")
	}
}

func TestRandomBaselineIgnoresLocality(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 40; i++ {
		f.addPeer(t, "DE", 0, protocol.NATNone)
	}
	for i := 0; i < 2; i++ {
		f.addPeer(t, "US", 0, protocol.NATNone)
	}
	req := f.requesterIn(t, "US", 0)
	pol := DefaultPolicy()
	pol.LocalityAware = false
	foreign := 0
	for trial := 0; trial < 20; trial++ {
		got := f.dir.Select(pol, f.query(req, protocol.NATNone, 10))
		if len(got) != 10 {
			t.Fatalf("got %d peers, want 10", len(got))
		}
		for _, p := range got {
			rec := f.scape.MustLookup(mustAddr(t, p.Addr))
			if rec.Country != "US" {
				foreign++
			}
		}
	}
	if foreign < 150 { // locality-aware would pick the 2 US peers first every time
		t.Errorf("random baseline looks locality-aware: %d foreign picks", foreign)
	}
}

func mustAddr(t testing.TB, hostport string) netip.Addr {
	t.Helper()
	host, _, err := net.SplitHostPort(hostport)
	if err != nil {
		t.Fatalf("bad hostport %q: %v", hostport, err)
	}
	a, err := netip.ParseAddr(host)
	if err != nil {
		t.Fatalf("bad host %q: %v", host, err)
	}
	return a
}
