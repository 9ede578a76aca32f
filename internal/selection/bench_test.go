package selection

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/protocol"
)

// select40Fixture is a directory holding 10,000 registrations of one hot
// object and a query against it — the DN's hot path for popular content.
func select40Fixture(tb testing.TB) (*Directory, Policy, Query) {
	acfg := geo.DefaultAtlasConfig()
	acfg.TailCountries = 2
	atlas := geo.GenerateAtlas(acfg)
	scape := geo.NewEdgeScape(atlas)
	dir := NewDirectory(0)
	r := rand.New(rand.NewSource(1))
	oid := content.NewObjectID(1, "hot", 1)

	for i := 0; i < 10_000; i++ {
		rec, err := scape.AllocateRandom(r)
		if err != nil {
			tb.Fatal(err)
		}
		dir.Register(oid, Entry{
			Info: protocol.PeerInfo{
				GUID: id.RandGUID(r), Addr: "a:1",
				NAT: protocol.NATClass(r.Intn(5)), ASN: uint32(rec.ASN),
			},
			Rec: rec, Complete: true,
		})
	}
	req, err := scape.AllocateRandom(r)
	if err != nil {
		tb.Fatal(err)
	}
	pol := DefaultPolicy()
	q := Query{
		Object: oid, Requester: req, RequesterGUID: id.RandGUID(r),
		RequesterNAT: protocol.NATNone, Rand: r,
	}
	return dir, pol, q
}

// BenchmarkSelect40 measures one full locality-aware selection.
func BenchmarkSelect40(b *testing.B) {
	dir, pol, q := select40Fixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := dir.Select(pol, q); len(got) == 0 {
			b.Fatal("empty selection")
		}
	}
}

// TestSelect40Allocs: a selection allocates only the result slice it
// returns, however many registrations it scans.
func TestSelect40Allocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector makes sync.Pool drop scratch buffers at random")
	}
	dir, pol, q := select40Fixture(t)
	if allocs := testing.AllocsPerRun(100, func() { dir.Select(pol, q) }); allocs > 1 {
		t.Fatalf("Select allocates %v times per call, want at most 1", allocs)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
