package selection

import (
	"math/rand"
	"runtime/debug"
	"slices"
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

// churnFixture is a region directory under the simulated month's peer
// churn: each holder caches a few objects of a skewed catalog, and every
// step takes one online holder offline (DropPeer) and brings one offline
// holder back, which re-registers its cache. Entries of a returning holder
// are fresh where its objects were deleted or its tombstones compacted
// meanwhile, and revived otherwise; the sizes below give about the default
// month's mix (three fresh registrations to one revived).
type churnFixture struct {
	dir     *Directory
	holders []churnHolder
	online  []int
	offline []int
	r       *rand.Rand
}

type churnHolder struct {
	e    Entry
	objs []content.ObjectID
}

func newChurnFixture(tb testing.TB) *churnFixture {
	acfg := geo.DefaultAtlasConfig()
	acfg.TailCountries = 2
	scape := geo.NewEdgeScape(geo.GenerateAtlas(acfg))
	r := rand.New(rand.NewSource(1))
	const holders, objects, perHolder = 4000, 16000, 3
	catalog := make([]content.ObjectID, objects)
	for i := range catalog {
		catalog[i] = content.NewObjectID(1, "churn", uint32(i))
	}
	zipf := rand.NewZipf(r, 1.05, 32, objects-1)
	f := &churnFixture{dir: NewDirectory(0), r: r}
	for i := 0; i < holders; i++ {
		rec, err := scape.AllocateRandom(r)
		if err != nil {
			tb.Fatal(err)
		}
		h := churnHolder{e: Entry{
			Info: protocol.PeerInfo{
				GUID: id.RandGUID(r), Addr: "a:1",
				NAT: protocol.NATClass(r.Intn(5)), ASN: uint32(rec.ASN),
			},
			Rec: rec, Complete: true,
		}}
		for len(h.objs) < perHolder {
			if obj := catalog[zipf.Uint64()]; !slices.Contains(h.objs, obj) {
				h.objs = append(h.objs, obj)
			}
		}
		f.holders = append(f.holders, h)
		if i%2 == 0 {
			f.online = append(f.online, i)
			f.register(i)
		} else {
			f.offline = append(f.offline, i)
		}
	}
	// Reach the steady state of tombstones and spares.
	for i := 0; i < 2*holders; i++ {
		f.step(nil)
	}
	return f
}

func (f *churnFixture) register(h int) {
	for _, obj := range f.holders[h].objs {
		f.dir.Register(obj, f.holders[h].e)
	}
}

// step swaps a random online holder for a random offline one. A non-nil
// fresh counts the returning holder's registrations that create an entry
// rather than revive a tombstone, and all of them.
func (f *churnFixture) step(fresh *[2]int) {
	i, j := f.r.Intn(len(f.online)), f.r.Intn(len(f.offline))
	leave, back := f.online[i], f.offline[j]
	f.online[i], f.offline[j] = back, leave
	f.dir.DropPeer(f.holders[leave].e.Info.GUID)
	if fresh != nil {
		for _, obj := range f.holders[back].objs {
			if oe := f.dir.objects[obj]; oe == nil || oe.entries[f.holders[back].e.Info.GUID] == nil {
				fresh[0]++
			}
			fresh[1]++
		}
	}
	f.register(back)
}

// BenchmarkDirectoryChurn measures one churn step: a holder's DropPeer plus
// another holder's re-registration of its three cached objects.
func BenchmarkDirectoryChurn(b *testing.B) {
	f := newChurnFixture(b)
	var fresh [2]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.step(&fresh)
	}
	b.ReportMetric(float64(fresh[0])/float64(fresh[1]), "fresh/reg")
}

// TestDirectoryChurnAllocs: in steady churn, emptied objects, registrations
// and per-peer lists are reused, so a step allocates almost nothing.
func TestDirectoryChurnAllocs(t *testing.T) {
	f := newChurnFixture(t)
	if allocs := testing.AllocsPerRun(2000, func() { f.step(nil) }); allocs > 1 {
		t.Fatalf("a churn step allocates %v times, want at most 1", allocs)
	}
}
