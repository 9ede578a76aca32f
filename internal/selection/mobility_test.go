package selection

import (
	"testing"

	"netsession/internal/geo"
	"netsession/internal/protocol"
)

// TestRegisterGeoMove is the regression test for the re-registration bug:
// a known peer re-registering with a changed geo record (a mobile peer that
// moved networks, §6) must have its locality membership moved, not left in
// the sets derived from its old record.
func TestRegisterGeoMove(t *testing.T) {
	f := newFixture(t)
	moved := f.addPeer(t, "US", 0, protocol.NATNone)
	anchor := f.addPeer(t, "US", 0, protocol.NATNone)

	// Re-register the first peer from Germany: same GUID, new record.
	de, _ := f.atlas.Country("DE")
	ip, err := f.scape.AllocateIP(de.ASNs[0], de.Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	rec := f.scape.MustLookup(ip)
	movedEntry := moved
	movedEntry.Rec = rec
	movedEntry.Info.Addr = ip.String() + ":7000"
	movedEntry.Info.ASN = uint32(rec.ASN)
	f.dir.Register(f.obj, movedEntry)

	if got := f.dir.Copies(f.obj); got != 2 {
		t.Fatalf("Copies=%d after geo-move re-register, want 2 (no duplicate)", got)
	}

	// White-box: the GUID must have left every old-set list and joined the
	// new ones.
	g := moved.Info.GUID
	oe := f.dir.objects[f.obj]
	inList := func(key geo.SetKey) bool {
		for _, x := range oe.list(key) {
			if x == g {
				return true
			}
		}
		return false
	}
	oldSets := geo.SetsFor(moved.Rec)
	for _, key := range oldSets[:3] { // AS, country, continent of the old home
		if inList(key) {
			t.Errorf("GUID still listed in old locality set %v after move", key)
		}
	}
	for _, key := range geo.SetsFor(rec) {
		if !inList(key) {
			t.Errorf("GUID missing from new locality set %v after move", key)
		}
	}

	// Behavioral check: a US requester asking for one peer gets the anchor
	// (same AS), never the peer that moved to DE.
	pol := DefaultPolicy()
	pol.DiversityProb = 0
	got := f.dir.Select(pol, f.query(f.requesterIn(t, "US", 0), protocol.NATNone, 1))
	if len(got) != 1 || got[0].GUID != anchor.Info.GUID {
		t.Fatalf("US requester should get the US anchor peer after the other moved abroad")
	}
	// And a German requester finds the moved peer in its own AS set.
	reqIP, err := f.scape.AllocateIP(de.ASNs[0], de.Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	got = f.dir.Select(pol, f.query(f.scape.MustLookup(reqIP), protocol.NATNone, 1))
	if len(got) != 1 || got[0].GUID != g {
		t.Fatalf("DE requester should get the moved peer from its AS set")
	}
}

// TestTombstoneCompaction exercises the lazy-removal lifecycle: unregistered
// peers become tombstones that selection skips and Copies excludes, a
// re-register resurrects a tombstone in place, and once tombstones outnumber
// live entries the object compacts back to live-only state.
func TestTombstoneCompaction(t *testing.T) {
	f := newFixture(t)
	var entries []Entry
	for i := 0; i < 10; i++ {
		entries = append(entries, f.addPeer(t, "US", 0, protocol.NATNone))
	}

	// Tombstone 3 of 10: below the compaction threshold, so the dead GUIDs
	// are still physically present but invisible.
	for _, e := range entries[:3] {
		f.dir.Unregister(f.obj, e.Info.GUID)
	}
	oe := f.dir.objects[f.obj]
	if oe.dead != 3 || len(oe.entries) != 10 {
		t.Fatalf("dead=%d entries=%d, want 3 tombstones among 10 (no compaction yet)", oe.dead, len(oe.entries))
	}
	if got := f.dir.Copies(f.obj); got != 7 {
		t.Fatalf("Copies=%d with 3 tombstones, want 7", got)
	}
	pol := DefaultPolicy()
	pol.DiversityProb = 0
	got := f.dir.Select(pol, f.query(f.requesterIn(t, "US", 0), protocol.NATNone, 40))
	if len(got) != 7 {
		t.Fatalf("Select returned %d peers, want the 7 live ones", len(got))
	}
	for _, p := range got {
		for _, e := range entries[:3] {
			if p.GUID == e.Info.GUID {
				t.Fatalf("tombstoned peer %v returned by Select", p.GUID.Short())
			}
		}
	}

	// Resurrect one tombstone by re-registering it.
	back := entries[0]
	f.dir.Register(f.obj, back)
	if oe.dead != 2 || f.dir.Copies(f.obj) != 8 {
		t.Fatalf("dead=%d Copies=%d after resurrection, want 2 and 8", oe.dead, f.dir.Copies(f.obj))
	}

	// Push past the threshold. The 4th unregister of this batch makes 6
	// dead vs 4 live, triggering a compaction that sweeps all 6; the 5th
	// then leaves exactly one fresh tombstone among the 4 survivors.
	for _, e := range entries[3:8] {
		f.dir.Unregister(f.obj, e.Info.GUID)
	}
	if len(oe.entries) != 4 || oe.dead != 1 {
		t.Fatalf("entries=%d dead=%d after compaction, want 4 entries with 1 fresh tombstone", len(oe.entries), oe.dead)
	}
	if got := f.dir.Copies(f.obj); got != 3 {
		t.Fatalf("Copies=%d after compaction, want 3", got)
	}
	live := 0
	for _, l := range oe.lists {
		for _, g := range l.guids {
			if oe.entries[g] == nil {
				t.Fatalf("set %v lists a GUID with no entry after compaction", l.key)
			}
		}
		if l.key.Level == geo.LevelWorld {
			for _, g := range l.guids {
				if !oe.entries[g].dead {
					live++
				}
			}
		}
	}
	if live != 3 {
		t.Fatalf("world set holds %d live GUIDs after compaction, want 3", live)
	}

	// Unregistering the rest removes the object entirely.
	f.dir.Register(f.obj, back) // idempotent refresh along the way
	for _, e := range entries[8:] {
		f.dir.Unregister(f.obj, e.Info.GUID)
	}
	f.dir.Unregister(f.obj, entries[0].Info.GUID)
	if f.dir.Objects() != 0 {
		t.Fatalf("Objects=%d after unregistering everything, want 0", f.dir.Objects())
	}
}
