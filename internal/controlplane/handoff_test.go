package controlplane

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
)

// handoffBody encodes a region's snapshot with one complete entry per
// (GUID, IP) holder of oid.
func handoffBody(t testing.TB, region geo.NetworkRegion, oid content.ObjectID, holders map[id.GUID]geo.Record) []byte {
	t.Helper()
	req := handoffRequest{From: "drained", Region: region.String()}
	for g, rec := range holders {
		req.Entries = append(req.Entries, handoffEntry{
			Object: oid.Hex(), GUID: g.String(), Addr: rec.IP.String() + ":7000",
			ASN: uint32(rec.ASN), Location: uint32(rec.Location),
			IP: rec.IP.String(), Complete: true,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestHandoffSweepDropsAbsentPeers: a drain handoff's imported entries last
// only until the handoff window has passed. A peer logged in to this node
// in the region by then keeps its entries; a peer with no session, or with
// a session homed in another region, loses them.
func TestHandoffSweepDropsAbsentPeers(t *testing.T) {
	h := newHarness(t, nil)
	h.cp.handoffSweep = 50 * time.Millisecond
	oid := content.NewObjectID(9, "handed-off", 1)

	kept := h.dialPeer("US", true)
	elsewhere := h.dialPeer("DE", true)
	region := geo.RegionOf(kept.rec)
	if geo.RegionOf(elsewhere.rec) == region {
		t.Fatalf("DE and US share region %v", region)
	}
	for _, p := range []*rawPeer{kept, elsewhere} {
		waitFor(t, "login", func() bool { return h.cp.Connected(p.guid) })
	}
	gone := id.NewGUID()
	body := handoffBody(t, region, oid, map[id.GUID]geo.Record{
		kept.guid: kept.rec, elsewhere.guid: elsewhere.rec, gone: h.allocRecord("US"),
	})

	w := httptest.NewRecorder()
	h.cp.serveHandoff(w, httptest.NewRequest(http.MethodPost, HandoffPath, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("handoff answered %d: %s", w.Code, w.Body)
	}
	dir := h.cp.DN(region).Directory()
	if got := dir.Copies(oid); got != 3 {
		t.Fatalf("Copies=%d right after the handoff, want all 3 imported", got)
	}
	waitFor(t, "sweep", func() bool { return dir.Copies(oid) == 1 })
	left := dir.Export()
	if len(left) != 1 || left[0].Entry.Info.GUID != kept.guid {
		t.Fatalf("sweep left %+v, want only the logged-in peer's entry", left)
	}
}
