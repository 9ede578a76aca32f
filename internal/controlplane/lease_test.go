package controlplane

import (
	"sync/atomic"
	"testing"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/protocol"
)

// TestSessionIsTheLease pins the directory's soft-state rule: a
// registration lives exactly as long as the session that made it. A seeder
// that registers at t=0 and stays connected is still returned to a query
// seven virtual hours later, with no re-announcement in between.
func TestSessionIsTheLease(t *testing.T) {
	var nowMs atomic.Int64
	h := newHarness(t, func(c *Config) {
		c.nowMs = func() int64 { return nowMs.Load() }
	})
	oid := content.NewObjectID(9, "long-lived", 1)
	seeder := h.dialPeer("US", true)
	expect[*protocol.LoginAck](seeder)
	seeder.send(&protocol.Register{Object: oid, NumPieces: 1, HaveCount: 1, Complete: true})
	region := geo.RegionOf(seeder.rec)
	waitFor(t, "registration", func() bool { return h.cp.DN(region).Copies(oid) == 1 })

	nowMs.Store(7 * 3_600_000)
	leech := h.dialPeer("US", false)
	expect[*protocol.LoginAck](leech)
	leech.send(&protocol.Query{Object: oid, Token: h.token(leech.guid, oid, true), MaxPeers: 40})
	qr := expect[*protocol.QueryResult](leech)
	if qr.Err != "" {
		t.Fatalf("query error: %s", qr.Err)
	}
	if len(qr.Peers) != 1 || qr.Peers[0].GUID != seeder.guid {
		t.Fatalf("query at t=7h returned %d peers, want the still-connected seeder", len(qr.Peers))
	}
}
