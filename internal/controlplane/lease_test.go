package controlplane

import (
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/protocol"
	"netsession/internal/selection"
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

// TestReconnectKeepsNewSessionRegistrations pins the order a reconnect can
// take: the new session logs in and registers before the replaced session's
// teardown runs. That teardown must not drop the registrations the new
// session already made.
func TestReconnectKeepsNewSessionRegistrations(t *testing.T) {
	h := newHarness(t, nil)
	oid := content.NewObjectID(9, "reconnect", 1)
	guid := id.NewGUID()
	rec := h.allocRecord("US")
	pipeSession := func() *session {
		conn, other := net.Pipe()
		t.Cleanup(func() { conn.Close(); other.Close() })
		return &session{
			cn: h.cn, conn: conn, guid: guid, rec: rec, region: geo.RegionOf(rec),
			info:           protocol.PeerInfo{GUID: guid, Addr: "127.0.0.1:9", NAT: protocol.NATNone},
			uploadsEnabled: true,
		}
	}
	s1, s2 := pipeSession(), pipeSession()
	h.cp.register(s1)
	h.cp.register(s2)
	h.cn.handleRegister(s2, &protocol.Register{Object: oid, NumPieces: 1, HaveCount: 1, Complete: true})
	h.cp.unregister(s1)

	peers := h.cp.DN(s2.region).Directory().Select(h.cp.policy, selection.Query{
		Object:    oid,
		Requester: h.allocRecord("US"), RequesterGUID: id.NewGUID(),
		Max:  40,
		Rand: rand.New(rand.NewSource(1)),
	})
	if len(peers) != 1 || peers[0].GUID != guid {
		t.Fatalf("Select after the replaced session's teardown returned %d peers, want the reconnected %v", len(peers), guid)
	}
}
