package controlplane

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/nat"
	"netsession/internal/protocol"
)

// BenchmarkCNQuery times peer queries over a real CN socket against 1,000
// registered holders whose NAT classes follow nat.DefaultDistribution, so
// about two in three selected holders are owed a ConnectTo. One public
// querier sends a query and reads its answer, one at a time; every holder
// reads its frames and counts the ConnectTos. It reports queries/s,
// ConnectTo frames delivered and dropped per query, and, with -benchmem, the
// allocations of the whole process per query: CN and raw clients alike.
func BenchmarkCNQuery(b *testing.B) {
	const holders, objects = 1000, 8
	h := newHarness(b, nil)
	oids := make([]content.ObjectID, objects)
	for i := range oids {
		oids[i] = content.NewObjectID(7, fmt.Sprintf("bench/%d", i), 1)
	}
	dist := nat.DefaultDistribution()
	rng := rand.New(rand.NewSource(1))
	var delivered atomic.Int64
	for i := 0; i < holders; i++ {
		p := h.dialPeerNAT("US", true, dist.Sample(rng))
		expect[*protocol.LoginAck](p)
		p.send(&protocol.Register{Object: oids[i%objects], NumPieces: 1, HaveCount: 1, Complete: true})
		go func() {
			for m := range p.incoming {
				if _, ok := m.(*protocol.ConnectTo); ok {
					delivered.Add(1)
				}
			}
		}()
	}
	dn := h.cp.DN(geo.RegionOf(h.allocRecord("US")))
	waitUntil(b, 10*time.Second, func() bool {
		n := 0
		for _, oid := range oids {
			n += dn.Copies(oid)
		}
		return n == holders
	}, "holders never all registered")

	q := h.dialPeer("US", false)
	expect[*protocol.LoginAck](q)
	tokens := make([][]byte, objects)
	for i, oid := range oids {
		tokens[i] = h.token(q.guid, oid, true)
	}
	droppedTotal := func() int64 {
		return h.cp.Metrics().Snapshot().Counters["cp_connect_to_dropped_total"]
	}
	droppedBefore := droppedTotal()
	var owed int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := i % objects
		q.send(&protocol.Query{Object: oids[obj], Token: tokens[obj], MaxPeers: 40})
		qr := expect[*protocol.QueryResult](q)
		if qr.Err != "" || len(qr.Peers) == 0 {
			b.Fatalf("query answered %+v", qr)
		}
		for _, p := range qr.Peers {
			if nat.HolderMustInitiate(p.NAT) {
				owed++
			}
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	dropped := droppedTotal() - droppedBefore
	// Every ConnectTo owed is either on its way to a holder or counted as
	// dropped.
	if !eventually(5*time.Second, func() bool { return delivered.Load()+dropped == owed }) {
		b.Fatalf("ConnectTo frames: %d delivered + %d dropped, want the %d owed", delivered.Load(), dropped, owed)
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
	b.ReportMetric(float64(delivered.Load())/float64(b.N), "connect_to/query")
	b.ReportMetric(float64(dropped)/float64(b.N), "dropped/query")
}
