package controlplane

import (
	"testing"

	"netsession/internal/accounting"
	"netsession/internal/content"
	"netsession/internal/edge"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/logpipe"
)

// FuzzUsageEntry feeds arbitrary bytes through the decoder every usage
// record passes on the control plane, from a batch line or an in-band
// UsageLog, and on into ingestEntry and an edge-verified collector. No
// sockets: the converter is driven directly. It must never panic; every
// accepted record belongs to the reporting GUID, whatever the entry claims,
// and carries no negative size or byte count.
func FuzzUsageEntry(f *testing.F) {
	acfg := geo.DefaultAtlasConfig()
	acfg.TailCountries = 2
	minter := edge.NewTokenMinter([]byte("cp-fuzz-key"))
	ledger := edge.NewLedger()
	collector := accounting.NewCollector(&accounting.LedgerVerifier{Edge: ledger})
	cp := newControlPlane(Config{
		Scape:     geo.NewEdgeScape(geo.GenerateAtlas(acfg)),
		Minter:    minter,
		Collector: collector,
		// The newest accepted record is the only one each iteration reads.
		MaxLogRecords: 1,
	}, nil, nil, nil)
	reporter, other := id.GUID{1}, id.GUID{2}
	oid := content.NewObjectID(7, "file", 1)
	ledger.RecordAuthorization(reporter, oid)
	ledger.RecordServed(reporter, oid, 1<<20)

	valid := &logpipe.Entry{
		Kind: logpipe.EntryKindDownload, GUID: other.String(), IP: "10.0.0.1",
		Object: oid.Hex(), URLHash: "u", CP: 7, Size: 1 << 20,
		StartMs: 1, EndMs: 2, BytesInfra: 1 << 19, BytesPeers: 1 << 19, PeersReturned: 3,
		Token:     minter.Mint(edge.Claims{GUID: reporter, Object: oid, ExpiresMs: 1 << 62, P2P: true}),
		FromPeers: []logpipe.EntryContribution{{GUID: other.String(), Bytes: 1 << 19}},
	}
	streamed := *valid
	streamed.Stream = &accounting.StreamStats{BitrateBps: 3_000_000, StartupDelayMs: 420,
		RebufferCount: 2, RebufferMs: 900, DeadlineMisses: 3, PiecesPlayed: 40, PiecesTotal: 48}
	negative := *valid
	negative.BytesInfra = -1 << 40
	for _, e := range []*logpipe.Entry{valid, &streamed, &negative} {
		line, err := logpipe.EncodeEntry(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := logpipe.DecodeEntry(raw)
		if err != nil {
			return
		}
		if cp.ingestEntry(reporter, e) != nil {
			return
		}
		log := collector.Snapshot().Downloads
		rec := log[len(log)-1]
		if rec.GUID != reporter {
			t.Fatalf("accepted record booked to %s, want the reporter %s", rec.GUID, reporter)
		}
		if rec.Size < 0 || rec.BytesInfra < 0 || rec.BytesPeers < 0 || rec.PeersReturned < 0 {
			t.Fatalf("accepted record with negative counts: %+v", rec)
		}
		for _, pc := range rec.FromPeers {
			if pc.Bytes < 0 {
				t.Fatalf("accepted contributor with negative bytes: %+v", pc)
			}
		}
	})
}
