package controlplane

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"netsession/internal/accounting"
	"netsession/internal/analysis"
	"netsession/internal/content"
	"netsession/internal/edge"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/logpipe"
)

// TestSpilledRecordsDecodeFast books a bulk and a streamed usage entry
// through ingestEntry into the segment store and requires every spilled line
// to take analysis.DecodeDownload's fast path and decode to what
// encoding/json makes of it.
func TestSpilledRecordsDecodeFast(t *testing.T) {
	acfg := geo.DefaultAtlasConfig()
	acfg.TailCountries = 2
	scape := geo.NewEdgeScape(geo.GenerateAtlas(acfg))
	home, err := scape.AllocateRandom(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := logpipe.OpenStore(logpipe.StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	minter := edge.NewTokenMinter([]byte("cp-test-key"))
	ledger := edge.NewLedger()
	cp := newControlPlane(Config{
		Scape: scape, Minter: minter,
		Collector: accounting.NewCollector(&accounting.LedgerVerifier{Edge: ledger}),
	}, store, nil)
	reporter, other := id.GUID{1}, id.GUID{2}
	oid := content.NewObjectID(7, "file", 1)
	ledger.RecordAuthorization(reporter, oid)
	ledger.RecordServed(reporter, oid, 2<<20)

	bulk := &logpipe.Entry{
		Kind: logpipe.EntryKindDownload, GUID: reporter.String(), IP: home.IP.String(),
		Object: oid.Hex(), URLHash: "u", CP: 7, Size: 1 << 20,
		StartMs: 1, EndMs: 2, BytesInfra: 1 << 19, BytesPeers: 1 << 19, PeersReturned: 3,
		Token:     minter.Mint(edge.Claims{GUID: reporter, Object: oid, ExpiresMs: 1 << 62, P2P: true}),
		FromPeers: []logpipe.EntryContribution{{GUID: other.String(), Bytes: 1 << 19}},
	}
	streamed := *bulk
	streamed.Stream = &accounting.StreamStats{BitrateBps: 3_000_000, StartupDelayMs: 420,
		RebufferCount: 2, RebufferMs: 900, DeadlineMisses: 3, PiecesPlayed: 40, PiecesTotal: 48,
		EdgeRescueBytes: 1 << 16}
	for _, e := range []*logpipe.Entry{bulk, &streamed} {
		if err := cp.ingestEntry(reporter, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := logpipe.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []analysis.OfflineDownload
	for _, sf := range segs {
		lines, err := logpipe.ReadSegmentFile(sf.Path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range lines {
			if !analysis.DecodesFast(line) {
				t.Fatalf("spilled line falls back to encoding/json: %s", line)
			}
			var d, want analysis.OfflineDownload
			if err := analysis.DecodeDownload(line, &d); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d, want) {
				t.Fatalf("decoded %+v, encoding/json %+v", d, want)
			}
			got = append(got, d)
		}
	}
	if len(got) != 2 || got[0].Region == "" || len(got[0].FromPeers) != 1 || got[1].Stream == nil {
		t.Fatalf("spilled records %+v: want a geotagged bulk record with a contributor, then a streamed one", got)
	}
}
