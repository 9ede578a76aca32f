package analysis

import (
	"bufio"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func offlineFixture() []OfflineDownload {
	return []OfflineDownload{
		{GUID: "g1", Country: "US", ASN: 1, URLHash: "a", P2PEnabled: true,
			StartMs: 0, EndMs: 1000, BytesInfra: 250_000, BytesPeers: 750_000,
			Outcome: "completed",
			FromPeers: []OfflineContribution{
				{GUID: "g2", Country: "US", ASN: 1, Bytes: 250_000},
				{GUID: "g3", Country: "DE", ASN: 2, Bytes: 500_000},
			}},
		{GUID: "g2", Country: "DE", ASN: 2, URLHash: "a", P2PEnabled: true,
			StartMs: 0, EndMs: 2000, BytesInfra: 1_000_000,
			Outcome: "aborted"},
		{GUID: "g3", Country: "US", ASN: 1, URLHash: "b", P2PEnabled: false,
			StartMs: 0, EndMs: 500, BytesInfra: 500_000,
			Outcome: "completed"},
		{GUID: "g4", Country: "US", ASN: 3, URLHash: "a", P2PEnabled: false,
			StartMs: 0, EndMs: 100, BytesInfra: 1,
			Outcome: "failed-other"},
	}
}

func TestScanDownloadsJSONL(t *testing.T) {
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, d := range offlineFixture() {
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	var got []OfflineDownload
	collect := func(d *OfflineDownload) error {
		got = append(got, *d)
		return nil
	}
	if err := ScanDownloadsJSONL(strings.NewReader(sb.String()), collect); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d records", len(got))
	}
	if got[0].FromPeers[1].Country != "DE" {
		t.Error("nested contribution lost")
	}
	if err := ScanDownloadsJSONL(strings.NewReader("{bad json\n"), collect); err == nil {
		t.Error("malformed line accepted")
	}
}

// TestScanDownloadsJSONLLineLimit: the jsonl reader takes records up to the
// same MaxLineBytes the segment reader does, and an oversized record's error
// names its line.
func TestScanDownloadsJSONLLineLimit(t *testing.T) {
	record := func(guidBytes int) string {
		return `{"guid":"` + strings.Repeat("g", guidBytes) + `","outcome":"completed"}` + "\n"
	}
	small := record(8)
	var got []int
	collect := func(d *OfflineDownload) error {
		got = append(got, len(d.GUID))
		return nil
	}
	if err := ScanDownloadsJSONL(strings.NewReader(small+record(2<<20)+small), collect); err != nil {
		t.Fatalf("2 MiB record refused: %v", err)
	}
	if len(got) != 3 || got[1] != 2<<20 {
		t.Fatalf("read GUID lengths %v, want [8 %d 8]", got, 2<<20)
	}
	err := ScanDownloadsJSONL(strings.NewReader(small+small+record(MaxLineBytes)), collect)
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("oversized record: err %v, want bufio.ErrTooLong naming line 3", err)
	}
}

func TestSummarizeOffline(t *testing.T) {
	s := SummarizeOffline(offlineFixture())
	if s.Downloads != 4 || s.DistinctGUIDs != 4 || s.DistinctURLs != 2 {
		t.Errorf("counts: %+v", s)
	}
	if s.Countries != 2 || s.ASes != 3 {
		t.Errorf("geo counts: %d countries, %d ASes", s.Countries, s.ASes)
	}
	// One of two p2p downloads completed; one of two infra-only did.
	if s.CompletionP2PPct != 50 {
		t.Errorf("p2p completion %.1f", s.CompletionP2PPct)
	}
	if s.CompletionInfraPct != 50 {
		t.Errorf("infra completion %.1f", s.CompletionInfraPct)
	}
	if s.AbortP2PPct != 50 || s.AbortInfraPct != 0 {
		t.Errorf("aborts %.1f/%.1f", s.AbortInfraPct, s.AbortP2PPct)
	}
	// d1: eff 75%; d2: 0% -> mean 37.5, aggregate 750k/2M=37.5.
	if s.MeanPeerEfficiencyPct != 37.5 {
		t.Errorf("mean efficiency %.2f", s.MeanPeerEfficiencyPct)
	}
	if s.AggregatePeerEfficiencyPct != 37.5 {
		t.Errorf("aggregate efficiency %.2f", s.AggregatePeerEfficiencyPct)
	}
	// Intra-AS: 250k of 750k p2p bytes.
	if s.IntraASPct < 33.2 || s.IntraASPct > 33.5 {
		t.Errorf("intra-AS %.2f", s.IntraASPct)
	}
	if s.TopObjectCount != 3 {
		t.Errorf("top object %d", s.TopObjectCount)
	}
	out := s.Render()
	for _, want := range []string{"downloads: 4", "peer efficiency", "intra-AS"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
