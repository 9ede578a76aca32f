package analysis

import (
	"bytes"
	"encoding/json"
	"testing"

	"netsession/internal/golden"
)

// The goldens below were generated from the three pre-collapse engines
// (batch Compute*, OfflineAccumulator, StreamingSummarizer); every later
// shape of the analysis must reproduce them byte for byte.

func TestGoldenReport(t *testing.T) {
	in := simInput(t)
	golden.Check(t, "report_small.golden", []byte(Report(in, simDays)))
}

func TestGoldenAnalyticsDocument(t *testing.T) {
	dls := synthDownloads(20_000, 7)
	s := NewStreamingSummarizer(1)
	for i := range dls {
		s.Observe(&dls[i])
	}
	sum := s.Snapshot()
	// Encoder output is exactly what GET /v1/analytics writes.
	var doc bytes.Buffer
	if err := json.NewEncoder(&doc).Encode(sum); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "analytics_20k.golden.json", doc.Bytes())
	golden.Check(t, "analytics_20k.golden.txt", []byte(sum.Render()))
}

func TestGoldenOfflineSummary(t *testing.T) {
	golden.Check(t, "offline_20k.golden.txt",
		[]byte(SummarizeOffline(synthDownloads(20_000, 7)).Render()))
}
