package analysis

import (
	"bytes"
	"encoding/json"
	"testing"

	"netsession/internal/golden"
)

// The analytics and offline goldens were generated from the pre-collapse
// engines (OfflineAccumulator, StreamingSummarizer); the simulated-month
// goldens are pinned in month_test.go. Every later shape of the analysis
// must reproduce them byte for byte.

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
