package logpipe

import (
	"testing"

	"netsession/internal/golden"
)

// TestGoldenStoreSummary pins the one-shot analyzer output (summary plus
// figure passes) over the varied store. The golden was generated from the
// pre-collapse OfflineAccumulator/OfflineFigures pair.
func TestGoldenStoreSummary(t *testing.T) {
	dir := t.TempDir()
	writeVariedStore(t, dir, 30, 300)
	for _, workers := range []int{1, 4} {
		got, err := SummarizeStore(dir, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		golden.Check(t, "store_summary.golden", []byte(got.Summary.Render()+got.Tally.RenderFigures()))
	}
}
