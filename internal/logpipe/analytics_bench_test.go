package logpipe

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"testing"

	"netsession/internal/analysis"
)

// writeBenchStore writes a sealed store of segments*recsPerSeg synthetic
// download records through the bulk exporter, shaped like the benchmark's
// analyze_offline records so per-record decode cost carries over: 32-hex
// GUIDs (every downloader distinct), a dotted IP, a 64-hex object and two
// contributing peers.
func writeBenchStore(tb testing.TB, dir string, segments, recsPerSeg int) int {
	tb.Helper()
	w, err := NewBulkWriter(dir, recsPerSeg)
	if err != nil {
		tb.Fatal(err)
	}
	regions := []string{"NA-East", "EU-West", "AS-NEA", "AS-China", "SA", "OC"}
	guid := func(i int) string { return fmt.Sprintf("%016x%016x", uint64(i)*0x9e3779b97f4a7c15, i) }
	total := segments * recsPerSeg
	for n := 0; n < total; n++ {
		d := analysis.OfflineDownload{
			GUID:       guid(n),
			IP:         fmt.Sprintf("10.%d.%d.%d", n>>16&255, n>>8&255, n&255),
			Country:    "US",
			ASN:        uint32(7000 + n%48),
			Region:     regions[n%len(regions)],
			Object:     fmt.Sprintf("%064x", n%512),
			URLHash:    fmt.Sprintf("url-%d", n%512),
			CP:         7004,
			Size:       4 << 16,
			P2PEnabled: true,
			StartMs:    int64(n) * 1000,
			EndMs:      int64(n)*1000 + 800,
			BytesInfra: 1 << 16,
			BytesPeers: 3 << 16,
			Outcome:    "completed",
			Peers:      2,
			FromPeers: []analysis.OfflineContribution{
				{GUID: guid(total + n%997), Country: "US", ASN: uint32(7000 + n%48), Region: regions[(n+1)%len(regions)], Bytes: 2 << 16},
				{GUID: guid(total + n%991), Country: "US", ASN: uint32(7000 + (n+1)%48), Region: regions[(n+2)%len(regions)], Bytes: 1 << 16},
			},
		}
		if err := w.Append(&d); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return total
}

// BenchmarkStreamingSummarize is the throughput canary for the live-analytics
// path: one full streaming pass (parallel segment decode → streaming
// summarizer) over a pre-built sealed store. Reports records/sec and the
// process's peak RSS so BENCH_analytics.json can record both.
func BenchmarkStreamingSummarize(b *testing.B) {
	dir := b.TempDir()
	total := writeBenchStore(b, dir, 64, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := analysis.NewStreamingSummarizer(8)
		got, err := ForEachDownloadParallel(dir, runtime.NumCPU(), func(d *analysis.OfflineDownload) error {
			sum.Observe(d)
			return nil
		})
		if err != nil || got != total {
			b.Fatalf("streamed %d records, err=%v (want %d)", got, err, total)
		}
		if snap := sum.Snapshot(); snap.Downloads != int64(total) {
			b.Fatalf("summary downloads %d, want %d", snap.Downloads, total)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(total)*float64(b.N)/elapsed, "records/sec")
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		// Linux reports Maxrss in KiB.
		b.ReportMetric(float64(ru.Maxrss)/1024, "peak-RSS-MB")
	}
}

// BenchmarkSummarizeStore is the throughput canary for the offline analyzer's
// parallel streaming pass: concurrent segment decode into the GUID-sharded
// accumulator with the figure passes enabled — the path netsession-analyze
// takes over a segment store.
func BenchmarkSummarizeStore(b *testing.B) {
	dir := b.TempDir()
	total := writeBenchStore(b, dir, 64, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := SummarizeStore(dir, runtime.NumCPU())
		if err != nil || sum.Records != total {
			b.Fatalf("streamed %d records, err=%v (want %d)", sum.Records, err, total)
		}
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(total)*float64(b.N)/elapsed, "records/sec")
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		b.ReportMetric(float64(ru.Maxrss)/1024, "peak-RSS-MB")
	}
}

// TestStreamingBoundedMemory proves the streaming pass holds bounded memory
// no matter how large the store is: live heap (sampled with a forced GC every
// few segments) must stay far below the decoded size of the store. Retaining
// the records — what ReadDownloads does by design — would hold the full
// ~45 MB decoded set live and blow the bound.
func TestStreamingBoundedMemory(t *testing.T) {
	dir := t.TempDir()
	total := writeBenchStore(t, dir, 100, 1500) // 150k records

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	const sampleEvery = 20_000
	var peak uint64
	sum := analysis.NewStreamingSummarizer(4)
	var mu sync.Mutex // the callback runs on every worker
	seen := 0
	got, err := ForEachDownloadParallel(dir, 4, func(d *analysis.OfflineDownload) error {
		sum.Observe(d)
		mu.Lock()
		defer mu.Unlock()
		if seen++; seen%sampleEvery == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != total {
		t.Fatalf("streamed %d records, want %d", got, total)
	}
	snap := sum.Snapshot()
	if snap.Downloads != int64(total) {
		t.Fatalf("summary downloads %d, want %d", snap.Downloads, total)
	}
	if est := snap.ActiveGUIDs; est < 0.9*float64(total) || est > 1.1*float64(total) {
		t.Errorf("ActiveGUIDs %.0f for %d distinct GUIDs (outside 10%%)", est, total)
	}

	growth := int64(peak) - int64(base)
	t.Logf("live heap: base %.1f MB, peak %.1f MB, growth %.1f MB over %d records",
		float64(base)/1e6, float64(peak)/1e6, float64(growth)/1e6, total)
	const boundMB = 32
	if growth > boundMB<<20 {
		t.Errorf("streaming pass grew live heap by %.1f MB (> %d MB bound): records are being retained",
			float64(growth)/1e6, boundMB)
	}
}
