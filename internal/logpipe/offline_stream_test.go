package logpipe

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"netsession/internal/analysis"
)

// writeVariedStore materializes a sealed store whose records exercise every
// branch of the offline accumulator and figure passes: mixed outcomes,
// p2p-enabled and infra-only downloads, edge-only and peer-heavy byte
// splits, all four Figure 7 size classes, repeated GUIDs, and records with
// and without region annotations.
func writeVariedStore(tb testing.TB, dir string, segments, recsPerSeg int) int {
	tb.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		tb.Fatal(err)
	}
	regions := []string{"NA-East", "EU-West", "AS-NEA", ""}
	outcomes := []string{"completed", "completed", "completed", "aborted", "failed-system"}
	sizes := []int64{5e6, 50e6, 500e6, 2e9}
	n := 0
	lines := make([][]byte, 0, recsPerSeg)
	for s := 0; s < segments; s++ {
		lines = lines[:0]
		for r := 0; r < recsPerSeg; r++ {
			p2p := n%3 != 0
			d := analysis.OfflineDownload{
				GUID:       fmt.Sprintf("guid-%05d", n%4096), // repeats: distinct-count paths
				URLHash:    fmt.Sprintf("url-%04d", n%277),
				Country:    []string{"US", "DE", "JP"}[n%3],
				ASN:        uint32(7000 + n%48),
				Region:     regions[n%len(regions)],
				Size:       sizes[n%len(sizes)],
				P2PEnabled: p2p,
				StartMs:    int64(n) * 997,
				EndMs:      int64(n)*997 + int64(200+n%1700),
				Outcome:    outcomes[n%len(outcomes)],
				Peers:      n % 7,
			}
			switch {
			case !p2p:
				d.BytesInfra = d.Size
			case n%5 == 0: // p2p-enabled but served entirely by the edge
				d.BytesInfra = d.Size
			default: // peer-heavy
				d.BytesInfra = d.Size / 4
				d.BytesPeers = d.Size - d.Size/4
				d.FromPeers = []analysis.OfflineContribution{
					{GUID: "srv-a", ASN: uint32(7000 + n%48), Bytes: d.BytesPeers / 2, Region: regions[(n+1)%len(regions)]},
					{GUID: "srv-b", ASN: uint32(7000 + (n+13)%48), Bytes: d.BytesPeers - d.BytesPeers/2},
				}
			}
			line, err := json.Marshal(&d)
			if err != nil {
				tb.Fatal(err)
			}
			lines = append(lines, line)
			n++
		}
		blob, err := MarshalSegment(lines)
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(s))), blob, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return n
}

// requireFastDecode fails t unless every record line in the segment store
// at dir takes analysis.DecodeDownload's fast path and decodes to what
// encoding/json makes of it. It returns how many lines it checked.
func requireFastDecode(t *testing.T, dir string) int {
	t.Helper()
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, sf := range segs {
		lines, err := ReadSegmentFile(sf.Path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range lines {
			var got, want analysis.OfflineDownload
			if !analysis.DecodesFast(line) {
				t.Fatalf("%s: falls back to encoding/json: %s", sf.Path, line)
			}
			if err := analysis.DecodeDownload(line, &got); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded %+v, encoding/json %+v", line, got, want)
			}
			n++
		}
	}
	return n
}

// TestWrittenRecordsDecodeFast pins the test stores' writers and the
// rotating Store to the decoder's fast path.
func TestWrittenRecordsDecodeFast(t *testing.T) {
	varied, bench, rotated := t.TempDir(), t.TempDir(), t.TempDir()
	if total, n := writeVariedStore(t, varied, 3, 100), requireFastDecode(t, varied); n != total {
		t.Errorf("varied store: checked %d of its %d records", n, total)
	}
	if total, n := writeBenchStore(t, bench, 3, 100), requireFastDecode(t, bench); n != total {
		t.Errorf("bench store: checked %d of its %d records", n, total)
	}
	st := openTestStore(t, rotated, 10, nil)
	for i := 0; i < 25; i++ {
		if err := st.Append(storeRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := requireFastDecode(t, rotated); n != 25 {
		t.Errorf("rotating store: checked %d of its 25 records", n)
	}
}

// TestSummarizeStoreMatchesOffline checks the one-pass parallel analysis of a
// segment store against references computed independently of the tally: the
// sort-based CDFs over the fully materialized value sets (which the bucketed
// Figure 3a must reproduce bit for bit) and plain recounts of the records.
// The rendered summary itself is pinned by TestGoldenStoreSummary.
func TestSummarizeStoreMatchesOffline(t *testing.T) {
	dir := t.TempDir()
	total := writeVariedStore(t, dir, 30, 300)

	dls, err := ReadDownloads(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dls) != total {
		t.Fatalf("batch read %d records, want %d", len(dls), total)
	}

	var infra, all, p2p []float64
	perURL := map[string]int{}
	guids := map[string]bool{}
	for i := range dls {
		gb := float64(dls[i].Size) / 1e9
		all = append(all, gb)
		if dls[i].P2PEnabled {
			p2p = append(p2p, gb)
		} else {
			infra = append(infra, gb)
		}
		perURL[dls[i].URLHash]++
		guids[dls[i].GUID] = true
	}
	topURL := 0
	for _, c := range perURL {
		if c > topURL {
			topURL = c
		}
	}
	xs := analysis.LogSpace(0.01, 10, 25)
	p2pCDF := analysis.NewCDF(p2p)
	wantF3a := analysis.Figure3a{
		InfraOnly:                analysis.NewCDF(infra).Points(xs),
		All:                      analysis.NewCDF(all).Points(xs),
		PeerAssisted:             p2pCDF.Points(xs),
		PctPeerAssistedOver500MB: 100 * (1 - p2pCDF.FractionBelow(0.5)),
	}

	for _, workers := range []int{1, 4} {
		got, err := SummarizeStore(dir, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Records != total || got.Summary.Downloads != total {
			t.Fatalf("workers=%d: %d records, %d summarized, want %d",
				workers, got.Records, got.Summary.Downloads, total)
		}
		if got.Summary.DistinctGUIDs != len(guids) || got.Summary.DistinctURLs != len(perURL) ||
			got.Summary.TopObjectCount != topURL {
			t.Errorf("workers=%d: %d GUIDs, %d URLs, top object %d; want %d, %d, %d", workers,
				got.Summary.DistinctGUIDs, got.Summary.DistinctURLs, got.Summary.TopObjectCount,
				len(guids), len(perURL), topURL)
		}
		if f3a := got.Tally.Figure3a(); !reflect.DeepEqual(f3a, wantF3a) {
			t.Errorf("workers=%d: bucketed Figure3a differs from the sort-based CDF pass:\n%+v\nvs\n%+v",
				workers, f3a, wantF3a)
		}
		if f3b := got.Tally.Figure3b(); f3b.Counts[0] != topURL || len(f3b.Counts) != len(perURL) {
			t.Errorf("workers=%d: Figure3b head %d over %d objects, want %d over %d",
				workers, f3b.Counts[0], len(f3b.Counts), topURL, len(perURL))
		}
		var rowDls int64
		for _, row := range got.Tally.RegionOffload() {
			rowDls += row.Downloads
		}
		if int(rowDls) != total {
			t.Errorf("workers=%d: region table covers %d downloads, want %d", workers, rowDls, total)
		}
	}
}

// TestOfflineFiguresFigure7Tallies pins the Figure 7 tallies against
// hand-computed expectations on a tiny input.
func TestOfflineFiguresFigure7Tallies(t *testing.T) {
	f := analysis.NewTally()
	add := func(size int64, p2p bool, outcome string) {
		f.Add(&analysis.OfflineDownload{Size: size, P2PEnabled: p2p, Outcome: outcome})
	}
	add(5e6, false, "completed")
	add(5e6, false, "aborted")
	add(50e6, true, "aborted")
	add(2e9, true, "completed")
	f7 := f.Figure7()
	if f7.N[0][0] != 2 || f7.PauseRatePct[0][0] != 50 {
		t.Errorf("<10MB infra: n=%d rate=%v, want 2 and 50%%", f7.N[0][0], f7.PauseRatePct[0][0])
	}
	if f7.N[1][1] != 1 || f7.PauseRatePct[1][1] != 100 {
		t.Errorf("10-100MB p2p: n=%d rate=%v, want 1 and 100%%", f7.N[1][1], f7.PauseRatePct[1][1])
	}
	if f7.N[3][2] != 1 || f7.PauseRatePct[3][2] != 0 {
		t.Errorf(">1GB all: n=%d rate=%v, want 1 and 0%%", f7.N[3][2], f7.PauseRatePct[3][2])
	}
}

// TestBulkWriterRoundtrip: the bulk exporter's output must be
// layout-compatible with the rotating Store — same readers, same records,
// correct segment sizing.
func TestBulkWriterRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewBulkWriter(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	const total = 23
	for i := 0; i < total; i++ {
		if err := w.Append(storeRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := w.Append(storeRec(0)); err == nil {
		t.Fatal("append after close succeeded")
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 { // ceil(23/7)
		t.Fatalf("%d segments, want 4", len(segs))
	}
	for _, sf := range segs {
		if sf.Open {
			t.Fatalf("segment %s left open", sf.Path)
		}
	}
	got, err := ReadDownloads(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("read %d records, want %d", len(got), total)
	}
	for i := range got {
		if want := storeRec(i); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("record %d differs after bulk roundtrip", i)
		}
	}
}

// TestBulkWriterRefusesExistingStore: a second, smaller export into the
// same directory must not overwrite the first one's leading segments and
// leave its tail behind; the writer refuses, and the first store still
// reads back whole.
func TestBulkWriterRefusesExistingStore(t *testing.T) {
	dir := t.TempDir()
	export := func(n int) error {
		w, err := NewBulkWriter(dir, 7)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := w.Append(storeRec(i)); err != nil {
				return err
			}
		}
		return w.Close()
	}
	if err := export(23); err != nil {
		t.Fatal(err)
	}
	if err := export(5); err == nil {
		t.Fatal("second export into a store directory succeeded")
	}
	got, err := ReadDownloads(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 23 {
		t.Fatalf("store reads %d records after the refused export, want 23", len(got))
	}
}

// TestForEachDownloadParallelMatches: the concurrent-callback variant must
// deliver exactly the store's record multiset (per-segment order preserved,
// global interleaving free) and propagate callback errors.
func TestForEachDownloadParallelMatches(t *testing.T) {
	dir := t.TempDir()
	total := writeBenchStore(t, dir, 20, 50) // distinct GUIDs

	recs, err := ReadDownloads(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, total)
	for _, d := range recs {
		want = append(want, d.GUID)
	}
	for _, workers := range []int{1, 4, 8} {
		var mu sync.Mutex
		var got []string
		n, err := ForEachDownloadParallel(dir, workers, func(d *analysis.OfflineDownload) error {
			mu.Lock()
			got = append(got, d.GUID)
			mu.Unlock()
			return nil
		})
		if err != nil || n != total {
			t.Fatalf("workers=%d: n=%d err=%v, want %d records", workers, n, err, total)
		}
		sort.Strings(got)
		wantSorted := append([]string(nil), want...)
		sort.Strings(wantSorted)
		if !reflect.DeepEqual(got, wantSorted) {
			t.Fatalf("workers=%d: record multiset differs from the sequential pass", workers)
		}
	}

	sentinel := fmt.Errorf("parallel consumer failure")
	_, err = ForEachDownloadParallel(dir, 4, func(d *analysis.OfflineDownload) error {
		if d.GUID == want[500] {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err=%v, want the callback's sentinel", err)
	}
}

// TestOfflineStreamingBoundedMemory extends the TestStreamingBoundedMemory
// contract to the full offline analysis: a parallel SummarizeStore-style
// pass must hold live heap far below the decoded store size — its state
// scales with distinct GUIDs/URLs/ASes plus one float per completed
// download, never with raw record bytes.
//
// Each sample is taken with every worker stopped (see parkedHeapPeak), so
// the sampled heap is the tally after a fixed number of records plus one
// reader and one record per worker, whatever the scheduling.
func TestOfflineStreamingBoundedMemory(t *testing.T) {
	const (
		workers     = 4
		perSegment  = 1500
		sampleEvery = 20_000
	)
	dir := t.TempDir()
	total := writeBenchStore(t, dir, 100, perSegment) // 150k records, ~45 MB decoded

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	acc := analysis.NewShardedTally(8)
	got, peak := parkedHeapPeak(t, dir, workers, perSegment, total, sampleEvery, acc.Observe)
	if got != total {
		t.Fatalf("streamed %d records, want %d", got, total)
	}
	sum := acc.Merged().Summary()
	if sum.Downloads != total || sum.DistinctGUIDs != total {
		t.Fatalf("summary covers %d downloads / %d GUIDs, want %d of each", sum.Downloads, sum.DistinctGUIDs, total)
	}

	growth := int64(peak) - int64(base)
	t.Logf("live heap: base %.1f MB, peak %.1f MB, growth %.1f MB over %d records",
		float64(base)/1e6, float64(peak)/1e6, float64(growth)/1e6, total)
	const boundMB = 32
	if growth > boundMB<<20 {
		t.Errorf("offline streaming pass grew live heap by %.1f MB (> %d MB bound): records are being retained",
			float64(growth)/1e6, boundMB)
	}
}

// TestStreamingMemoryIndependentOfSegmentSize: a worker holds one line and
// one record, not a segment, so the same records read with the same live
// heap whether the store cuts them into 500-record or 20,000-record
// segments. A reader that buffers each segment's lines or records holds
// ≈10 MB more per worker for the large segments.
func TestStreamingMemoryIndependentOfSegmentSize(t *testing.T) {
	const (
		workers     = 2
		total       = 60_000
		sampleEvery = 5_000
	)
	growth := map[int]int64{}
	for _, perSegment := range []int{500, 20_000} {
		dir := t.TempDir()
		writeBenchStore(t, dir, total/perSegment, perSegment)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		got, peak := parkedHeapPeak(t, dir, workers, perSegment, total, sampleEvery, func(*analysis.OfflineDownload) {})
		if got != total {
			t.Fatalf("%d-record segments: streamed %d records, want %d", perSegment, got, total)
		}
		growth[perSegment] = int64(peak) - int64(base)
		t.Logf("%d-record segments: live heap grew %.2f MB", perSegment, float64(growth[perSegment])/1e6)
	}
	const boundMB = 2
	if d := growth[20_000] - growth[500]; d > boundMB<<20 {
		t.Errorf("20,000-record segments grew live heap by %.1f MB more than 500-record ones (> %d MB): the reader holds whole segments",
			float64(d)/1e6, boundMB)
	}
}

// parkedHeapPeak streams dir through observe on workers goroutines and
// returns the records streamed and the peak live heap, sampled every
// sampleEvery records with every worker stopped: the sampling worker waits
// until the others are parked in the callback before it collects, so none
// of them allocates during the collection. perSegment and total bound when a
// sample is safe to take.
func parkedHeapPeak(t *testing.T, dir string, workers, perSegment, total, sampleEvery int, observe func(*analysis.OfflineDownload)) (int, uint64) {
	t.Helper()
	var (
		mu       sync.Mutex
		stopped  = sync.NewCond(&mu)
		sampling bool
		parked   int
		seen     int
		peak     uint64
		ms       runtime.MemStats
	)
	got, err := ForEachDownloadParallel(dir, workers, func(d *analysis.OfflineDownload) error {
		mu.Lock()
		defer mu.Unlock()
		if sampling {
			parked++
			stopped.Broadcast()
			for sampling {
				stopped.Wait()
			}
			parked--
		}
		observe(d)
		seen++
		// Every other worker still reaches the callback while the records
		// left outnumber what the workers can hold in partly delivered
		// segments; until then the wait below cannot hang.
		if seen%sampleEvery == 0 && total-seen >= workers*perSegment {
			sampling = true
			for parked < workers-1 {
				stopped.Wait()
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
			sampling = false
			stopped.Broadcast()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, peak
}
