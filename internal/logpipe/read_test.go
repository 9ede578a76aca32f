package logpipe

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"netsession/internal/analysis"
)

// TestReadersShareDamagePolicy: the parallel streaming reader and the batch
// loader must deliver the same records at any worker count over a store with
// a torn final segment, and both must refuse a torn middle segment.
func TestReadersShareDamagePolicy(t *testing.T) {
	dir := t.TempDir()
	segs := sealedTestStore(t, dir, 200, 16)
	// Tear the final segment; both readers tolerate that.
	lastPath := segs[len(segs)-1].Path
	raw, err := os.ReadFile(lastPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lastPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := ReadDownloads(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 192 || !reflect.DeepEqual(want[0], storeRec(0)) || !reflect.DeepEqual(want[191], storeRec(191)) {
		t.Fatalf("batch reader returned %d records, want the 192 sealed ones in order", len(want))
	}
	byGUID := func(recs []analysis.OfflineDownload) {
		sort.Slice(recs, func(i, j int) bool { return recs[i].GUID < recs[j].GUID })
	}
	byGUID(want)
	for _, workers := range []int{1, 4, 32} {
		var mu sync.Mutex
		var got []analysis.OfflineDownload
		n, err := ForEachDownloadParallel(dir, workers, func(d *analysis.OfflineDownload) error {
			mu.Lock()
			got = append(got, *d)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		byGUID(got)
		if n != len(want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: streamed %d records != batch %d", workers, n, len(want))
		}
	}
	// A mid-store tear must surface as an error from both.
	raw0, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0].Path, raw0[:len(raw0)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDownloads(dir); err == nil {
		t.Fatal("ReadDownloads accepted a torn middle segment")
	}
	if _, err := ForEachDownloadParallel(dir, 4, func(*analysis.OfflineDownload) error { return nil }); err == nil {
		t.Fatal("ForEachDownloadParallel accepted a torn middle segment")
	}
}

// sealedTestStore writes total records into a sealed store with small
// segments and returns the segment listing.
func sealedTestStore(t *testing.T, dir string, total, perSeg int) []SegmentFile {
	t.Helper()
	st := openTestStore(t, dir, perSeg, nil)
	for i := 0; i < total; i++ {
		if err := st.Append(storeRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestFirstErrorDeterministic: with damage in several non-final segments,
// the error surfaced must always be the lowest-indexed one, independent of
// worker count and decode timing.
func TestFirstErrorDeterministic(t *testing.T) {
	dir := t.TempDir()
	segs := sealedTestStore(t, dir, 200, 5)
	tear := func(i int) {
		raw, err := os.ReadFile(segs[i].Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segs[i].Path, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tear(23)
	tear(7)
	if _, err := ReadDownloads(dir); err == nil || !strings.Contains(err.Error(), segs[7].Path) {
		t.Fatalf("ReadDownloads: err=%v, want the segment-7 tear (first in order)", err)
	}
	for _, workers := range []int{1, 4, 32} {
		for run := 0; run < 3; run++ {
			_, err := ForEachDownloadParallel(dir, workers, func(*analysis.OfflineDownload) error { return nil })
			if err == nil || !strings.Contains(err.Error(), segs[7].Path) {
				t.Fatalf("workers=%d run=%d: err=%v, want the segment-7 tear (first in order)", workers, run, err)
			}
		}
	}
}
