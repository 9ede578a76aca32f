package logpipe

import (
	"bytes"
	"encoding/json"
	"errors"
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

// TestRecordLineLimit: every record reader takes records up to
// analysis.MaxLineBytes. A 2 MiB record round-trips through ReadSegment and
// ForEachDownloadParallel, and a record past the limit reads as ErrTorn —
// in a middle segment, an error of the whole walk.
func TestRecordLineLimit(t *testing.T) {
	rec := func(guidBytes int) analysis.OfflineDownload {
		return analysis.OfflineDownload{GUID: strings.Repeat("g", guidBytes), Outcome: "completed"}
	}
	line := func(guidBytes int) []byte {
		b, err := json.Marshal(rec(guidBytes))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	big := 2 << 20
	data, err := MarshalSegment([][]byte{line(8), line(big), line(8)})
	if err != nil {
		t.Fatal(err)
	}
	lines, err := ReadSegment(bytes.NewReader(data))
	if err != nil || len(lines) != 3 || !bytes.Equal(lines[1], line(big)) {
		t.Fatalf("2 MiB record: %d lines, err %v; want 3 with the record intact", len(lines), err)
	}
	data, err = MarshalSegment([][]byte{line(8), line(8), line(analysis.MaxLineBytes)})
	if err != nil {
		t.Fatal(err)
	}
	if lines, err = ReadSegment(bytes.NewReader(data)); !errors.Is(err, ErrTorn) || len(lines) != 2 {
		t.Fatalf("oversized record: %d lines, err %v; want the 2 before it and ErrTorn", len(lines), err)
	}

	walk := func(recs ...analysis.OfflineDownload) ([]int, error) {
		dir := t.TempDir()
		w, err := NewBulkWriter(dir, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var got []int
		_, err = ForEachDownloadParallel(dir, 1, func(d *analysis.OfflineDownload) error {
			got = append(got, len(d.GUID))
			return nil
		})
		return got, err
	}
	got, err := walk(rec(8), rec(big), rec(8))
	if err != nil || !reflect.DeepEqual(got, []int{8, big, 8}) {
		t.Fatalf("walk read GUID lengths %v, err %v; want [8 %d 8]", got, err, big)
	}
	if _, err := walk(rec(8), rec(8), rec(analysis.MaxLineBytes), rec(8)); !errors.Is(err, ErrTorn) {
		t.Fatalf("walk over an oversized record in a middle segment: err %v, want ErrTorn", err)
	}
}
