package logpipe

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"netsession/internal/analysis"
)

func tailRec(i int) analysis.OfflineDownload {
	return analysis.OfflineDownload{
		GUID:    fmt.Sprintf("guid-%05d", i),
		Country: "US",
		Region:  "NA-East",
		ASN:     7922,
		URLHash: fmt.Sprintf("url-%03d", i%17),
		Size:    int64(1000 + i),
		Outcome: "completed",
	}
}

func pollAll(t *testing.T, tl *Tailer) []analysis.OfflineDownload {
	t.Helper()
	recs, err := tl.Poll()
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	return recs
}

// TestTailerFollowsRotation appends through the store while polling between
// appends, seals, and rotations: the tailer must deliver every record exactly
// once, in order, regardless of where the store is in its rotation cycle.
func TestTailerFollowsRotation(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, 5, nil)
	tl, err := OpenTailer(TailerConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var got []analysis.OfflineDownload
	const total = 23 // several full rotations plus a partial open segment
	for i := 0; i < total; i++ {
		if err := st.Append(tailRec(i)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			got = append(got, pollAll(t, tl)...)
		}
	}
	got = append(got, pollAll(t, tl)...)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got = append(got, pollAll(t, tl)...)
	if len(got) != total {
		t.Fatalf("tailed %d records, want %d", len(got), total)
	}
	for i := range got {
		if want := tailRec(i); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want)
		}
	}
	// A store fully consumed must poll empty, not replay.
	if extra := pollAll(t, tl); len(extra) != 0 {
		t.Fatalf("drained store replayed %d records", len(extra))
	}
}

// TestTailerTornFinalSegment truncates the newest segment mid-stream: the
// tailer emits the complete records, stays parked on the damaged segment, and
// resumes without loss or duplication once the segment is restored whole.
func TestTailerTornFinalSegment(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, 100, nil)
	for i := 0; i < 8; i++ {
		if err := st.Append(tailRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := ListSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	whole, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0].Path, whole[:len(whole)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	tl, err := OpenTailer(TailerConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first := pollAll(t, tl)
	if len(first) >= 8 {
		t.Fatalf("torn segment yielded all %d records", len(first))
	}
	if cur := tl.Cursor(); cur.Seq != segs[0].Seq || cur.Rec != len(first) {
		t.Fatalf("cursor %+v after torn tail, want {%d %d}", cur, segs[0].Seq, len(first))
	}
	// The writer completes the segment (the store rewrites open segments
	// whole); the tailer must emit only the records past its cursor.
	if err := os.WriteFile(segs[0].Path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	rest := pollAll(t, tl)
	if len(first)+len(rest) != 8 {
		t.Fatalf("recovered %d+%d records, want 8 total", len(first), len(rest))
	}
	for i, d := range append(first, rest...) {
		if want := tailRec(i); !reflect.DeepEqual(d, want) {
			t.Fatalf("record %d = %+v, want %+v", i, d, want)
		}
	}
	if tl.TornSkipped() != 0 {
		t.Fatalf("torn-final handling counted %d skips; the tail healed", tl.TornSkipped())
	}
}

// TestTailerTornMiddleSegmentSkips damages a sealed segment that has sealed
// successors: its tail can never heal, so the tailer must count it and move
// on rather than wedge.
func TestTailerTornMiddleSegmentSkips(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, 4, nil)
	for i := 0; i < 12; i++ { // three sealed segments of 4
		if err := st.Append(tailRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := ListSegments(dir)
	if err != nil || len(segs) != 3 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	mid, err := os.ReadFile(segs[1].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[1].Path, mid[:len(mid)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTailer(TailerConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got := pollAll(t, tl)
	if len(got) >= 12 || len(got) < 8 {
		t.Fatalf("tailed %d records across a torn middle segment, want [8,12)", len(got))
	}
	if tl.TornSkipped() != 1 {
		t.Fatalf("TornSkipped = %d, want 1", tl.TornSkipped())
	}
	// Records from the undamaged segments must all be present.
	seen := map[string]bool{}
	for _, d := range got {
		seen[d.GUID] = true
	}
	for i := 0; i < 4; i++ {
		if !seen[tailRec(i).GUID] || !seen[tailRec(8+i).GUID] {
			t.Fatalf("undamaged record missing from tail output (i=%d)", i)
		}
	}
}

// TestTailerCursorResume restarts the tailer mid-stream: a new tailer opened
// on the checkpointed cursor continues exactly where the old one stopped.
func TestTailerCursorResume(t *testing.T) {
	dir := t.TempDir()
	cursor := filepath.Join(t.TempDir(), "cursor.json")
	st := openTestStore(t, dir, 5, nil)
	for i := 0; i < 13; i++ {
		if err := st.Append(tailRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	tl, err := OpenTailer(TailerConfig{Dir: dir, CursorPath: cursor})
	if err != nil {
		t.Fatal(err)
	}
	first := pollAll(t, tl)
	if len(first) != 13 {
		t.Fatalf("first tailer read %d records, want 13", len(first))
	}
	// More records land after the "restart".
	for i := 13; i < 20; i++ {
		if err := st.Append(tailRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	tl2, err := OpenTailer(TailerConfig{Dir: dir, CursorPath: cursor})
	if err != nil {
		t.Fatal(err)
	}
	if tl2.Cursor() != tl.Cursor() {
		t.Fatalf("resumed cursor %+v != checkpointed %+v", tl2.Cursor(), tl.Cursor())
	}
	rest := pollAll(t, tl2)
	if len(rest) != 7 {
		t.Fatalf("resumed tailer read %d records, want exactly the 7 new ones", len(rest))
	}
	for i, d := range rest {
		if want := tailRec(13 + i); !reflect.DeepEqual(d, want) {
			t.Fatalf("resumed record %d = %+v, want %+v", i, d, want)
		}
	}
	// A corrupt cursor file degrades to a full re-read, never an error.
	if err := os.WriteFile(cursor, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	tl3, err := OpenTailer(TailerConfig{Dir: dir, CursorPath: cursor})
	if err != nil {
		t.Fatal(err)
	}
	if replay := pollAll(t, tl3); len(replay) != 20 {
		t.Fatalf("corrupt cursor replayed %d records, want all 20", len(replay))
	}
}

// TestTailerEmptyAndMissingDir: polling before the store exists or before it
// has spilled anything is not an error.
func TestTailerEmptyAndMissingDir(t *testing.T) {
	tl, err := OpenTailer(TailerConfig{Dir: filepath.Join(t.TempDir(), "not-yet")})
	if err != nil {
		t.Fatal(err)
	}
	if recs := pollAll(t, tl); len(recs) != 0 {
		t.Fatalf("missing dir polled %d records", len(recs))
	}
}

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
	if len(want) < 192 || !reflect.DeepEqual(want[0], tailRec(0)) || !reflect.DeepEqual(want[191], tailRec(191)) {
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
		if err := st.Append(tailRec(i)); err != nil {
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
