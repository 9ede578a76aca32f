package logpipe

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"netsession/internal/analysis"
	"netsession/internal/id"
)

// FuzzAckStoreLoad writes arbitrary bytes as a node's acks.json checkpoint
// and acks.log journal and boots an ack store on them, as every control
// plane node with a log dir does. The invariants: opening never panics;
// the sequence is never below the retained key count; every key Seen
// reports is in Window() (what a drain flushes and anti-entropy serves);
// and a close-and-reopen preserves the sequence and the window.
func FuzzAckStoreLoad(f *testing.F) {
	f.Add([]byte(`{"seq":5,"keys":["g/3","g/4","g/5"]}`), []byte("g/6\ng/7\n"), uint8(0))
	f.Add([]byte(`{"seq":1,"keys":["a","b","c"]}`), []byte{}, uint8(0))
	f.Add([]byte(`{"seq":9,"keys":["a","a","b"]}`), []byte("b\nc\nto"), uint8(2))
	f.Add([]byte(`{"seq":18446744073709551615,"keys":["a"]}`), []byte("b\n"), uint8(0))
	f.Add([]byte("not json"), []byte("\n\n  x  \n"), uint8(1))

	f.Fuzz(func(t *testing.T, ckpt, journal []byte, window uint8) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ackCheckpointFile), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ackJournalFile), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*AckStore, error) {
			if window == 0 {
				return OpenAckStore(dir)
			}
			return openAckStore(dir, int(window), ackCheckpointEvery)
		}
		a, err := open()
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		seq, win := a.Seq(), a.Window()
		if seq < uint64(len(win)) {
			t.Fatalf("Seq() = %d below the %d retained keys", seq, len(win))
		}
		var candidates []string
		var parsed ackCheckpoint
		if json.Unmarshal(ckpt, &parsed) == nil {
			candidates = parsed.Keys
		}
		for _, line := range strings.Split(string(journal), "\n") {
			candidates = append(candidates, strings.TrimSpace(line))
		}
		for _, k := range candidates {
			if a.Seen(k) && !slices.Contains(win, k) {
				t.Fatalf("key %q is Seen but missing from Window() %q", k, win)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		b, err := open()
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer b.Close()
		if b.Seq() != seq || !slices.Equal(b.Window(), win) {
			t.Fatalf("reopen changed the store: seq %d -> %d, window %q -> %q", seq, b.Seq(), win, b.Window())
		}
	})
}

// fuzzSeedSegments returns the shared corpus of interesting segment byte
// streams: valid, torn at several depths, and outright garbage.
func fuzzSeedSegments() [][]byte {
	var seeds [][]byte
	for _, lines := range [][][]byte{testLines(5), recordLines(100, 5)} {
		if valid, err := MarshalSegment(lines); err == nil {
			seeds = append(seeds, valid)
			seeds = append(seeds, valid[:len(valid)/2]) // torn tail
			seeds = append(seeds, valid[:1])            // torn inside the gzip header
		}
	}
	if empty, err := MarshalSegment(nil); err == nil {
		seeds = append(seeds, empty)
	}
	seeds = append(seeds,
		[]byte{},
		[]byte("plain text, not gzip"),
		[]byte{0x1f, 0x8b}, // bare gzip magic
	)
	return seeds
}

// recordLines encodes n download records starting at storeRec(from).
func recordLines(from, n int) [][]byte {
	lines := make([][]byte, n)
	for i := range lines {
		rec := storeRec(from + i)
		lines[i], _ = json.Marshal(&rec)
	}
	return lines
}

// FuzzReadSegment feeds arbitrary bytes — and mutations of valid segments —
// through the segment reader, then through the store readers with the bytes
// placed inside a store between good segments. The invariants: never panic,
// never return anything but complete newline-delimited lines, classify every
// damaged stream as ErrTorn; as the final segment the store reads without
// error, as a middle segment it either reads whole or is refused; and
// wherever it reads, every good record arrives exactly once and
// ReadDownloads and ForEachDownloadParallel (1 and 4 workers) agree.
func FuzzReadSegment(f *testing.F) {
	for _, s := range fuzzSeedSegments() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		lines, err := ReadSegment(bytes.NewReader(data))
		if err != nil && !errors.Is(err, ErrTorn) {
			t.Fatalf("ReadSegment error %v is not ErrTorn", err)
		}
		for i, l := range lines {
			if len(l) == 0 {
				t.Fatalf("line %d is empty; blank lines must be skipped", i)
			}
			if bytes.ContainsRune(l, '\n') {
				t.Fatalf("line %d contains a newline: %q", i, l)
			}
		}
		// A reader must be able to re-frame what the writer produces: lines
		// recovered from any stream must round-trip losslessly.
		if len(lines) > 0 {
			re, merr := MarshalSegment(lines)
			if merr != nil {
				t.Fatalf("re-marshal recovered lines: %v", merr)
			}
			back, rerr := ReadSegment(bytes.NewReader(re))
			if rerr != nil {
				t.Fatalf("re-read re-marshaled segment: %v", rerr)
			}
			if len(back) != len(lines) {
				t.Fatalf("re-read returned %d lines, want %d", len(back), len(lines))
			}
			for i := range lines {
				if !bytes.Equal(back[i], lines[i]) {
					t.Fatalf("re-read line %d = %q, want %q", i, back[i], lines[i])
				}
			}
		}

		// What the bytes yield on their own, as a store's only (so final)
		// segment; the readers tolerate any damage there.
		alone, err := ReadDownloads(writeSegments(t, data))
		if err != nil {
			t.Fatalf("single torn-tolerant segment: %v", err)
		}
		seg0, recs0 := goodSegment(t, 0)
		seg2, recs2 := goodSegment(t, 3)
		final := slices.Concat(recs0, recs2, alone)
		checkStoreReads(t, "final", writeSegments(t, seg0, seg2, data), final, false)
		middle := slices.Concat(recs0, alone, recs2)
		checkStoreReads(t, "middle", writeSegments(t, seg0, data, seg2), middle, true)
	})
}

// goodSegment encodes three download records starting at storeRec(from).
func goodSegment(t *testing.T, from int) ([]byte, []analysis.OfflineDownload) {
	t.Helper()
	seg, err := MarshalSegment(recordLines(from, 3))
	if err != nil {
		t.Fatal(err)
	}
	return seg, []analysis.OfflineDownload{storeRec(from), storeRec(from + 1), storeRec(from + 2)}
}

// writeSegments lays segs out as a store directory, in order.
func writeSegments(t *testing.T, segs ...[]byte) string {
	t.Helper()
	dir := t.TempDir()
	for i, data := range segs {
		if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(i))), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkStoreReads reads dir with every store reader: ReadDownloads and a
// one-worker ForEachDownloadParallel must deliver want in order, a
// four-worker one the same records in any order. With mayFail the readers
// may refuse the store instead, but all of them or none.
func checkStoreReads(t *testing.T, layout, dir string, want []analysis.OfflineDownload, mayFail bool) {
	t.Helper()
	got, err := ReadDownloads(dir)
	switch {
	case err != nil && !mayFail:
		t.Fatalf("%s: ReadDownloads: %v", layout, err)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: ReadDownloads returned %d records, want %d exactly once in order", layout, len(got), len(want))
	}
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var streamed []analysis.OfflineDownload
		n, ferr := ForEachDownloadParallel(dir, workers, func(d *analysis.OfflineDownload) error {
			mu.Lock()
			streamed = append(streamed, *d)
			mu.Unlock()
			return nil
		})
		if (ferr == nil) != (err == nil) {
			t.Fatalf("%s: workers=%d: error %v, ReadDownloads error %v", layout, workers, ferr, err)
		}
		if ferr != nil {
			continue
		}
		if workers > 1 {
			sortRecords(streamed)
			want = sortRecords(slices.Clone(want))
		}
		if n != len(want) || !reflect.DeepEqual(streamed, want) {
			t.Fatalf("%s: workers=%d: streamed %d records, want %d exactly once", layout, workers, n, len(want))
		}
	}
}

// sortRecords orders records by their encoding.
func sortRecords(recs []analysis.OfflineDownload) []analysis.OfflineDownload {
	key := func(d *analysis.OfflineDownload) string {
		raw, _ := json.Marshal(d)
		return string(raw)
	}
	slices.SortFunc(recs, func(a, b analysis.OfflineDownload) int { return strings.Compare(key(&a), key(&b)) })
	return recs
}

// FuzzIngestBatch feeds arbitrary bytes to the ingest endpoint's batch
// decoder as a POSTed body, with a handler that refuses every entry of odd
// Size. The invariants: never panic; a refused batch books nothing — the
// handler is never called and nothing is counted; and an accepted batch
// counts every non-blank line of its decompressed body exactly once,
// accepted plus rejected, with the handler called for exactly the lines that
// decode. The batch is accepted exactly when the body gunzips whole within
// the decoded-size cap.
func FuzzIngestBatch(f *testing.F) {
	gz := func(body string) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write([]byte(body))
		zw.Close()
		return buf.Bytes()
	}
	good := `{"kind":"download","size":2}` + "\n" + `{"kind":"download","size":3}` + "\n"
	f.Add(gz(good))
	f.Add(gz(good + "\n\r\nnot json\n" + `{"kind":"login"}`))
	f.Add(gz(good)[:len(gz(good))-4]) // the gzip trailer cut
	f.Add(append(gz(good), gz("\n")...))
	f.Add(gz(strings.Repeat("x", 5000)))
	for _, s := range fuzzSeedSegments() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		var calls int
		in := NewIngest(IngestConfig{Handle: func(_ id.GUID, e *Entry) error {
			calls++
			if e.Size%2 != 0 {
				return errors.New("odd size")
			}
			return nil
		}})
		in.maxDecodedBytes = 4 << 10 // small inputs reach the cap
		accepted, rejected, err := in.ingest(id.GUID{1}, raw)

		var body []byte
		zr, zerr := gzip.NewReader(bytes.NewReader(raw))
		if zerr == nil {
			body, zerr = io.ReadAll(io.LimitReader(zr, in.maxDecodedBytes+1))
		}
		whole := zerr == nil && int64(len(body)) <= in.maxDecodedBytes
		if err != nil {
			if accepted != 0 || rejected != 0 || calls != 0 {
				t.Fatalf("refused batch (%v) booked %d accepted, %d rejected, %d handler calls", err, accepted, rejected, calls)
			}
			if whole {
				t.Fatalf("a batch that gunzips whole within the cap was refused: %v", err)
			}
			return
		}
		if !whole {
			t.Fatalf("batch accepted, but it does not gunzip whole within the cap (%v, %d bytes)", zerr, len(body))
		}
		lines, decodable := 0, 0
		for _, l := range bytes.Split(body, []byte("\n")) {
			l = bytes.TrimSuffix(l, []byte("\r"))
			if len(l) == 0 {
				continue
			}
			lines++
			if _, derr := DecodeEntry(l); derr == nil {
				decodable++
			}
		}
		if accepted+rejected != lines {
			t.Fatalf("accepted %d + rejected %d != %d non-blank lines", accepted, rejected, lines)
		}
		if calls != decodable || accepted > calls {
			t.Fatalf("handler called %d times for %d decodable lines, %d accepted", calls, decodable, accepted)
		}
	})
}
