package logpipe

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"netsession/internal/analysis"
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
	if valid, err := MarshalSegment(testLines(5)); err == nil {
		seeds = append(seeds, valid)
		seeds = append(seeds, valid[:len(valid)/2]) // torn tail
		seeds = append(seeds, valid[:1])            // torn inside the gzip header
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

// FuzzReadSegment feeds arbitrary bytes — and mutations of valid segments —
// through the segment reader. The invariants: never panic, never return
// anything but complete newline-delimited lines, and classify every damaged
// stream as ErrTorn so callers can apply the torn-final-segment policy.
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
	})
}

// FuzzTailSegments drops arbitrary bytes into a segment directory as the
// newest segment — between a known-good predecessor and, later, a known-good
// successor — and tails the store across it. The invariants: the tailer never
// panics and never returns a non-torn error, never duplicates a delivered
// record, always delivers every record of the undamaged segments, and never
// wedges (damage with sealed successors is skipped, not retried forever).
func FuzzTailSegments(f *testing.F) {
	for _, s := range fuzzSeedSegments() {
		f.Add(s)
	}

	goodSeg := func(t *testing.T, base int) ([]byte, []string) {
		var lines [][]byte
		var guids []string
		for i := 0; i < 3; i++ {
			d := analysis.OfflineDownload{GUID: string(rune('a'+base)) + "-guid", Size: int64(i)}
			d.GUID = d.GUID + string(rune('0'+i))
			raw, err := json.Marshal(&d)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, raw)
			guids = append(guids, d.GUID)
		}
		seg, err := MarshalSegment(lines)
		if err != nil {
			t.Fatal(err)
		}
		return seg, guids
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg0, guids0 := goodSeg(t, 0)
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), seg0, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		tl, err := OpenTailer(TailerConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		first, err := tl.Poll()
		if err != nil {
			t.Fatalf("first poll: %v", err)
		}
		seen := map[string]int{}
		for _, d := range first {
			seen[d.GUID]++
		}
		// Re-polling an unchanged store must deliver nothing new.
		again, err := tl.Poll()
		if err != nil {
			t.Fatalf("second poll: %v", err)
		}
		if len(again) != 0 {
			t.Fatalf("unchanged store re-delivered %d records", len(again))
		}
		// A good sealed successor lands; the tailer must move past whatever
		// the fuzzer wrote and deliver the successor in full.
		seg2, guids2 := goodSeg(t, 2)
		if err := os.WriteFile(filepath.Join(dir, segmentName(2)), seg2, 0o644); err != nil {
			t.Fatal(err)
		}
		rest, err := tl.Poll()
		if err != nil {
			t.Fatalf("third poll: %v", err)
		}
		for _, d := range rest {
			seen[d.GUID]++
		}
		for _, g := range append(guids0, guids2...) {
			if seen[g] != 1 {
				t.Fatalf("good record %q delivered %d times, want exactly once", g, seen[g])
			}
		}
		if tl.TornSkipped() > 1 {
			t.Fatalf("TornSkipped = %d, want at most 1", tl.TornSkipped())
		}
	})
}
