package logpipe

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netsession/internal/telemetry"
)

// spoolRec is a numbered test entry: n rides in Size, the note in URLHash.
func spoolRec(n int, note string) *Entry {
	return &Entry{Kind: EntryKindDownload, Size: int64(n), URLHash: note}
}

func openTestSpool(t *testing.T, dir string, reg *telemetry.Registry) *Spool {
	t.Helper()
	s, err := OpenSpool(SpoolConfig{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// batchNs decodes a batch and returns its entries' numbers in order.
func batchNs(t *testing.T, b Batch) []int {
	t.Helper()
	lines, err := ReadSegment(bytes.NewReader(b.Data))
	if err != nil {
		t.Fatalf("decode batch %d: %v", b.Seq, err)
	}
	out := make([]int, len(lines))
	for i, l := range lines {
		e, err := DecodeEntry(l)
		if err != nil {
			t.Fatalf("batch %d line %d: %v", b.Seq, i, err)
		}
		out[i] = int(e.Size)
	}
	return out
}

func TestSpoolAppendFlushUpload(t *testing.T) {
	dir := t.TempDir()
	s := openTestSpool(t, dir, nil)
	for i := 0; i < 5; i++ {
		if err := s.Append(spoolRec(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	if sealed, open := s.Pending(); sealed != 0 || open != 5 {
		t.Fatalf("before flush: sealed=%d open=%d, want 0/5", sealed, open)
	}
	if _, ok, _ := s.NextBatch(); ok {
		t.Fatal("NextBatch returned a batch before any seal")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if sealed, open := s.Pending(); sealed != 1 || open != 0 {
		t.Fatalf("after flush: sealed=%d open=%d, want 1/0", sealed, open)
	}

	b, ok, err := s.NextBatch()
	if err != nil || !ok {
		t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
	}
	if b.Records != 5 {
		t.Fatalf("batch has %d records, want 5", b.Records)
	}
	for i, n := range batchNs(t, b) {
		if n != i {
			t.Fatalf("record %d has n=%d", i, n)
		}
	}
	if err := s.MarkUploaded(b.Seq); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.NextBatch(); ok {
		t.Fatal("batch still pending after MarkUploaded")
	}
	if sealed, open := s.Pending(); sealed != 0 || open != 0 {
		t.Fatalf("after upload: sealed=%d open=%d, want 0/0", sealed, open)
	}
}

func TestSpoolBatchThresholdSeals(t *testing.T) {
	s := openTestSpool(t, t.TempDir(), nil)
	s.w.maxRecords = 3
	for i := 0; i < 7; i++ {
		if err := s.Append(spoolRec(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	if sealed, open := s.Pending(); sealed != 2 || open != 1 {
		t.Fatalf("sealed=%d open=%d, want 2 sealed batches of 3 and 1 open record", sealed, open)
	}
}

// TestSpoolCrashRecovery simulates a process kill: the spool is abandoned
// without Flush, and a reopened spool must surface every appended record —
// the leftover open segment is sealed into an uploadable batch.
func TestSpoolCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTestSpool(t, dir, nil)
	for i := 0; i < 4; i++ {
		if err := s.Append(spoolRec(i, "pre-crash")); err != nil {
			t.Fatal(err)
		}
	}
	// No Flush, no close: the process dies here.

	s2 := openTestSpool(t, dir, nil)
	b, ok, err := s2.NextBatch()
	if err != nil || !ok {
		t.Fatalf("reopened spool NextBatch: ok=%v err=%v", ok, err)
	}
	if b.Records != 4 {
		t.Fatalf("recovered batch has %d records, want 4", b.Records)
	}
	// New appends must land in a later segment, never rewrite a sealed one.
	if err := s2.Append(spoolRec(99, "post-crash")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if sealed, _ := s2.Pending(); sealed != 2 {
		t.Fatalf("sealed=%d, want recovered + post-crash segment", sealed)
	}
}

// TestSpoolCursorCrashWindow exercises the ack-then-crash window: the cursor
// was persisted but the acknowledged segment file survived (deletion is the
// non-atomic second step). Reopening must finish the delete and never re-send
// acknowledged sequences.
func TestSpoolCursorCrashWindow(t *testing.T) {
	dir := t.TempDir()
	s := openTestSpool(t, dir, nil)
	if err := s.Append(spoolRec(1, "")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	b, ok, err := s.NextBatch()
	if err != nil || !ok {
		t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
	}
	if err := s.MarkUploaded(b.Seq); err != nil {
		t.Fatal(err)
	}
	// Resurrect the acknowledged segment file, as if the crash hit between
	// the cursor write and the delete.
	if err := os.WriteFile(filepath.Join(dir, segmentName(b.Seq)), b.Data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTestSpool(t, dir, nil)
	if _, ok, _ := s2.NextBatch(); ok {
		t.Fatal("acknowledged segment offered for re-upload after reopen")
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(b.Seq))); !os.IsNotExist(err) {
		t.Fatal("acknowledged segment not deleted on reopen")
	}
	// The next sequence must not reuse the acknowledged one.
	if err := s2.Append(spoolRec(2, "")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	nb, ok, err := s2.NextBatch()
	if err != nil || !ok {
		t.Fatalf("NextBatch after reopen: ok=%v err=%v", ok, err)
	}
	if nb.Seq <= b.Seq {
		t.Fatalf("new batch seq %d does not advance past acknowledged %d", nb.Seq, b.Seq)
	}
}

// TestSpoolCorruptCursorResends verifies the degraded path: an unreadable
// cursor means "nothing acknowledged", so sealed segments are re-offered (the
// control plane's dedup window absorbs the resend).
func TestSpoolCorruptCursorResends(t *testing.T) {
	dir := t.TempDir()
	s := openTestSpool(t, dir, nil)
	if err := s.Append(spoolRec(1, "")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, cursorFile), []byte("not json{"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTestSpool(t, dir, nil)
	if _, ok, err := s2.NextBatch(); err != nil || !ok {
		t.Fatalf("sealed segment not re-offered after cursor corruption: ok=%v err=%v", ok, err)
	}
}

// TestSpoolRetention fills the spool past its byte cap and verifies that the
// oldest batches are dropped, the drops are counted on telemetry, and the
// newest data survives.
func TestSpoolRetention(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTestSpool(t, t.TempDir(), reg)
	s.w.maxRecords = 2
	s.maxBytes = 1 // every seal overflows the cap
	pad := strings.Repeat("x", 200)
	for i := 0; i < 10; i++ {
		if err := s.Append(spoolRec(i, pad)); err != nil {
			t.Fatal(err)
		}
	}
	sealed, _ := s.Pending()
	if sealed != 1 {
		t.Fatalf("sealed=%d, want retention to keep only the newest segment", sealed)
	}
	b, ok, err := s.NextBatch()
	if err != nil || !ok {
		t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
	}
	ns := batchNs(t, b)
	if ns[len(ns)-1] != 9 {
		t.Fatalf("newest record is n=%d, want 9 (retention must drop oldest-first)", ns[len(ns)-1])
	}
	snap := reg.Snapshot()
	if got := snap.Counters["logpipe_spool_dropped_records_total"]; got != 8 {
		t.Fatalf("dropped records counter = %d, want 8", got)
	}
	if got := snap.Counters["logpipe_spool_records_total"]; got != 10 {
		t.Fatalf("records counter = %d, want 10", got)
	}
}

// TestSpoolUnreadableSegmentSkipped plants a destroyed sealed segment and
// verifies the uploader path skips past it (counted) instead of wedging.
func TestSpoolUnreadableSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openTestSpool(t, dir, nil)
	if err := s.Append(spoolRec(1, "")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	b, ok, err := s.NextBatch()
	if err != nil || !ok {
		t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(b.Seq)), []byte("destroyed"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.NextBatch(); err == nil {
		t.Fatal("unreadable segment did not report an error")
	}
	if _, ok, err := s.NextBatch(); ok || err != nil {
		t.Fatalf("spool not drained after skipping unreadable segment: ok=%v err=%v", ok, err)
	}
}

func TestSpoolRequiresDir(t *testing.T) {
	if _, err := OpenSpool(SpoolConfig{}); err == nil {
		t.Fatal("OpenSpool accepted an empty dir")
	}
}

func TestSpoolManySegmentsOrdered(t *testing.T) {
	dir := t.TempDir()
	s := openTestSpool(t, dir, nil)
	s.w.maxRecords = 1
	for i := 0; i < 20; i++ {
		if err := s.Append(spoolRec(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		b, ok, err := s.NextBatch()
		if err != nil || !ok {
			t.Fatalf("batch %d: ok=%v err=%v", i, ok, err)
		}
		if ns := batchNs(t, b); len(ns) != 1 || ns[0] != i {
			t.Fatalf("batch %d carries %v, want record n=%d", i, ns, i)
		}
		if err := s.MarkUploaded(b.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := s.NextBatch(); ok {
		t.Fatal("spool not drained")
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.Name() != cursorFile {
			t.Fatalf("leftover file %s after full drain", e.Name())
		}
	}
}

func TestSpoolAppendDurability(t *testing.T) {
	dir := t.TempDir()
	s := openTestSpool(t, dir, nil)
	if err := s.Append(spoolRec(7, "")); err != nil {
		t.Fatal(err)
	}
	// The record must be on disk the moment Append returns, without Flush.
	segs, err := ListSegments(dir)
	if err != nil || len(segs) != 1 || !segs[0].Open {
		t.Fatalf("open segment not durable after Append: segs=%v err=%v", segs, err)
	}
	lines, err := ReadSegmentFile(segs[0].Path)
	if err != nil || len(lines) != 1 {
		t.Fatalf("open segment holds %d lines (err=%v), want 1", len(lines), err)
	}
	if e, err := DecodeEntry(lines[0]); err != nil || e.Size != 7 {
		t.Fatalf("durable record = %+v err=%v", e, err)
	}
}

func TestSpoolRecordsKeepInsertionOrderAcrossSeal(t *testing.T) {
	s := openTestSpool(t, t.TempDir(), nil)
	s.w.maxRecords = 4
	var want []int
	for i := 0; i < 10; i++ {
		if err := s.Append(spoolRec(i, "")); err != nil {
			t.Fatal(err)
		}
		want = append(want, i)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []int
	for {
		b, ok, err := s.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for _, n := range batchNs(t, b) {
			got = append(got, n)
		}
		if err := s.MarkUploaded(b.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("drained order %v, want %v", got, want)
	}
}
