package logpipe

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"netsession/internal/analysis"
	"netsession/internal/telemetry"
)

func storeRec(i int) analysis.OfflineDownload {
	return analysis.OfflineDownload{
		GUID: fmt.Sprintf("guid-%04d", i), IP: "10.0.0.1",
		Country: "JP", ASN: 4713,
		Object: fmt.Sprintf("obj-%04d", i), URLHash: "u", CP: 3001,
		Size: 1 << 20, P2PEnabled: true,
		StartMs: int64(i), EndMs: int64(i + 10),
		BytesInfra: 1000, BytesPeers: 2000, Outcome: "completed",
	}
}

// openTestStore opens a store that rotates every perSeg records.
func openTestStore(t *testing.T, dir string, perSeg int, reg *telemetry.Registry) *Store {
	t.Helper()
	st, err := OpenStore(StoreConfig{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	st.w.maxRecords = perSeg
	return st
}

func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, 10, nil)
	const n = 25
	for i := 0; i < n; i++ {
		if err := st.Append(storeRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDownloads(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
	for i, d := range got {
		if d.GUID != storeRec(i).GUID || d.StartMs != int64(i) {
			t.Fatalf("record %d = %+v, out of order or mangled", i, d)
		}
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 { // 10 + 10 + 5
		t.Fatalf("store rotated into %d segments, want 3", len(segs))
	}
}

func TestStoreAppendAfterCloseFails(t *testing.T) {
	st, err := OpenStore(StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(storeRec(0)); err == nil {
		t.Fatal("Append succeeded on a closed store")
	}
}

// TestStoreCrashRecovery abandons a store mid-segment and verifies a reopened
// store seals the leftover and continues with fresh sequence numbers.
func TestStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, 100, nil)
	for i := 0; i < 3; i++ {
		if err := st.Append(storeRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the control plane process dies here.

	st2 := openTestStore(t, dir, 100, nil)
	if err := st2.Append(storeRec(3)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDownloads(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("read %d records after crash recovery, want 4", len(got))
	}
}

// TestReadDownloadsTornFinal verifies the reader's crash policy: a torn final
// segment contributes its complete records; torn damage anywhere else is
// corruption and fails the read.
func TestReadDownloadsTornFinal(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, 2, nil)
	for i := 0; i < 6; i++ {
		if err := st.Append(storeRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil || len(segs) != 3 {
		t.Fatalf("segs=%v err=%v, want 3 sealed segments", segs, err)
	}

	// Tear the final segment: complete records before the cut still count.
	last := segs[len(segs)-1]
	raw, err := os.ReadFile(last.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last.Path, raw[:len(raw)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDownloads(dir)
	if err != nil {
		t.Fatalf("torn final segment must be tolerated: %v", err)
	}
	if len(got) < 4 || len(got) > 6 {
		t.Fatalf("read %d records, want the 4 from intact segments plus any recovered tail", len(got))
	}

	// Tear a middle segment: that is corruption, not a crash artifact.
	mid := segs[1]
	raw, err = os.ReadFile(mid.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mid.Path, raw[:len(raw)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDownloads(dir); err == nil {
		t.Fatal("torn middle segment must fail the read")
	}
}

func TestReadDownloadsEmptyDir(t *testing.T) {
	if _, err := ReadDownloads(t.TempDir()); err == nil {
		t.Fatal("empty directory must not read as an empty log set")
	}
}

func TestHasSegments(t *testing.T) {
	dir := t.TempDir()
	if HasSegments(dir) {
		t.Fatal("empty dir reported segments")
	}
	if err := os.WriteFile(filepath.Join(dir, "logins.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if HasSegments(dir) {
		t.Fatal("non-segment files reported as segments")
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if !HasSegments(dir) {
		t.Fatal("segment file not detected")
	}
}

func TestStoreTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := openTestStore(t, t.TempDir(), 2, reg)
	for i := 0; i < 5; i++ {
		if err := st.Append(storeRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["logpipe_store_records_total"]; got != 5 {
		t.Fatalf("store records counter = %d, want 5", got)
	}
	if got := snap.Counters["logpipe_store_segments_sealed_total"]; got != 3 {
		t.Fatalf("store segments counter = %d, want 3 (2+2+1)", got)
	}
}
