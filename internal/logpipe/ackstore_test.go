package logpipe

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"netsession/internal/id"
	"netsession/internal/telemetry"
)

func TestAckStoreDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	a, err := openAckStore(dir, ackWindow, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Cross the checkpoint boundary and leave a journal tail behind.
	for i := 0; i < 5; i++ {
		a.Mark(fmt.Sprintf("guid/%d", i))
	}
	if err := a.Err(); err != nil {
		t.Fatalf("journal error: %v", err)
	}
	if a.Seq() != 5 {
		t.Fatalf("seq = %d, want 5", a.Seq())
	}
	// No Close: simulate a crash by just reopening the directory.
	b, err := OpenAckStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 5; i++ {
		if !b.Seen(fmt.Sprintf("guid/%d", i)) {
			t.Fatalf("ack %d lost across reopen", i)
		}
	}
	if b.Seen("guid/99") {
		t.Fatal("phantom ack after reopen")
	}
	if b.Seq() != 5 {
		t.Fatalf("seq after reopen = %d, want 5", b.Seq())
	}
}

// TestAckStoreReopenKeepsSeen: the journal holds one key per line, so a key
// with a line break, padding or a control byte would come back from a
// reopen as some other key, or not at all. Such keys are refused where they
// enter; whatever Seen answered before a crash it answers after.
func TestAckStoreReopenKeepsSeen(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAckStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.MarkAll([]string{"g/1", "x\ny", " pad ", "tab\tkey", "nul\x00", "bad\xffutf8"})
	a.Mark("g/2")
	probes := []string{"g/1", "g/2", "x\ny", "x", "y", " pad ", "pad", "tab\tkey", "nul\x00", "bad\xffutf8"}
	before := make([]bool, len(probes))
	for i, k := range probes {
		before[i] = a.Seen(k)
	}
	seq := a.Seq()
	// No Close: the reopen replays the journal, as after a crash.
	b, err := OpenAckStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i, k := range probes {
		if got := b.Seen(k); got != before[i] {
			t.Errorf("Seen(%q) = %v after reopen, %v before", k, got, before[i])
		}
	}
	if b.Seq() != seq {
		t.Errorf("Seq() = %d after reopen, %d before", b.Seq(), seq)
	}
	if !b.Seen("g/1") || !b.Seen("g/2") || seq != 2 {
		t.Errorf("valid keys: Seen(g/1)=%v Seen(g/2)=%v seq=%d, want both kept and seq 2", b.Seen("g/1"), b.Seen("g/2"), seq)
	}
}

func TestAckStoreWindowEvicts(t *testing.T) {
	a, err := openAckStore("", 3, ackCheckpointEvery)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a.Mark(fmt.Sprintf("k/%d", i))
	}
	if a.Seen("k/0") || a.Seen("k/1") {
		t.Fatal("evicted keys still seen")
	}
	for i := 2; i < 5; i++ {
		if !a.Seen(fmt.Sprintf("k/%d", i)) {
			t.Fatalf("recent key k/%d evicted", i)
		}
	}
	// Duplicates and empties do not advance the sequence. An empty key would
	// be indistinguishable from an empty eviction slot — once marked it could
	// never be evicted — so it is ignored and the window keeps rolling.
	a.Mark("k/4")
	a.Mark("")
	if a.Seq() != 5 {
		t.Fatalf("seq = %d, want 5", a.Seq())
	}
	if a.Seen("") {
		t.Fatal("empty key marked; it could never be evicted")
	}
	a.Mark("k/5")
	if a.Seen("k/2") || !a.Seen("k/3") || !a.Seen("k/5") {
		t.Fatal("window eviction broken after empty-key Mark")
	}
}

func TestAckStoreSince(t *testing.T) {
	a, err := openAckStore("", 10, ackCheckpointEvery)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		a.Mark(fmt.Sprintf("k/%d", i))
	}
	keys, seq := a.Since(2)
	if seq != 4 || len(keys) != 2 || keys[0] != "k/3" || keys[1] != "k/4" {
		t.Fatalf("Since(2) = %v seq=%d, want [k/3 k/4] seq=4", keys, seq)
	}
	if keys, seq := a.Since(4); len(keys) != 0 || seq != 4 {
		t.Fatalf("Since(up-to-date) = %v seq=%d, want empty", keys, seq)
	}
	// A caller behind the window gets the retained tail, best effort.
	small, _ := openAckStore("", 2, ackCheckpointEvery)
	for i := 1; i <= 5; i++ {
		small.Mark(fmt.Sprintf("k/%d", i))
	}
	keys, seq = small.Since(0)
	if seq != 5 || len(keys) != 2 {
		t.Fatalf("behind-window Since = %v seq=%d, want the 2 retained keys", keys, seq)
	}
}

// TestAckSyncerPullsMissing: when a peer's advertised sequence moves past
// what we pulled, the syncer fetches the missing keys and counts the pull.
func TestAckSyncerPullsMissing(t *testing.T) {
	remote, _ := OpenAckStore("")
	remote.MarkAll([]string{"g/1", "g/2", "g/3"})
	srv := httptest.NewServer(http.HandlerFunc(remote.ServeSince))
	defer srv.Close()

	local, _ := OpenAckStore("")
	reg := telemetry.NewRegistry()
	s := NewAckSyncer(AckSyncerConfig{Store: local, Telemetry: reg})

	s.ObserveAckSeq("cp-1", srv.URL, remote.Seq())
	for _, k := range []string{"g/1", "g/2", "g/3"} {
		if !local.Seen(k) {
			t.Fatalf("key %s not pulled", k)
		}
	}
	if got := reg.Snapshot().Counters["logpipe_ack_sync_pulls_total"]; got != 1 {
		t.Fatalf("pulls counter = %d, want 1", got)
	}
	// Same sequence again: nothing new, no second pull.
	s.ObserveAckSeq("cp-1", srv.URL, remote.Seq())
	if got := reg.Snapshot().Counters["logpipe_ack_sync_pulls_total"]; got != 1 {
		t.Fatalf("pulls counter after no-op observe = %d, want 1", got)
	}
	// New acks on the remote trigger an incremental pull.
	remote.Mark("g/4")
	s.ObserveAckSeq("cp-1", srv.URL, remote.Seq())
	if !local.Seen("g/4") {
		t.Fatal("incremental key not pulled")
	}
	// A sequence below the one pulled through is a restarted remote that
	// lost its window: it is pulled from the start, not skipped.
	fresh, _ := OpenAckStore("")
	fresh.Mark("g/9")
	restarted := httptest.NewServer(http.HandlerFunc(fresh.ServeSince))
	defer restarted.Close()
	s.ObserveAckSeq("cp-1", restarted.URL, fresh.Seq())
	if !local.Seen("g/9") {
		t.Fatal("restarted remote's key not pulled")
	}
}

// TestIngestRejectsZeroBatchGUID: the all-zeros GUID parses but would key
// every batch identically (and an empty dedup key can never be evicted);
// it must be rejected with 400 before any dedup state is touched.
func TestIngestRejectsZeroBatchGUID(t *testing.T) {
	reg := telemetry.NewRegistry()
	in := NewIngest(IngestConfig{Telemetry: reg})
	body := gzBatch(t, entryLines(t, testEntry(0)))
	var zero id.GUID
	w, _ := postBatch(t, in.Handler(), zero.String(), 1, body)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("zero GUID: status %d, want 400", w.Code)
	}
	if got := reg.Snapshot().Counters[`logpipe_ingest_rejected_total{reason="bad_batch"}`]; got != 1 {
		t.Fatalf("bad_batch counter = %d, want 1", got)
	}
}

// TestIngestSharedAckStoreAcrossNodes models a control-plane failover: two
// ingest endpoints (two CP nodes) share one ack table, so a batch
// acknowledged by node A and retried against node B still ingests once.
// (Real deployments use per-node AckStores reconciled by anti-entropy; the
// shared table here isolates the ingest-side semantics.)
func TestIngestSharedAckStoreAcrossNodes(t *testing.T) {
	shared, err := OpenAckStore("")
	if err != nil {
		t.Fatal(err)
	}
	chA, chB := &countingHandler{}, &countingHandler{}
	regB := telemetry.NewRegistry()
	nodeA := NewIngest(IngestConfig{Handle: chA.handle, Acks: shared})
	nodeB := NewIngest(IngestConfig{Handle: chB.handle, Acks: shared, Telemetry: regB})
	guid := id.NewGUID().String()
	body := gzBatch(t, entryLines(t, testEntry(0), testEntry(1)))

	if w, resp := postBatch(t, nodeA.Handler(), guid, 3, body); w.Code != http.StatusOK || resp.Accepted != 2 {
		t.Fatalf("node A: code=%d resp=%+v", w.Code, resp)
	}
	// Node A dies before the uploader's cursor write; the retry lands on B.
	w, resp := postBatch(t, nodeB.Handler(), guid, 3, body)
	if w.Code != http.StatusOK || !resp.Duplicate {
		t.Fatalf("node B resend: code=%d resp=%+v, want duplicate ack", w.Code, resp)
	}
	if chA.count() != 2 || chB.count() != 0 {
		t.Fatalf("cross-node retry double-counted: A=%d B=%d", chA.count(), chB.count())
	}
	if got := regB.Snapshot().Counters["logpipe_ingest_deduped_total"]; got != 1 {
		t.Fatalf("node B deduped counter = %d, want 1", got)
	}
	// A genuinely new batch still flows through node B.
	if _, resp := postBatch(t, nodeB.Handler(), guid, 4, body); resp.Duplicate || resp.Accepted != 2 {
		t.Fatalf("fresh batch on node B: %+v", resp)
	}
}
