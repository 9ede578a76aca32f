package logpipe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"netsession/internal/faults"
	"netsession/internal/id"
	"netsession/internal/telemetry"
)

// entryLines encodes entries as the NDJSON lines a spool batch carries.
func entryLines(t *testing.T, entries ...*Entry) [][]byte {
	t.Helper()
	lines := make([][]byte, len(entries))
	for i, e := range entries {
		b, err := EncodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = b
	}
	return lines
}

func gzBatch(t *testing.T, lines [][]byte) []byte {
	t.Helper()
	data, err := MarshalSegment(lines)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postBatch(t *testing.T, h http.Handler, guid string, seq uint64, body []byte) (*httptest.ResponseRecorder, BatchResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, BatchPath, bytes.NewReader(body))
	if guid != "" {
		req.Header.Set(HeaderGUID, guid)
	}
	req.Header.Set(HeaderSeq, strconv.FormatUint(seq, 10))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var resp BatchResponse
	if w.Code == http.StatusOK {
		if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return w, resp
}

// countingHandler collects every entry the ingest endpoint accepts.
type countingHandler struct {
	mu      sync.Mutex
	entries []Entry
	guids   []id.GUID
}

func (c *countingHandler) handle(guid id.GUID, e *Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = append(c.entries, *e)
	c.guids = append(c.guids, guid)
	return nil
}

func (c *countingHandler) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func testEntry(i int) *Entry {
	return &Entry{
		Kind: EntryKindDownload, GUID: fmt.Sprintf("entry-guid-%d", i),
		Object: strings.Repeat("ab", 32), URLHash: "u", CP: 3001,
		Size: 1 << 20, BytesInfra: 100, BytesPeers: 200,
	}
}

func TestIngestAcceptsBatch(t *testing.T) {
	ch := &countingHandler{}
	in := NewIngest(IngestConfig{Handle: ch.handle})
	guid := id.NewGUID()
	body := gzBatch(t, entryLines(t, testEntry(0), testEntry(1), testEntry(2)))
	w, resp := postBatch(t, in.Handler(), guid.String(), 0, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if resp.Accepted != 3 || resp.Rejected != 0 || resp.Duplicate {
		t.Fatalf("response %+v, want 3 accepted", resp)
	}
	if ch.count() != 3 {
		t.Fatalf("handler saw %d entries, want 3", ch.count())
	}
	if ch.guids[0] != guid {
		t.Fatalf("handler guid %v, want the header GUID %v", ch.guids[0], guid)
	}
}

func TestIngestDedupByBatchID(t *testing.T) {
	ch := &countingHandler{}
	reg := telemetry.NewRegistry()
	in := NewIngest(IngestConfig{Handle: ch.handle, Telemetry: reg})
	guid := id.NewGUID().String()
	body := gzBatch(t, entryLines(t, testEntry(0), testEntry(1)))

	if w, resp := postBatch(t, in.Handler(), guid, 7, body); w.Code != http.StatusOK || resp.Accepted != 2 {
		t.Fatalf("first send: code=%d resp=%+v", w.Code, resp)
	}
	// The resend after an uploader crash is acknowledged without re-ingesting
	// — even if its body were damaged, the batch ID alone decides.
	w, resp := postBatch(t, in.Handler(), guid, 7, []byte("damaged resend"))
	if w.Code != http.StatusOK || !resp.Duplicate {
		t.Fatalf("resend: code=%d resp=%+v, want duplicate ack", w.Code, resp)
	}
	if ch.count() != 2 {
		t.Fatalf("handler saw %d entries after resend, want 2 (exactly-once)", ch.count())
	}
	// A different GUID with the same sequence is a distinct batch.
	if w, resp := postBatch(t, in.Handler(), id.NewGUID().String(), 7, body); w.Code != http.StatusOK || resp.Duplicate {
		t.Fatalf("other GUID same seq: code=%d resp=%+v", w.Code, resp)
	}
	if got := reg.Snapshot().Counters["logpipe_ingest_deduped_total"]; got != 1 {
		t.Fatalf("deduped counter = %d, want 1", got)
	}
}

func TestIngestDedupWindowEvicts(t *testing.T) {
	ch := &countingHandler{}
	acks, err := openAckStore("", 2, ackCheckpointEvery)
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngest(IngestConfig{Handle: ch.handle, Acks: acks})
	guid := id.NewGUID().String()
	body := gzBatch(t, entryLines(t, testEntry(0)))
	for seq := uint64(0); seq < 3; seq++ {
		postBatch(t, in.Handler(), guid, seq, body)
	}
	// Seq 0 was evicted by seq 2; its resend is re-ingested (at-least-once
	// beyond the window — the window must be sized for the crash horizon).
	if _, resp := postBatch(t, in.Handler(), guid, 0, body); resp.Duplicate {
		t.Fatal("evicted batch ID still deduplicated")
	}
	// Seq 2 is still inside the window.
	if _, resp := postBatch(t, in.Handler(), guid, 2, body); !resp.Duplicate {
		t.Fatal("recent batch ID not deduplicated")
	}
}

func TestIngestBadRequests(t *testing.T) {
	in := NewIngest(IngestConfig{})
	body := gzBatch(t, entryLines(t, testEntry(0)))

	req := httptest.NewRequest(http.MethodGet, BatchPath, nil)
	w := httptest.NewRecorder()
	in.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", w.Code)
	}

	if w, _ := postBatch(t, in.Handler(), "", 0, body); w.Code != http.StatusBadRequest {
		t.Fatalf("missing GUID: status %d, want 400", w.Code)
	}
	if w, _ := postBatch(t, in.Handler(), "not-a-guid", 0, body); w.Code != http.StatusBadRequest {
		t.Fatalf("bad GUID: status %d, want 400", w.Code)
	}

	req = httptest.NewRequest(http.MethodPost, BatchPath, bytes.NewReader(body))
	req.Header.Set(HeaderGUID, id.NewGUID().String())
	req.Header.Set(HeaderSeq, "not-a-number")
	w = httptest.NewRecorder()
	in.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad seq: status %d, want 400", w.Code)
	}

	if w, _ := postBatch(t, in.Handler(), id.NewGUID().String(), 0, []byte("not gzip")); w.Code != http.StatusBadRequest {
		t.Fatalf("bad gzip: status %d, want 400", w.Code)
	}
}

func TestIngestSizeCaps(t *testing.T) {
	reg := telemetry.NewRegistry()
	in := NewIngest(IngestConfig{Telemetry: reg})
	in.maxBatchBytes = 64
	big := gzBatch(t, entryLines(t, testEntry(0), testEntry(1), testEntry(2), testEntry(3)))
	if len(big) <= 64 {
		t.Fatalf("test batch only %d bytes; need >64", len(big))
	}
	if w, _ := postBatch(t, in.Handler(), id.NewGUID().String(), 0, big); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized compressed batch: status %d, want 413", w.Code)
	}

	// A small compressed body hiding a large decompressed payload (the gzip
	// bomb shape) trips the decoded cap instead.
	in2 := NewIngest(IngestConfig{Telemetry: reg})
	in2.maxDecodedBytes = 100
	bomb := gzBatch(t, [][]byte{[]byte(`{"kind":"` + strings.Repeat("a", 4096) + `"}`)})
	if w, _ := postBatch(t, in2.Handler(), id.NewGUID().String(), 0, bomb); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized decoded batch: status %d, want 413", w.Code)
	}
	if got := reg.Snapshot().Counters[`logpipe_ingest_rejected_total{reason="too_large"}`]; got != 2 {
		t.Fatalf("too_large rejected counter = %d, want 2", got)
	}
}

func TestIngestBadEntryContinuesBatch(t *testing.T) {
	ch := &countingHandler{}
	reg := telemetry.NewRegistry()
	in := NewIngest(IngestConfig{Handle: ch.handle, Telemetry: reg})
	lines := entryLines(t, testEntry(0))
	lines = append(lines, []byte("{malformed json"))
	lines = append(lines, entryLines(t, testEntry(1))...)
	w, resp := postBatch(t, in.Handler(), id.NewGUID().String(), 0, gzBatch(t, lines))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (bad entries must not fail the batch)", w.Code)
	}
	if resp.Accepted != 2 || resp.Rejected != 1 {
		t.Fatalf("response %+v, want 2 accepted / 1 rejected", resp)
	}
	if got := reg.Snapshot().Counters[`logpipe_ingest_rejected_total{reason="bad_entry"}`]; got != 1 {
		t.Fatalf("bad_entry rejected counter = %d, want 1", got)
	}
}

func TestIngestHandlerRejectCounted(t *testing.T) {
	in := NewIngest(IngestConfig{Handle: func(id.GUID, *Entry) error {
		return fmt.Errorf("verification failed")
	}})
	w, resp := postBatch(t, in.Handler(), id.NewGUID().String(), 0,
		gzBatch(t, entryLines(t, testEntry(0), testEntry(1))))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: verification rejects must still ack the batch", w.Code)
	}
	if resp.Accepted != 0 || resp.Rejected != 2 {
		t.Fatalf("response %+v, want 0 accepted / 2 rejected", resp)
	}
}

func TestIngestBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	reg := telemetry.NewRegistry()
	in := NewIngest(IngestConfig{
		Telemetry: reg,
		Handle: func(id.GUID, *Entry) error {
			close(started)
			<-release
			return nil
		},
	})
	in.sem = make(chan struct{}, 1) // one batch in flight is the limit
	body := gzBatch(t, entryLines(t, testEntry(0)))
	done := make(chan struct{})
	go func() {
		defer close(done)
		postBatch(t, in.Handler(), id.NewGUID().String(), 0, body)
	}()
	<-started
	w, _ := postBatch(t, in.Handler(), id.NewGUID().String(), 1, body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second inflight batch: status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != ingestRetryAfter {
		t.Fatalf("Retry-After = %q, want the %ss hint", ra, ingestRetryAfter)
	}
	close(release)
	<-done
	if got := reg.Snapshot().Counters["logpipe_ingest_backpressure_total"]; got != 1 {
		t.Fatalf("backpressure counter = %d, want 1", got)
	}
}

// TestIngestTruncatedBatchBooksNothing: a batch whose gzip stream is cut off
// is refused whole, and each resend of it books nothing either; a refused
// batch that booked its complete prefix would book it again on every retry.
func TestIngestTruncatedBatchBooksNothing(t *testing.T) {
	ch := &countingHandler{}
	in := NewIngest(IngestConfig{Handle: ch.handle})
	body := gzBatch(t, entryLines(t, testEntry(0), testEntry(1), testEntry(2)))
	truncated := body[:len(body)-4] // every record intact, the gzip trailer cut
	guid := id.NewGUID().String()
	for attempt := 1; attempt <= 3; attempt++ {
		if w, _ := postBatch(t, in.Handler(), guid, 0, truncated); w.Code != http.StatusBadRequest {
			t.Fatalf("attempt %d: status %d, want 400", attempt, w.Code)
		}
		if ch.count() != 0 {
			t.Fatalf("attempt %d: handler booked %d entries from a refused batch", attempt, ch.count())
		}
	}
	// The intact batch under the same key is then booked once.
	if w, resp := postBatch(t, in.Handler(), guid, 0, body); w.Code != http.StatusOK || resp.Accepted != 3 {
		t.Fatalf("intact batch: status %d, response %+v", w.Code, resp)
	}
}

// TestIngestOversizedBatchBooksNothing: a batch refused with 413 for its
// decoded size books none of the records decoded before the cap tripped.
func TestIngestOversizedBatchBooksNothing(t *testing.T) {
	ch := &countingHandler{}
	in := NewIngest(IngestConfig{Handle: ch.handle})
	in.maxDecodedBytes = 100_000
	entries := make([]*Entry, 2000)
	for i := range entries {
		entries[i] = testEntry(i)
	}
	w, _ := postBatch(t, in.Handler(), id.NewGUID().String(), 0, gzBatch(t, entryLines(t, entries...)))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", w.Code)
	}
	if ch.count() != 0 {
		t.Fatalf("handler booked %d entries from a batch refused with 413", ch.count())
	}
}

// TestIngestInflightResendBackpressured: a resend of a batch whose first copy
// is still inside Handle is answered 429 with Retry-After rather than booked
// a second time; after the first copy is acked, the resend is a duplicate.
func TestIngestInflightResendBackpressured(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	booked := 0
	in := NewIngest(IngestConfig{Handle: func(id.GUID, *Entry) error {
		mu.Lock()
		booked++
		first := booked == 1
		mu.Unlock()
		if first {
			close(started)
			<-release
		}
		return nil
	}})
	guid := id.NewGUID().String()
	body := gzBatch(t, entryLines(t, testEntry(0)))
	done := make(chan struct{})
	go func() {
		defer close(done)
		postBatch(t, in.Handler(), guid, 5, body)
	}()
	<-started
	w, _ := postBatch(t, in.Handler(), guid, 5, body)
	close(release)
	<-done
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("in-flight resend: status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != ingestRetryAfter {
		t.Fatalf("Retry-After = %q, want %q", ra, ingestRetryAfter)
	}
	if w, resp := postBatch(t, in.Handler(), guid, 5, body); w.Code != http.StatusOK || !resp.Duplicate {
		t.Fatalf("resend after ack: status %d, response %+v, want duplicate", w.Code, resp)
	}
	mu.Lock()
	defer mu.Unlock()
	if booked != 1 {
		t.Fatalf("batch booked %d times, want 1", booked)
	}
}

// TestIngestFaultsInjected flips a fault injector on and off on a live
// endpoint, the mechanism the chaos harness uses to drive 503 storms.
func TestIngestFaultsInjected(t *testing.T) {
	ch := &countingHandler{}
	in := NewIngest(IngestConfig{Handle: ch.handle})
	body := gzBatch(t, entryLines(t, testEntry(0)))
	guid := id.NewGUID().String()

	in.SetFaults(faults.New(faults.Config{ErrorRate: 1}, nil))
	w, _ := postBatch(t, in.Handler(), guid, 0, body)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("injected error: status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("injected 503 carries no Retry-After hint")
	}

	in.SetFaults(faults.New(faults.Config{RejectRate: 1}, nil))
	if w, _ := postBatch(t, in.Handler(), guid, 0, body); w.Code != http.StatusTooManyRequests {
		t.Fatalf("injected reject: status %d, want 429", w.Code)
	}

	in.SetFaults(nil)
	if w, _ := postBatch(t, in.Handler(), guid, 0, body); w.Code != http.StatusOK {
		t.Fatalf("faults cleared: status %d, want 200", w.Code)
	}
	if ch.count() != 1 {
		t.Fatalf("handler saw %d entries, want 1 (faulted sends never reached it)", ch.count())
	}
}
