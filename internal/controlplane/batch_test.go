package controlplane

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"netsession/internal/accounting"
	"netsession/internal/cluster"
	"netsession/internal/content"
	"netsession/internal/id"
	"netsession/internal/logpipe"
)

// entryHold is a collector verifier that parks every record of one GUID
// inside ingest until released — a batch whose first copy is still being
// booked, its ack not yet marked.
type entryHold struct {
	guid    id.GUID
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newEntryHold(t *testing.T, guid id.GUID) *entryHold {
	h := &entryHold{guid: guid, entered: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(h.let)
	return h
}

func (h *entryHold) CheckDownload(rec *accounting.DownloadRecord) error {
	if rec.GUID == h.guid {
		h.once.Do(func() { close(h.entered) })
		<-h.release
	}
	return nil
}

// let releases every held record; safe to call more than once.
func (h *entryHold) let() {
	select {
	case <-h.release:
	default:
		close(h.release)
	}
}

// guidOwnedBy returns a fresh GUID that the ring over ids assigns to owner.
func guidOwnedBy(t *testing.T, owner string, ids ...string) id.GUID {
	t.Helper()
	ring := cluster.NewRing(ids)
	for i := 0; i < 1000; i++ {
		g := id.NewGUID()
		if o, _ := ring.Owner(g.String()); o == owner {
			return g
		}
	}
	t.Fatalf("no GUID owned by %s in 1000 tries", owner)
	return id.GUID{}
}

// postBatch uploads a one-record batch for guid, following redirects the
// way the uploader does, and returns the final status and reply; the status
// is 0 when the node could not be reached.
func postBatch(t *testing.T, statusURL string, guid id.GUID, seq int) (int, logpipe.BatchResponse) {
	t.Helper()
	line, err := logpipe.EncodeEntry(usageEntry(content.NewObjectID(7, "file", 1), 1000, 1000, nil))
	if err != nil {
		t.Fatal(err)
	}
	body, err := logpipe.MarshalSegment([][]byte{line})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, statusURL+logpipe.BatchPath, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(logpipe.HeaderGUID, guid.String())
	req.Header.Set(logpipe.HeaderSeq, strconv.Itoa(seq))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, logpipe.BatchResponse{}
	}
	defer resp.Body.Close()
	var br logpipe.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Error(err)
		}
	}
	return resp.StatusCode, br
}

func booked(nodes ...*Node) int {
	n := 0
	for _, node := range nodes {
		n += node.cp.Collector().AcceptedDownloads()
	}
	return n
}

// TestResendToSecondNodeBooksOnce: a batch's first copy is still inside
// ingest on node A, the GUID's ring owner, when the uploader's resend lands
// on node B. B must not book it: it sends the resend to A, whose in-flight
// claim answers 429, and once A finishes, the batch is booked exactly once
// cluster-wide and every later resend is a duplicate.
func TestResendToSecondNodeBooksOnce(t *testing.T) {
	guid := guidOwnedBy(t, "cp-a", "cp-a", "cp-b")
	held := newEntryHold(t, guid)
	a := startTestNode(t, func(c *Config) {
		c.NodeID = "cp-a"
		c.Collector = accounting.NewCollector(held)
	})
	b := startTestNode(t, func(c *Config) {
		c.NodeID = "cp-b"
		c.Seeds = []cluster.Node{{ID: a.ID(), StatusURL: a.StatusURL()}}
	})

	first := make(chan logpipe.BatchResponse, 1)
	go func() {
		_, br := postBatch(t, a.StatusURL(), guid, 1)
		first <- br
	}()
	<-held.entered
	if code, br := postBatch(t, b.StatusURL(), guid, 1); code == http.StatusOK && br.Accepted > 0 {
		t.Errorf("node B booked the resend (%+v) while node A was still ingesting the first copy", br)
	}
	held.let()
	if br := <-first; br.Accepted != 1 {
		t.Errorf("first copy answered %+v, want 1 accepted", br)
	}
	if code, br := postBatch(t, b.StatusURL(), guid, 1); code != http.StatusOK || !br.Duplicate {
		t.Errorf("resend after the ack: %d %+v, want a duplicate", code, br)
	}
	if n := booked(a, b); n != 1 {
		t.Fatalf("the batch was booked %d times cluster-wide, want 1", n)
	}
	if got := b.cp.Metrics().Snapshot().Counters["cp_log_batches_redirected_total"]; got != 2 {
		t.Errorf("node B redirected %d batches, want 2 (both resends)", got)
	}
}

// TestDrainFlushesBatchInIngest: a batch inside ingest when its node starts
// to drain is acked before the drain reads its ack window, so the survivor
// holds the ack and a resend there is a duplicate. Batches that arrive once
// the drain has begun are refused with 503 and retried elsewhere.
func TestDrainFlushesBatchInIngest(t *testing.T) {
	guid := guidOwnedBy(t, "cp-a", "cp-a", "cp-b")
	held := newEntryHold(t, guid)
	a := startTestNode(t, func(c *Config) {
		c.NodeID = "cp-a"
		c.Collector = accounting.NewCollector(held)
	})
	b := startTestNode(t, func(c *Config) {
		c.NodeID = "cp-b"
		c.Seeds = []cluster.Node{{ID: a.ID(), StatusURL: a.StatusURL()}}
	})

	first := make(chan logpipe.BatchResponse, 1)
	go func() {
		_, br := postBatch(t, a.StatusURL(), guid, 1)
		first <- br
	}()
	<-held.entered
	drained := make(chan DrainSummary, 1)
	go func() {
		sum, _ := a.Drain()
		drained <- sum
	}()
	other := guidOwnedBy(t, "cp-a", "cp-a", "cp-b")
	refused := eventually(2*time.Second, func() bool {
		code, _ := postBatch(t, a.StatusURL(), other, 1)
		return code == http.StatusServiceUnavailable
	})
	held.let()
	if br := <-first; br.Accepted != 1 {
		t.Errorf("held batch answered %+v, want 1 accepted", br)
	}
	sum := <-drained
	key := guid.String() + "/1"
	if !b.cp.acks.Seen(key) {
		t.Fatalf("survivor lacks the ack of the batch that was inside ingest when the drain began (%d acks flushed)", sum.AcksFlushed)
	}
	if !refused {
		t.Error("a batch posted after the drain began was never refused with 503")
	}
	if code, br := postBatch(t, b.StatusURL(), guid, 1); code != http.StatusOK || !br.Duplicate {
		t.Errorf("resend to the survivor: %d %+v, want a duplicate", code, br)
	}
}
