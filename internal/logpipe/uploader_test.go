package logpipe

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"netsession/internal/id"
	"netsession/internal/telemetry"
)

// testPipe wires a real spool, a real ingest endpoint, and an uploader with
// the background loop disabled, so tests drive every drain explicitly.
type testPipe struct {
	spool    *Spool
	ingest   *Ingest
	server   *httptest.Server
	uploader *Uploader
	handled  *countingHandler
	reg      *telemetry.Registry
}

func newTestPipe(t *testing.T, spoolDir string) *testPipe {
	t.Helper()
	p := &testPipe{handled: &countingHandler{}, reg: telemetry.NewRegistry()}
	p.ingest = NewIngest(IngestConfig{Handle: p.handled.handle, Telemetry: p.reg})
	mux := http.NewServeMux()
	mux.Handle("POST "+BatchPath, p.ingest.Handler())
	p.server = httptest.NewServer(mux)
	t.Cleanup(p.server.Close)

	var err error
	p.spool, err = OpenSpool(SpoolConfig{Dir: spoolDir, Telemetry: p.reg})
	if err != nil {
		t.Fatal(err)
	}
	p.uploader, err = StartUploader(UploaderConfig{
		Spool: p.spool, URLs: []string{p.server.URL}, GUID: id.NewGUID().String(),
		Interval: -1, Telemetry: p.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.uploader.Stop)
	return p
}

func TestUploaderDrains(t *testing.T) {
	p := newTestPipe(t, t.TempDir())
	for i := 0; i < 5; i++ {
		if err := p.spool.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.uploader.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if p.handled.count() != 5 {
		t.Fatalf("ingest handled %d entries, want 5", p.handled.count())
	}
	if sealed, open := p.spool.Pending(); sealed != 0 || open != 0 {
		t.Fatalf("spool not drained: sealed=%d open=%d", sealed, open)
	}
	snap := p.reg.Snapshot()
	if got := snap.Counters["logpipe_records_uploaded_total"]; got != 5 {
		t.Fatalf("records uploaded counter = %d, want 5", got)
	}
	if got := snap.Counters["logpipe_ingest_records_total"]; got != 5 {
		t.Fatalf("ingest records counter = %d, want 5", got)
	}
}

// TestUploaderTornSegmentBookedOnce: a sealed segment with a torn tail is
// uploaded as an intact batch of its complete records, booked exactly once,
// and drained; the torn bytes themselves would be refused on every retry.
func TestUploaderTornSegmentBookedOnce(t *testing.T) {
	dir := t.TempDir()
	p := newTestPipe(t, dir)
	for i := 0; i < 5; i++ {
		if err := p.spool.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.spool.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil || len(segs) != 1 || segs[0].Open {
		t.Fatalf("want one sealed segment, got %+v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0].Path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	lines, err := ReadSegmentFile(segs[0].Path)
	if err != ErrTorn || len(lines) == 0 {
		t.Fatalf("planted segment: %d lines, err %v; want a torn tail after complete lines", len(lines), err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.uploader.Drain(ctx); err != nil {
		t.Fatalf("drain: %v (booked %d)", err, p.handled.count())
	}
	if p.handled.count() != len(lines) {
		t.Fatalf("ingest booked %d entries, want the %d complete ones once", p.handled.count(), len(lines))
	}
	if sealed, open := p.spool.Pending(); sealed != 0 || open != 0 {
		t.Fatalf("spool not drained: sealed=%d open=%d", sealed, open)
	}
}

// TestUploaderCrashResendDeduped replays the ack-before-cursor crash: a
// snapshot of the spool taken before the drain is re-uploaded by a second
// uploader with the same GUID, and the ingest dedup window must keep the
// accounting at exactly-once.
func TestUploaderCrashResendDeduped(t *testing.T) {
	dir := t.TempDir()
	p := newTestPipe(t, dir)
	for i := 0; i < 3; i++ {
		if err := p.spool.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.spool.Flush(); err != nil {
		t.Fatal(err)
	}
	// Snapshot the sealed-but-unacknowledged spool state — what the disk
	// would hold if the process died after the CP's ack but before the
	// cursor write.
	snapDir := t.TempDir()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(snapDir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.uploader.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if p.handled.count() != 3 {
		t.Fatalf("ingest handled %d entries, want 3", p.handled.count())
	}

	// "Restart" from the snapshot: same GUID, pre-ack spool contents.
	spool2, err := OpenSpool(SpoolConfig{Dir: snapDir})
	if err != nil {
		t.Fatal(err)
	}
	up2, err := StartUploader(UploaderConfig{
		Spool: spool2, URLs: []string{p.server.URL}, GUID: p.uploader.cfg.GUID,
		Interval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up2.Stop()
	if err := up2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if p.handled.count() != 3 {
		t.Fatalf("ingest handled %d entries after resend, want still 3 (exactly-once)", p.handled.count())
	}
	if got := p.reg.Snapshot().Counters["logpipe_ingest_deduped_total"]; got != 1 {
		t.Fatalf("deduped counter = %d, want 1", got)
	}
	if sealed, _ := spool2.Pending(); sealed != 0 {
		t.Fatalf("resent spool not drained: %d sealed segments left", sealed)
	}
}

// TestUploaderHonorsBackpressure verifies a 429 + Retry-After pauses the
// uploader (without tripping its breaker) and the batch goes through on the
// next attempt.
// TestUploaderFailsOverAcrossURLs points the uploader at a dead node first:
// the transport error rotates it to the live node and the drain completes —
// a single dead CP never strands the pipeline.
func TestUploaderFailsOverAcrossURLs(t *testing.T) {
	handled := &countingHandler{}
	reg := telemetry.NewRegistry()
	ingest := NewIngest(IngestConfig{Handle: handled.handle})
	mux := http.NewServeMux()
	mux.Handle("POST "+BatchPath, ingest.Handler())
	live := httptest.NewServer(mux)
	defer live.Close()
	// A listener that is already closed refuses connections immediately.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	spool, err := OpenSpool(SpoolConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	up, err := StartUploader(UploaderConfig{
		Spool: spool, URLs: []string{deadURL, live.URL},
		GUID: id.NewGUID().String(), Interval: -1, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Stop()
	for i := 0; i < 3; i++ {
		if err := spool.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := up.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if handled.count() != 3 {
		t.Fatalf("live node handled %d entries, want 3", handled.count())
	}
	snap := reg.Snapshot()
	if snap.Counters["logpipe_upload_errors_total"] == 0 {
		t.Fatal("expected at least one failed attempt against the dead node")
	}
	if sealed, open := spool.Pending(); sealed != 0 || open != 0 {
		t.Fatalf("spool not drained: sealed=%d open=%d", sealed, open)
	}
}

// TestUploaderRedirectLoopRotates: a node that does not own the uploader's
// GUID redirects the batch to the owner, and the uploader follows one such
// hop with the body and batch headers intact. Two nodes whose ring views
// disagree would redirect to each other forever; the second hop fails the
// attempt instead, and the uploader rotates to its next URL as it does past
// a dead node.
func TestUploaderRedirectLoopRotates(t *testing.T) {
	handled := &countingHandler{}
	reg := telemetry.NewRegistry()
	owner := httptest.NewServer(NewIngest(IngestConfig{Handle: handled.handle}).Handler())
	defer owner.Close()
	var hitsA, hitsB, hitsR atomic.Int32
	var loopA, loopB *httptest.Server
	redirect := func(hits *atomic.Int32, to func() string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			http.Redirect(w, r, to()+BatchPath, http.StatusTemporaryRedirect)
		}
	}
	loopA = httptest.NewServer(redirect(&hitsA, func() string { return loopB.URL }))
	defer loopA.Close()
	loopB = httptest.NewServer(redirect(&hitsB, func() string { return loopA.URL }))
	defer loopB.Close()
	toOwner := httptest.NewServer(redirect(&hitsR, func() string { return owner.URL }))
	defer toOwner.Close()

	spool, err := OpenSpool(SpoolConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	up, err := StartUploader(UploaderConfig{
		Spool: spool, URLs: []string{loopA.URL, toOwner.URL},
		GUID: id.NewGUID().String(), Interval: -1, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Stop()
	for i := 0; i < 3; i++ {
		if err := spool.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := up.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if a, b := hitsA.Load(), hitsB.Load(); a != 1 || b != 1 {
		t.Errorf("redirect loop saw %d+%d requests, want 1+1 (one hop, then rotate)", a, b)
	}
	if got := reg.Snapshot().Counters["logpipe_upload_errors_total"]; got != 1 {
		t.Errorf("upload errors = %d, want 1 (the looping attempt)", got)
	}
	if hitsR.Load() != 1 || handled.count() != 3 {
		t.Errorf("redirect to the owner: %d requests, owner booked %d entries; want 1 and 3", hitsR.Load(), handled.count())
	}
	if sealed, open := spool.Pending(); sealed != 0 || open != 0 {
		t.Fatalf("spool not drained: sealed=%d open=%d", sealed, open)
	}
}

func TestUploaderHonorsBackpressure(t *testing.T) {
	var rejected atomic.Int32
	reg := telemetry.NewRegistry()
	handled := &countingHandler{}
	ingest := NewIngest(IngestConfig{Handle: handled.handle})
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+BatchPath, func(w http.ResponseWriter, r *http.Request) {
		if rejected.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "backpressure", http.StatusTooManyRequests)
			return
		}
		ingest.Handler().ServeHTTP(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	spool, err := OpenSpool(SpoolConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	up, err := StartUploader(UploaderConfig{
		Spool: spool, URLs: []string{srv.URL}, GUID: id.NewGUID().String(),
		Interval: -1, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Stop()

	if err := spool.Append(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := up.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if handled.count() != 1 {
		t.Fatalf("ingest handled %d entries, want 1 after the backpressure wait", handled.count())
	}
	snap := reg.Snapshot()
	if got := snap.Counters["logpipe_backpressure_honored_total"]; got != 1 {
		t.Fatalf("backpressure honored counter = %d, want 1", got)
	}
	if got := snap.Counters["logpipe_upload_breaker_trips_total"]; got != 0 {
		t.Fatalf("breaker tripped %d times on backpressure; 429 must not count as failure", got)
	}
}

// TestUploaderDropsRejectedBatch verifies a 413 (permanent rejection) drops
// the batch instead of wedging the pipeline behind it.
func TestUploaderDropsRejectedBatch(t *testing.T) {
	reg := telemetry.NewRegistry()
	handled := &countingHandler{}
	ingest := NewIngest(IngestConfig{Handle: handled.handle})
	ingest.maxBatchBytes = 32
	mux := http.NewServeMux()
	mux.Handle("POST "+BatchPath, ingest.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	spool, err := OpenSpool(SpoolConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	spool.w.maxRecords = 4
	up, err := StartUploader(UploaderConfig{
		Spool: spool, URLs: []string{srv.URL}, GUID: id.NewGUID().String(),
		Interval: -1, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Stop()

	// First batch exceeds the CP's 32-byte compressed cap; the second is
	// empty only if the first wedges. Both must clear the spool.
	for i := 0; i < 4; i++ {
		if err := spool.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := up.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if sealed, _ := spool.Pending(); sealed != 0 {
		t.Fatalf("%d sealed segments left behind a permanently rejected batch", sealed)
	}
	if got := reg.Snapshot().Counters["logpipe_batches_rejected_total"]; got != 1 {
		t.Fatalf("rejected batches counter = %d, want 1", got)
	}
	if handled.count() != 0 {
		t.Fatalf("ingest handled %d entries from a rejected batch", handled.count())
	}
}

// TestUploaderRetriesServerErrors verifies transient 5xx responses are
// retried with backoff until the endpoint recovers.
func TestUploaderRetriesServerErrors(t *testing.T) {
	var calls atomic.Int32
	reg := telemetry.NewRegistry()
	handled := &countingHandler{}
	ingest := NewIngest(IngestConfig{Handle: handled.handle})
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+BatchPath, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		ingest.Handler().ServeHTTP(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	spool, err := OpenSpool(SpoolConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	up, err := StartUploader(UploaderConfig{
		Spool: spool, URLs: []string{srv.URL}, GUID: id.NewGUID().String(),
		Interval: -1, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Stop()

	if err := spool.Append(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := up.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if handled.count() != 1 {
		t.Fatalf("ingest handled %d entries, want 1 after retries", handled.count())
	}
	if got := reg.Snapshot().Counters["logpipe_upload_errors_total"]; got != 2 {
		t.Fatalf("upload errors counter = %d, want 2", got)
	}
}

// TestUploaderBreakerTripsAndRecovers drives a hard outage until the breaker
// opens, then restores the endpoint and verifies the half-open probe drains
// the spool.
func TestUploaderBreakerTripsAndRecovers(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	reg := telemetry.NewRegistry()
	handled := &countingHandler{}
	ingest := NewIngest(IngestConfig{Handle: handled.handle})
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+BatchPath, func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "outage", http.StatusServiceUnavailable)
			return
		}
		ingest.Handler().ServeHTTP(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	spool, err := OpenSpool(SpoolConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	up, err := StartUploader(UploaderConfig{
		Spool: spool, URLs: []string{srv.URL}, GUID: id.NewGUID().String(),
		Interval: -1, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Stop()

	if err := spool.Append(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	stormCtx, cancelStorm := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	err = up.Drain(stormCtx)
	cancelStorm()
	if err == nil {
		t.Fatal("drain succeeded against a hard-down endpoint")
	}
	if got := reg.Snapshot().Counters["logpipe_upload_breaker_trips_total"]; got == 0 {
		t.Fatal("breaker never tripped during the outage")
	}

	down.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := up.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if handled.count() != 1 {
		t.Fatalf("ingest handled %d entries after recovery, want 1", handled.count())
	}
	if sealed, _ := spool.Pending(); sealed != 0 {
		t.Fatalf("spool not drained after recovery: %d sealed segments", sealed)
	}
}
