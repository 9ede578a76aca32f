package logpipe

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netsession/internal/retry"
	"netsession/internal/telemetry"
)

const (
	// uploadTimeout bounds one batch POST.
	uploadTimeout = 10 * time.Second
	// maxRetryAfter caps how long a server-sent Retry-After is honored.
	maxRetryAfter = 10 * time.Second
)

// UploaderConfig configures a spool uploader.
type UploaderConfig struct {
	// Spool is the durable segment source.
	Spool *Spool
	// URLs lists every control-plane node's operator HTTP base URL (the
	// surface that serves /metrics); batches POST to URL+BatchPath. The
	// uploader sticks to one until it fails (transport error or 5xx), then
	// rotates to the next — a dead CP node never wedges the pipeline, and the
	// cluster's shared dedup window turns the cross-node retry into
	// exactly-once ingestion.
	URLs []string
	// GUID identifies the uploading installation; together with each
	// segment's sequence number it forms the idempotent batch ID.
	GUID string
	// Interval is how often the loop seals and drains pending records; zero
	// selects 2s. Negative disables the loop entirely — batches then move
	// only on explicit Drain calls (tests and crash harnesses).
	Interval time.Duration
	// Telemetry registers the uploader's metrics; nil skips telemetry.
	Telemetry *telemetry.Registry
	// Logf receives debug logging; nil discards.
	Logf func(format string, args ...any)
}

// Uploader ships sealed spool segments to the control plane: batches are
// retried with jittered backoff, a persistently failing ingest endpoint
// trips a circuit breaker instead of being hammered, and server-sent
// backpressure (429 + Retry-After) is honored. Because batch IDs are
// idempotent and the cursor is written only after an acknowledgement, a
// crash at any point yields at-least-once delivery that the CP's dedup
// window turns into exactly-once ingestion.
type Uploader struct {
	cfg     UploaderConfig
	client  *http.Client
	breaker *retry.Breaker

	// urlIdx is the index into cfg.URLs of the node currently uploaded to;
	// it advances on transport errors and 5xx so retries land on another
	// node (the batch ID keeps the failover exactly-once).
	urlIdx atomic.Uint32

	uploaded      *telemetry.Counter
	uploadedRecs  *telemetry.Counter
	errors        *telemetry.Counter
	backpressure  *telemetry.Counter
	rejected      *telemetry.Counter
	breakerOpen   *telemetry.Counter
	drainDuration *telemetry.Histogram

	mu      sync.Mutex
	stopped bool
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

// StartUploader creates an uploader and, unless the interval is negative,
// starts its background drain loop.
func StartUploader(cfg UploaderConfig) (*Uploader, error) {
	if cfg.Spool == nil {
		return nil, fmt.Errorf("logpipe: uploader needs a spool")
	}
	if len(cfg.URLs) == 0 {
		return nil, fmt.Errorf("logpipe: uploader needs a control plane URL")
	}
	if cfg.Interval == 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	u := &Uploader{
		cfg:    cfg,
		client: &http.Client{Timeout: uploadTimeout},
		stopCh: make(chan struct{}),
	}
	if reg := cfg.Telemetry; reg != nil {
		u.uploaded = reg.Counter("logpipe_batches_uploaded_total",
			"log batches acknowledged by the control plane", nil)
		u.uploadedRecs = reg.Counter("logpipe_records_uploaded_total",
			"log records inside acknowledged batches", nil)
		u.errors = reg.Counter("logpipe_upload_errors_total",
			"failed log batch upload attempts", nil)
		u.backpressure = reg.Counter("logpipe_backpressure_honored_total",
			"429 responses honored by waiting out Retry-After", nil)
		u.rejected = reg.Counter("logpipe_batches_rejected_total",
			"log batches permanently rejected by the control plane and dropped", nil)
		u.breakerOpen = reg.Counter("logpipe_upload_breaker_trips_total",
			"ingest circuit-breaker trips", nil)
		u.drainDuration = reg.Histogram("logpipe_drain_ms",
			"time to drain the spool to the control plane in milliseconds",
			telemetry.DurationBucketsMs, nil)
	}
	u.breaker = retry.NewBreaker(retry.BreakerConfig{OnTrip: func() {
		if u.breakerOpen != nil {
			u.breakerOpen.Inc()
		}
	}})
	if cfg.Interval > 0 {
		u.wg.Add(1)
		go u.loop()
	}
	return u, nil
}

func (u *Uploader) loop() {
	defer u.wg.Done()
	t := time.NewTicker(u.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-u.stopCh:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			select {
			case <-u.stopCh:
				cancel()
			case <-ctx.Done():
			}
		}()
		if err := u.drainOnce(ctx); err != nil {
			u.cfg.Logf("logpipe: drain: %v", err)
		}
		cancel()
	}
}

// Stop halts the background loop without a final flush — the crash-safe
// spool already holds everything durably, so this is also what the
// SIGKILL-analogue Kill path uses.
func (u *Uploader) Stop() {
	u.mu.Lock()
	if !u.stopped {
		u.stopped = true
		close(u.stopCh)
	}
	u.mu.Unlock()
	u.wg.Wait()
}

// Drain seals pending records and uploads every sealed segment, honoring
// backpressure and breaker state, until the spool is empty, the context
// ends, or a terminal error occurs.
func (u *Uploader) Drain(ctx context.Context) error {
	start := time.Now()
	err := u.drainOnce(ctx)
	if err == nil && u.drainDuration != nil {
		u.drainDuration.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
	return err
}

func (u *Uploader) drainOnce(ctx context.Context) error {
	if err := u.cfg.Spool.Flush(); err != nil {
		return err
	}
	backoff := &retry.Backoff{Base: 100 * time.Millisecond, Max: 5 * time.Second}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch, ok, err := u.cfg.Spool.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		res, err := u.uploadBatch(ctx, batch)
		switch {
		case err == nil && res.retryAfter > 0:
			// Explicit backpressure: honor the server's pacing rather than
			// hammering it; the batch stays queued for the next attempt.
			if u.backpressure != nil {
				u.backpressure.Inc()
			}
			if err := sleepCtx(ctx, res.retryAfter); err != nil {
				return err
			}
		case err == nil && res.dropBatch:
			// The CP refuses this batch permanently (oversized); keeping it
			// would wedge the whole pipeline behind one poison segment.
			if u.rejected != nil {
				u.rejected.Inc()
			}
			u.cfg.Logf("logpipe: batch %d permanently rejected, dropping", batch.Seq)
			if err := u.cfg.Spool.MarkUploaded(batch.Seq); err != nil {
				return err
			}
			backoff.Reset()
		case err == nil:
			u.breaker.Success()
			if u.uploaded != nil {
				u.uploaded.Inc()
			}
			if u.uploadedRecs != nil {
				u.uploadedRecs.Add(int64(batch.Records))
			}
			if err := u.cfg.Spool.MarkUploaded(batch.Seq); err != nil {
				return err
			}
			backoff.Reset()
		default:
			if u.errors != nil {
				u.errors.Inc()
			}
			u.breaker.Failure()
			u.cfg.Logf("logpipe: upload batch %d: %v", batch.Seq, err)
			if err := sleepCtx(ctx, backoff.Next()); err != nil {
				return err
			}
		}
	}
}

// uploadResult classifies one upload attempt that got an HTTP response.
type uploadResult struct {
	retryAfter time.Duration // >0: server asked us to back off
	dropBatch  bool          // permanent rejection; drop the batch
}

// uploadBatch performs one POST. A nil error with zero fields means the
// batch was acknowledged (fresh or duplicate — both advance the cursor).
func (u *Uploader) uploadBatch(ctx context.Context, b Batch) (uploadResult, error) {
	if !u.breaker.Allow() {
		return uploadResult{}, fmt.Errorf("ingest breaker open")
	}
	base := u.cfg.URLs[int(u.urlIdx.Load())%len(u.cfg.URLs)]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+BatchPath, bytes.NewReader(b.Data))
	if err != nil {
		return uploadResult{}, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("Content-Encoding", "gzip")
	req.Header.Set(HeaderGUID, u.cfg.GUID)
	req.Header.Set(HeaderSeq, strconv.FormatUint(b.Seq, 10))
	resp, err := u.client.Do(req)
	if err != nil {
		u.rotate()
		return uploadResult{}, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNoContent:
		u.breaker.Success()
		return uploadResult{}, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		// Backpressure is the server working as designed, not a failure; it
		// must not trip the breaker.
		u.breaker.Success()
		return uploadResult{retryAfter: retryAfterOf(resp)}, nil
	case resp.StatusCode == http.StatusRequestEntityTooLarge:
		u.breaker.Success()
		return uploadResult{dropBatch: true}, nil
	default:
		u.rotate()
		return uploadResult{}, fmt.Errorf("ingest returned %s", resp.Status)
	}
}

// rotate moves the uploader to the next configured control-plane node. 429
// and 413 never rotate — backpressure and poison batches are the node
// working as designed, not a node failure.
func (u *Uploader) rotate() {
	if len(u.cfg.URLs) > 1 {
		u.urlIdx.Add(1)
	}
}

func retryAfterOf(resp *http.Response) time.Duration {
	d := time.Second
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	return min(d, maxRetryAfter)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
