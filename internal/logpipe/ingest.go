package logpipe

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netsession/internal/analysis"
	"netsession/internal/faults"
	"netsession/internal/id"
	"netsession/internal/telemetry"
)

// BatchPath is the ingest endpoint's URL path; uploaders POST sealed
// segments to it on the control plane's operator HTTP surface.
const BatchPath = "/v1/logs/batch"

// Batch identity travels in headers so the body stays exactly the segment
// bytes the spool sealed — idempotent resends are byte-identical.
const (
	HeaderGUID = "X-Logpipe-Guid"
	HeaderSeq  = "X-Logpipe-Seq"
)

// Limits on what the ingest endpoint accepts from outside the process. A
// batch body is capped at ingestMaxBatchBytes compressed and
// ingestMaxDecodedBytes decompressed; oversized batches are refused with
// 413, so a gzip bomb cannot expand in CN memory. At most ingestMaxInflight
// batches are processed at once; beyond that the endpoint answers 429 with
// a Retry-After of ingestRetryAfter seconds — explicit backpressure instead
// of queue growth.
const (
	ingestMaxBatchBytes   = 1 << 20
	ingestMaxDecodedBytes = 8 << 20
	ingestMaxInflight     = 4
	ingestRetryAfter      = "1"
)

// IngestConfig configures the control plane's log ingest endpoint.
type IngestConfig struct {
	// Handle processes one decoded entry from an accepted batch. A returned
	// error rejects that record (counted, not retryable); the batch is still
	// acknowledged — verification rejects must not wedge the uploader.
	Handle func(guid id.GUID, e *Entry) error
	// Acks is the batch-acknowledgement window this endpoint consults and
	// feeds for exactly-once ingestion across uploader crashes — a control
	// plane node's durable ack store, replicated by anti-entropy, so a batch
	// acked by one node and retried against the node that owns its GUID
	// after a failover still ingests exactly once. Nil gives the endpoint a
	// private in-memory store with the default window.
	Acks *AckStore
	// Telemetry registers the ingest metrics eagerly; nil skips telemetry.
	Telemetry *telemetry.Registry
}

// Ingest is the HTTP ingest endpoint for uploaded log batches. It enforces
// size caps, deduplicates resent batches by (GUID, sequence), sheds load
// with explicit 429 backpressure, and feeds each record to the configured
// handler. All methods are safe for concurrent use.
type Ingest struct {
	cfg IngestConfig

	// inflight holds the keys of the batches being ingested right now; a
	// resend arriving while its first copy is still inside Handle gets 429.
	inflight sync.Map
	// sem admits ingestMaxInflight batches; maxBatchBytes and maxDecodedBytes
	// are the size caps. Tests shrink them; nothing else changes them.
	sem             chan struct{}
	maxBatchBytes   int64
	maxDecodedBytes int64

	// inj is the runtime-settable fault injector (chaos tests flip it on and
	// off mid-run to drive 503 storms and stalls through a live endpoint).
	inj atomic.Pointer[faults.Injector]

	batches      *telemetry.Counter
	records      *telemetry.Counter
	deduped      *telemetry.Counter
	backpressure *telemetry.Counter
	rejTooLarge  *telemetry.Counter
	rejBadBatch  *telemetry.Counter
	rejBadEntry  *telemetry.Counter
}

// NewIngest creates an ingest endpoint.
func NewIngest(cfg IngestConfig) *Ingest {
	if cfg.Acks == nil {
		// A store without a dir is memory-only and cannot fail to open.
		cfg.Acks, _ = OpenAckStore("")
	}
	in := &Ingest{
		cfg:             cfg,
		sem:             make(chan struct{}, ingestMaxInflight),
		maxBatchBytes:   ingestMaxBatchBytes,
		maxDecodedBytes: ingestMaxDecodedBytes,
	}
	if reg := cfg.Telemetry; reg != nil {
		in.batches = reg.Counter("logpipe_ingest_batches_total",
			"log batches accepted by the ingest endpoint", nil)
		in.records = reg.Counter("logpipe_ingest_records_total",
			"log records accepted by the ingest endpoint", nil)
		in.deduped = reg.Counter("logpipe_ingest_deduped_total",
			"resent log batches dropped by the dedup window", nil)
		in.backpressure = reg.Counter("logpipe_ingest_backpressure_total",
			"log batches answered with 429 backpressure", nil)
		const rejName = "logpipe_ingest_rejected_total"
		const rejHelp = "log batches or records rejected by the ingest endpoint, by reason"
		in.rejTooLarge = reg.Counter(rejName, rejHelp, telemetry.Labels{"reason": "too_large"})
		in.rejBadBatch = reg.Counter(rejName, rejHelp, telemetry.Labels{"reason": "bad_batch"})
		in.rejBadEntry = reg.Counter(rejName, rejHelp, telemetry.Labels{"reason": "bad_entry"})
	}
	return in
}

// SetFaults installs (or, with nil, removes) a fault injector on the live
// endpoint: injected errors answer 503, injected latency stalls the
// response, injected rejects answer 429.
func (in *Ingest) SetFaults(inj *faults.Injector) { in.inj.Store(inj) }

// BatchResponse is the ingest endpoint's JSON reply.
type BatchResponse struct {
	Accepted  int  `json:"accepted"`
	Rejected  int  `json:"rejected"`
	Duplicate bool `json:"duplicate"`
}

// Handler returns the HTTP handler for POST BatchPath.
func (in *Ingest) Handler() http.Handler {
	return http.HandlerFunc(in.serve)
}

func (in *Ingest) serve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	inj := in.inj.Load()
	if d := inj.Latency(); d > 0 {
		time.Sleep(d)
	}
	if inj.Down() || inj.FailNext() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "ingest unavailable (injected)", http.StatusServiceUnavailable)
		return
	}
	if inj.RejectNext() {
		in.send429(w)
		return
	}
	select {
	case in.sem <- struct{}{}:
		defer func() { <-in.sem }()
	default:
		in.send429(w)
		return
	}

	guid, err := id.ParseGUID(r.Header.Get(HeaderGUID))
	if err != nil || guid.IsZero() {
		// The all-zeros GUID parses but would key every batch as
		// "<zeros>/seq" — and an empty dedup key can wedge the window's
		// eviction slot; reject the whole class at the door.
		in.inc(in.rejBadBatch)
		http.Error(w, "missing or invalid "+HeaderGUID, http.StatusBadRequest)
		return
	}
	seq, err := strconv.ParseUint(r.Header.Get(HeaderSeq), 10, 64)
	if err != nil {
		in.inc(in.rejBadBatch)
		http.Error(w, "missing or invalid "+HeaderSeq, http.StatusBadRequest)
		return
	}
	key := guid.String() + "/" + strconv.FormatUint(seq, 10)
	// Claim the key before the dedup check: the first copy marks its ack
	// before it releases the claim, so a resend either sees the claim or
	// sees the ack, never neither.
	if _, busy := in.inflight.LoadOrStore(key, true); busy {
		in.send429(w)
		return
	}
	defer in.inflight.Delete(key)
	acks := in.cfg.Acks
	if acks.Seen(key) {
		// The uploader crashed between our ack and its cursor write; its
		// resend is byte-identical, so acknowledging without re-ingesting
		// preserves exactly-once accounting.
		in.inc(in.deduped)
		writeJSON(w, BatchResponse{Duplicate: true})
		return
	}

	body := http.MaxBytesReader(w, r.Body, in.maxBatchBytes)
	raw, err := io.ReadAll(body)
	if err != nil {
		in.inc(in.rejTooLarge)
		http.Error(w, "batch exceeds compressed size cap", http.StatusRequestEntityTooLarge)
		return
	}
	accepted, rejected, err := in.ingest(guid, raw)
	if err != nil {
		if _, tooLarge := err.(*tooLargeError); tooLarge {
			in.inc(in.rejTooLarge)
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		in.inc(in.rejBadBatch)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	acks.Mark(key)
	in.inc(in.batches)
	if in.records != nil {
		in.records.Add(int64(accepted))
	}
	writeJSON(w, BatchResponse{Accepted: accepted, Rejected: rejected})
}

func (in *Ingest) send429(w http.ResponseWriter) {
	in.inc(in.backpressure)
	w.Header().Set("Retry-After", ingestRetryAfter)
	http.Error(w, "ingest backpressure; retry later", http.StatusTooManyRequests)
}

// tooLargeError marks decompressed-size violations.
type tooLargeError struct{ msg string }

func (e *tooLargeError) Error() string { return e.msg }

// ingest decodes a whole batch, then feeds each entry to the handler. A
// batch with transport-level damage (bad gzip, a truncated stream, over the
// decoded cap) is refused before any entry reaches the handler, so a refused
// batch books nothing and its resend cannot book a prefix twice. An entry
// that does not decode, or that the handler refuses, rejects just that
// record.
func (in *Ingest) ingest(guid id.GUID, raw []byte) (accepted, rejected int, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return 0, 0, fmt.Errorf("bad gzip batch: %w", err)
	}
	defer zr.Close()
	limited := io.LimitReader(zr, in.maxDecodedBytes+1)
	var decoded int64
	sc := bufio.NewScanner(io.TeeReader(limited, countWriter{&decoded}))
	sc.Buffer(make([]byte, 64<<10), analysis.MaxLineBytes)
	var entries []*Entry
	for sc.Scan() {
		if decoded > in.maxDecodedBytes {
			return 0, 0, &tooLargeError{"batch exceeds decoded size cap"}
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if e, derr := DecodeEntry(line); derr == nil {
			entries = append(entries, e)
		} else {
			rejected++
		}
	}
	if serr := sc.Err(); serr != nil {
		return 0, 0, fmt.Errorf("bad batch stream: %w", serr)
	}
	if decoded > in.maxDecodedBytes {
		return 0, 0, &tooLargeError{"batch exceeds decoded size cap"}
	}
	for _, e := range entries {
		if in.cfg.Handle != nil && in.cfg.Handle(guid, e) != nil {
			rejected++
			continue
		}
		accepted++
	}
	if in.rejBadEntry != nil {
		in.rejBadEntry.Add(int64(rejected))
	}
	return accepted, rejected, nil
}

func (in *Ingest) inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// countWriter tallies bytes flowing through a TeeReader.
type countWriter struct{ n *int64 }

func (c countWriter) Write(p []byte) (int, error) {
	*c.n += int64(len(p))
	return len(p), nil
}
