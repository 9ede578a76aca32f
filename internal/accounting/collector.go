package accounting

import (
	"errors"
	"fmt"
	"sync"

	"netsession/internal/content"
	"netsession/internal/id"
	"netsession/internal/telemetry"
)

// Sentinel causes for rejected download reports; LedgerVerifier wraps them so
// callers (and the per-reason reject counters) can classify failures with
// errors.Is.
var (
	// ErrUnauthorized marks a report for a download the edge never
	// authorized for that peer.
	ErrUnauthorized = errors.New("accounting: unauthorized download report")
	// ErrOverclaim marks a report claiming more infrastructure bytes than
	// the edge served.
	ErrOverclaim = errors.New("accounting: infra byte overclaim")
)

// Verifier cross-checks a client-submitted download report against trusted
// edge-server data before it enters the billing log (§3.5). Implementations
// must be safe for concurrent use.
type Verifier interface {
	// CheckDownload returns a non-nil error when the report must be
	// rejected as a suspected accounting attack.
	CheckDownload(rec *DownloadRecord) error
}

// EdgeData is the subset of the edge tier's ledger the verifier needs;
// *edge.Ledger satisfies it.
type EdgeData interface {
	Authorized(g id.GUID, obj content.ObjectID) bool
	Served(g id.GUID, obj content.ObjectID) int64
}

// LedgerVerifier validates reports against the edge ledger: the download
// must have been authorized, and the claimed infrastructure bytes cannot
// exceed what the edge actually served (plus a small slack for retries and
// rounding).
type LedgerVerifier struct {
	Edge EdgeData
	// SlackBytes tolerates bookkeeping skew; defaults to one piece.
	SlackBytes int64
}

// CheckDownload implements Verifier.
func (v *LedgerVerifier) CheckDownload(rec *DownloadRecord) error {
	if !v.Edge.Authorized(rec.GUID, rec.Object) {
		return fmt.Errorf("%w: peer %s reports download of %v",
			ErrUnauthorized, rec.GUID.Short(), rec.Object)
	}
	slack := v.SlackBytes
	if slack == 0 {
		slack = content.DefaultPieceSize
	}
	if served := v.Edge.Served(rec.GUID, rec.Object); rec.BytesInfra > served+slack {
		return fmt.Errorf("%w: peer %s claims %d infra bytes, edge served %d",
			ErrOverclaim, rec.GUID.Short(), rec.BytesInfra, served)
	}
	return nil
}

// defaultMaxRecords is the in-memory cap per record kind: with the durable
// segment store holding the full history, the collector only needs a recent
// window for tests and the in-process cluster's accounting snapshot.
const defaultMaxRecords = 65536

// ringBlock is how many records one block of a ring holds.
const ringBlock = 1024

// ring is a bounded FIFO over records: past its cap, each push evicts the
// oldest entry so CN memory stays constant no matter how long the process
// accepts reports. cap <= 0 means unbounded. Records live in fixed-size
// blocks, so growing by one block never copies what is held nor allocates
// more than one block ahead: a doubling slice would hold the old and the new
// array at once and leave up to half of the new one unused.
type ring[T any] struct {
	cap     int
	blocks  [][]T
	n       int // records held
	start   int // index of the oldest record
	evicted int64
}

func (r *ring[T]) at(i int) *T { return &r.blocks[i/ringBlock][i%ringBlock] }

func (r *ring[T]) push(v T) (evicted bool) {
	if r.cap <= 0 || r.n < r.cap {
		if r.n%ringBlock == 0 {
			size := ringBlock
			if r.cap > 0 {
				size = min(size, r.cap-r.n)
			}
			r.blocks = append(r.blocks, make([]T, 0, size))
		}
		last := &r.blocks[len(r.blocks)-1]
		*last = append(*last, v)
		r.n++
		return false
	}
	*r.at(r.start) = v
	r.start = (r.start + 1) % r.n
	r.evicted++
	return true
}

func (r *ring[T]) len() int { return r.n }

// snapshot copies the ring oldest-first.
func (r *ring[T]) snapshot() []T {
	out := make([]T, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, *r.at((r.start + i) % r.n))
	}
	return out
}

// collectorMetrics are the collector's eagerly-registered series: every kind
// and reject reason appears in /metrics at zero before the first report.
type collectorMetrics struct {
	downloads     *telemetry.Counter
	logins        *telemetry.Counter
	registrations *telemetry.Counter

	rejUnauthorized *telemetry.Counter
	rejOverclaim    *telemetry.Counter
	rejOther        *telemetry.Counter

	evicted *telemetry.Counter
	logSize *telemetry.Gauge
}

func newCollectorMetrics(reg *telemetry.Registry) *collectorMetrics {
	if reg == nil {
		return nil
	}
	const recName = "accounting_records_total"
	const recHelp = "usage records accepted into the accounting log, by kind"
	const rejName = "accounting_rejected_total"
	const rejHelp = "download reports rejected by verification, by reason"
	return &collectorMetrics{
		downloads:     reg.Counter(recName, recHelp, telemetry.Labels{"kind": "download"}),
		logins:        reg.Counter(recName, recHelp, telemetry.Labels{"kind": "login"}),
		registrations: reg.Counter(recName, recHelp, telemetry.Labels{"kind": "registration"}),

		rejUnauthorized: reg.Counter(rejName, rejHelp, telemetry.Labels{"reason": "unauthorized"}),
		rejOverclaim:    reg.Counter(rejName, rejHelp, telemetry.Labels{"reason": "overclaim"}),
		rejOther:        reg.Counter(rejName, rejHelp, telemetry.Labels{"reason": "other"}),

		evicted: reg.Counter("accounting_evicted_total",
			"old records evicted from the bounded in-memory log", nil),
		logSize: reg.Gauge("accounting_log_records",
			"records currently held in the in-memory accounting log", nil),
	}
}

// Collector is the CN-side accumulation point for usage records. It filters
// forged download reports through the verifier (if any) and keeps a bounded
// in-memory window of the accepted log for billing and analysis; durable
// history belongs to the logpipe segment store, not this process's heap.
type Collector struct {
	verifier Verifier

	mu            sync.Mutex
	downloads     ring[DownloadRecord]
	logins        ring[LoginRecord]
	registrations ring[RegistrationRecord]
	rejected      int
	metrics       *collectorMetrics
}

// NewCollector creates a collector with the default cap and no telemetry;
// verifier may be nil to accept all reports (the simulator trusts its own
// synthetic reports). Use Configure to change the cap or attach a registry.
func NewCollector(verifier Verifier) *Collector {
	c := &Collector{verifier: verifier}
	c.Configure(0, nil)
	return c
}

// Configure sets the in-memory cap, the same for every record kind, and
// (re)binds telemetry. Zero selects the default cap; a negative max keeps
// every record. It is meant for setup time: records already held are kept but
// not re-trimmed until the next push of their kind.
func (c *Collector) Configure(max int, reg *telemetry.Registry) {
	if max == 0 {
		max = defaultMaxRecords
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.downloads.cap = max
	c.logins.cap = max
	c.registrations.cap = max
	if reg != nil {
		c.metrics = newCollectorMetrics(reg)
	}
}

// AddDownload records a download report, returning an error if it was
// rejected: for a negative size or count, with or without a verifier, or by
// verification.
func (c *Collector) AddDownload(rec DownloadRecord) error {
	err := checkNonNegative(&rec)
	if err == nil && c.verifier != nil {
		err = c.verifier.CheckDownload(&rec)
	}
	if err != nil {
		c.mu.Lock()
		c.rejected++
		m := c.metrics
		c.mu.Unlock()
		if m != nil {
			switch {
			case errors.Is(err, ErrUnauthorized):
				m.rejUnauthorized.Inc()
			case errors.Is(err, ErrOverclaim):
				m.rejOverclaim.Inc()
			default:
				m.rejOther.Inc()
			}
		}
		return err
	}
	c.mu.Lock()
	c.finishPush(c.downloads.push(rec), c.metrics.downloadsCounter())
	c.mu.Unlock()
	return nil
}

// checkNonNegative refuses a record whose sizes or counts are negative: it
// would subtract from billing and analytics, and the verifier's overclaim
// bound only looks upward.
func checkNonNegative(rec *DownloadRecord) error {
	bad := rec.Size < 0 || rec.BytesInfra < 0 || rec.BytesPeers < 0 || rec.PeersReturned < 0
	for _, pc := range rec.FromPeers {
		bad = bad || pc.Bytes < 0
	}
	if bad {
		return fmt.Errorf("accounting: peer %s reports negative sizes for %v", rec.GUID.Short(), rec.Object)
	}
	return nil
}

// AddLogin records a login.
func (c *Collector) AddLogin(rec LoginRecord) {
	c.mu.Lock()
	c.finishPush(c.logins.push(rec), c.metrics.loginsCounter())
	c.mu.Unlock()
}

// AddRegistration records a DN registration event.
func (c *Collector) AddRegistration(rec RegistrationRecord) {
	c.mu.Lock()
	c.finishPush(c.registrations.push(rec), c.metrics.registrationsCounter())
	c.mu.Unlock()
}

// finishPush updates the accepted-record telemetry; callers hold c.mu.
func (c *Collector) finishPush(evicted bool, kind *telemetry.Counter) {
	if c.metrics == nil {
		return
	}
	if kind != nil {
		kind.Inc()
	}
	if evicted {
		c.metrics.evicted.Inc()
	}
	c.metrics.logSize.Set(float64(c.downloads.len() + c.logins.len() + c.registrations.len()))
}

func (m *collectorMetrics) downloadsCounter() *telemetry.Counter {
	if m == nil {
		return nil
	}
	return m.downloads
}

func (m *collectorMetrics) loginsCounter() *telemetry.Counter {
	if m == nil {
		return nil
	}
	return m.logins
}

func (m *collectorMetrics) registrationsCounter() *telemetry.Counter {
	if m == nil {
		return nil
	}
	return m.registrations
}

// Rejected returns how many download reports verification filtered out.
func (c *Collector) Rejected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rejected
}

// Evicted returns how many accepted records the bounded log has discarded.
func (c *Collector) Evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.downloads.evicted + c.logins.evicted + c.registrations.evicted
}

// AcceptedDownloads returns how many download reports were accepted in
// total: those still retained plus those the bounded log has evicted.
func (c *Collector) AcceptedDownloads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.downloads.len() + int(c.downloads.evicted)
}

// Snapshot returns a copy of the retained (in-memory window of the) accepted
// log, oldest record first.
func (c *Collector) Snapshot() *Log {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Log{
		Downloads:     c.downloads.snapshot(),
		Logins:        c.logins.snapshot(),
		Registrations: c.registrations.snapshot(),
	}
}
