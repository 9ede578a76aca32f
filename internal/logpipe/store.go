package logpipe

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"netsession/internal/analysis"
	"netsession/internal/telemetry"
)

// The store rotates its open segment at storeSegmentRecords records or
// storeSegmentBytes uncompressed bytes; the record count is also the bound on
// how many accepted records the CN holds in memory for the current segment.
const (
	storeSegmentRecords = 4096
	storeSegmentBytes   = 4 << 20
)

// StoreConfig configures the control plane's on-disk log segment store.
type StoreConfig struct {
	// Dir holds the rotated segments.
	Dir string
	// Telemetry registers the store's metrics; nil skips telemetry.
	Telemetry *telemetry.Registry
}

// Store is the append-only, rotated segment store the control plane spills
// accepted log records into (§4.1: the infrastructure keeps the month of
// logs that every analysis reads). Memory held is bounded by one segment's
// rotation threshold regardless of how long the process runs. All methods
// are safe for concurrent use.
type Store struct {
	cfg StoreConfig

	mu     sync.Mutex
	w      segWriter
	closed bool

	records  *telemetry.Counter
	segments *telemetry.Counter
	errors   *telemetry.Counter
}

// OpenStore opens (creating if needed) a store directory. A leftover open
// segment from a crashed process is sealed so its records are preserved.
func OpenStore(cfg StoreConfig) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("logpipe: store dir required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("logpipe: store dir: %w", err)
	}
	st := &Store{cfg: cfg}
	if reg := cfg.Telemetry; reg != nil {
		st.records = reg.Counter("logpipe_store_records_total",
			"accepted log records spilled to the segment store", nil)
		st.segments = reg.Counter("logpipe_store_segments_sealed_total",
			"log segments sealed by the store", nil)
		st.errors = reg.Counter("logpipe_store_errors_total",
			"failed segment store writes", nil)
	}
	segs, err := ListSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	var next uint64
	for _, sf := range segs {
		if sf.Open {
			if err := os.Rename(sf.Path, segmentPathSealed(cfg.Dir, sf.Seq)); err != nil {
				return nil, fmt.Errorf("logpipe: seal recovered store segment: %w", err)
			}
		}
		if sf.Seq+1 > next {
			next = sf.Seq + 1
		}
	}
	st.w = segWriter{
		dir: cfg.Dir, seq: next,
		maxRecords: storeSegmentRecords, maxBytes: storeSegmentBytes,
	}
	return st, nil
}

func segmentPathSealed(dir string, seq uint64) string {
	return filepath.Join(dir, segmentName(seq))
}

// Append durably adds records to the current segment, rotating when it
// reaches the segment thresholds.
func (s *Store) Append(recs ...analysis.OfflineDownload) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("logpipe: store closed")
	}
	for i := range recs {
		line, err := json.Marshal(&recs[i])
		if err != nil {
			s.countError()
			return fmt.Errorf("logpipe: marshal store record: %w", err)
		}
		full, err := s.w.append(line)
		if err != nil {
			s.countError()
			return err
		}
		if s.records != nil {
			s.records.Inc()
		}
		if full {
			if _, _, err := s.w.seal(); err != nil {
				s.countError()
				return err
			}
			if s.segments != nil {
				s.segments.Inc()
			}
		}
	}
	return nil
}

func (s *Store) countError() {
	if s.errors != nil {
		s.errors.Inc()
	}
}

// Flush seals the open segment so everything accepted so far is visible to
// readers of the sealed-segment layout.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, n, err := s.w.seal()
	if err == nil && n > 0 && s.segments != nil {
		s.segments.Inc()
	}
	return err
}

// Close flushes and marks the store closed.
func (s *Store) Close() error {
	if err := s.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// BulkWriter materializes a sealed segment store in one pass: records are
// buffered and each full segment is compressed and written exactly once. The
// rotating Store recompresses its open segment on every append — the right
// durability trade for the control plane's trickle, but quadratic gzip work
// when exporting millions of simulated records at once. The output is the
// Store's layout: the same sealed names, the same readers.
type BulkWriter struct {
	w      segWriter
	closed bool
}

// NewBulkWriter creates a writer of perSeg records per segment over dir
// (created if missing). It refuses a directory that already holds segments:
// numbering starts at zero, so a second export would overwrite the first
// one's leading segments and leave its later ones in place, one store
// holding two months.
func NewBulkWriter(dir string, perSeg int) (*BulkWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("logpipe: bulk writer dir: %w", err)
	}
	if HasSegments(dir) {
		return nil, fmt.Errorf("logpipe: bulk writer: %s already holds segments", dir)
	}
	return &BulkWriter{w: segWriter{dir: dir, maxRecords: perSeg, maxBytes: math.MaxInt64, bulk: true}}, nil
}

// Append encodes one record into the current segment, sealing it when full.
func (b *BulkWriter) Append(rec any) error {
	if b.closed {
		return fmt.Errorf("logpipe: bulk writer closed")
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("logpipe: bulk encode: %w", err)
	}
	full, err := b.w.append(line)
	if err == nil && full {
		_, _, err = b.w.seal()
	}
	return err
}

// Close seals the final partial segment. The writer is unusable afterwards.
func (b *BulkWriter) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	_, _, err := b.w.seal()
	return err
}

// HasSegments reports whether dir contains any log segments; the analyzer
// uses it to auto-detect the input layout.
func HasSegments(dir string) bool {
	segs, err := ListSegments(dir)
	return err == nil && len(segs) > 0
}
