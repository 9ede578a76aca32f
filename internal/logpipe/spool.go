package logpipe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"netsession/internal/fsutil"
	"netsession/internal/telemetry"
)

// segWriter maintains one open segment that is atomically rewritten on every
// append, so a record handed to the pipeline is durable the moment Append
// returns — the property that lets a Kill()-ed peer resume uploading without
// loss. Sealing renames the open file to its final name; the rename plus
// directory fsync makes rotation itself crash-safe. A bulk writer skips the
// open file: nothing is on disk until seal writes the sealed segment once.
// Callers serialize access.
type segWriter struct {
	dir        string
	seq        uint64 // sequence of the open segment
	lines      [][]byte
	pendingLen int64 // uncompressed bytes pending
	maxRecords int
	maxBytes   int64
	bulk       bool
}

func (w *segWriter) openPath() string { return filepath.Join(w.dir, openSegmentName(w.seq)) }

// write stores the pending lines as one segment file at path, durably.
func (w *segWriter) write(path string) error {
	data, err := MarshalSegment(w.lines)
	if err != nil {
		return err
	}
	if err := fsutil.WriteFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("logpipe: write segment %s: %w", path, err)
	}
	return nil
}

// append adds one encoded line and, unless bulk, rewrites the open segment
// durably. It reports whether the segment reached its rotation threshold.
func (w *segWriter) append(line []byte) (full bool, err error) {
	w.lines = append(w.lines, line)
	w.pendingLen += int64(len(line)) + 1
	if !w.bulk {
		if err := w.write(w.openPath()); err != nil {
			return false, err
		}
	}
	return len(w.lines) >= w.maxRecords || w.pendingLen >= w.maxBytes, nil
}

// seal gives the pending records their final segment name — a rename of the
// open file, or for a bulk writer the one write — and starts the next
// segment. Sealing an empty writer is a no-op.
func (w *segWriter) seal() (sealed string, records int, err error) {
	if len(w.lines) == 0 {
		return "", 0, nil
	}
	records = len(w.lines)
	sealed = filepath.Join(w.dir, segmentName(w.seq))
	if w.bulk {
		if err := w.write(sealed); err != nil {
			return "", 0, err
		}
	} else {
		if err := os.Rename(w.openPath(), sealed); err != nil {
			return "", 0, fmt.Errorf("logpipe: seal segment: %w", err)
		}
		if err := fsutil.SyncDir(w.dir); err != nil {
			return "", 0, err
		}
	}
	w.seq++
	w.lines = nil
	w.pendingLen = 0
	return sealed, records, nil
}

// cursor is the spool's durable upload position: every sequence number at or
// below Uploaded has been acknowledged by the control plane (or dropped by
// retention) and must never be re-sent with new content.
type cursor struct {
	Uploaded uint64 `json:"uploaded"`
	// Valid distinguishes "nothing uploaded yet" from "segment 0 uploaded".
	Valid bool `json:"valid"`
}

const cursorFile = "cursor.json"

// The spool seals its open segment into an upload batch at
// spoolBatchRecords records or spoolBatchBytes uncompressed bytes, and caps
// sealed-but-unuploaded segments at spoolMaxBytes: beyond it the oldest are
// dropped (counted, never silently).
const (
	spoolBatchRecords = 256
	spoolBatchBytes   = 256 << 10
	spoolMaxBytes     = 32 << 20
)

// SpoolConfig configures a peer-side log spool.
type SpoolConfig struct {
	// Dir holds the segments and the upload cursor.
	Dir string
	// Telemetry registers the spool's metrics; nil skips telemetry.
	Telemetry *telemetry.Registry
}

// Spool is the peer-side durable log buffer. All methods are safe for
// concurrent use.
type Spool struct {
	cfg SpoolConfig
	// maxBytes is the retention cap, spoolMaxBytes unless a test lowers it.
	maxBytes int64

	mu  sync.Mutex
	w   segWriter
	cur cursor

	records        *telemetry.Counter
	dropped        *telemetry.Counter
	segmentsGauge  *telemetry.Gauge
	bytesGauge     *telemetry.Gauge
	sealedSegments *telemetry.Counter
}

// OpenSpool opens (creating if needed) a spool directory and recovers its
// state: segments already acknowledged by the cursor are deleted (the crash
// window between acknowledgement and deletion), and a leftover open segment
// from a killed process is sealed so its records are uploadable — nothing
// that reached Append is ever lost.
func OpenSpool(cfg SpoolConfig) (*Spool, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("logpipe: spool dir required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("logpipe: spool dir: %w", err)
	}
	s := &Spool{cfg: cfg, maxBytes: spoolMaxBytes}
	if reg := cfg.Telemetry; reg != nil {
		s.records = reg.Counter("logpipe_spool_records_total",
			"download log records appended to the durable spool", nil)
		s.dropped = reg.Counter("logpipe_spool_dropped_records_total",
			"spooled records dropped by the retention cap before upload", nil)
		s.sealedSegments = reg.Counter("logpipe_spool_segments_sealed_total",
			"spool segments sealed for upload", nil)
		s.segmentsGauge = reg.Gauge("logpipe_spool_segments",
			"sealed spool segments awaiting upload", nil)
		s.bytesGauge = reg.Gauge("logpipe_spool_bytes",
			"bytes of sealed spool segments awaiting upload", nil)
	}
	if raw, err := os.ReadFile(filepath.Join(cfg.Dir, cursorFile)); err == nil {
		// A corrupt cursor degrades to "nothing uploaded"; the CP's dedup
		// window absorbs the resends.
		_ = json.Unmarshal(raw, &s.cur)
	}
	segs, err := ListSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	var maxSeq uint64
	haveSeq := false
	for _, sf := range segs {
		if s.cur.Valid && sf.Seq <= s.cur.Uploaded && !sf.Open {
			os.Remove(sf.Path) // acknowledged before the crash; finish the delete
			continue
		}
		if sf.Open {
			// Seal the crash leftover under its own sequence so the records
			// become a complete, uploadable batch.
			if err := os.Rename(sf.Path, filepath.Join(cfg.Dir, segmentName(sf.Seq))); err != nil {
				return nil, fmt.Errorf("logpipe: seal recovered segment: %w", err)
			}
		}
		if !haveSeq || sf.Seq > maxSeq {
			maxSeq, haveSeq = sf.Seq, true
		}
	}
	next := uint64(0)
	if haveSeq {
		next = maxSeq + 1
	}
	if s.cur.Valid && s.cur.Uploaded+1 > next {
		next = s.cur.Uploaded + 1
	}
	s.w = segWriter{
		dir: cfg.Dir, seq: next,
		maxRecords: spoolBatchRecords, maxBytes: spoolBatchBytes,
	}
	s.updateGaugesLocked()
	return s, nil
}

// Append durably adds one entry to the spool as an EncodeEntry line. When
// the open segment reaches its batch threshold it is sealed and becomes
// uploadable.
func (s *Spool) Append(e *Entry) error {
	line, err := EncodeEntry(e)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	full, err := s.w.append(line)
	if err != nil {
		return err
	}
	if s.records != nil {
		s.records.Inc()
	}
	if full {
		return s.sealLocked()
	}
	return nil
}

// Flush seals the open segment (if it holds any records) so everything
// appended so far becomes uploadable.
func (s *Spool) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealLocked()
}

func (s *Spool) sealLocked() error {
	_, n, err := s.w.seal()
	if err != nil {
		return err
	}
	if n > 0 && s.sealedSegments != nil {
		s.sealedSegments.Inc()
	}
	if err := s.enforceRetentionLocked(); err != nil {
		return err
	}
	s.updateGaugesLocked()
	return nil
}

// enforceRetentionLocked drops the oldest sealed segments while the spool
// exceeds its byte cap, advancing the cursor past them so the uploader never
// looks for dropped batches. Drops are counted — a capped spool must read as
// data loss on /metrics, not as silence.
func (s *Spool) enforceRetentionLocked() error {
	segs, err := s.sealedLocked()
	if err != nil {
		return err
	}
	var total int64
	for _, sf := range segs {
		total += sf.Size
	}
	for i := 0; total > s.maxBytes && i < len(segs)-1; i++ {
		sf := segs[i]
		n := countRecords(sf.Path)
		if err := os.Remove(sf.Path); err != nil {
			return fmt.Errorf("logpipe: drop segment: %w", err)
		}
		if s.dropped != nil {
			s.dropped.Add(int64(n))
		}
		total -= sf.Size
		if err := s.writeCursorLocked(sf.Seq); err != nil {
			return err
		}
	}
	return nil
}

// sealedLocked lists sealed segments beyond the cursor, oldest first.
func (s *Spool) sealedLocked() ([]SegmentFile, error) {
	all, err := ListSegments(s.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var out []SegmentFile
	for _, sf := range all {
		if sf.Open {
			continue
		}
		if s.cur.Valid && sf.Seq <= s.cur.Uploaded {
			continue
		}
		out = append(out, sf)
	}
	return out, nil
}

// Batch is one sealed segment ready for upload. Data is the segment's
// compressed bytes exactly as stored, or, for a torn segment, its complete
// lines compressed again, so the ingest endpoint never sees a torn stream;
// (spool GUID, Seq) is the idempotent batch identity the control plane
// deduplicates on.
type Batch struct {
	Seq     uint64
	Records int
	Data    []byte
}

// NextBatch returns the oldest sealed, unacknowledged segment, or ok=false
// when the spool is drained.
func (s *Spool) NextBatch() (b Batch, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := s.sealedLocked()
	if err != nil || len(segs) == 0 {
		return Batch{}, false, err
	}
	sf := segs[0]
	data, err := os.ReadFile(sf.Path)
	if err != nil {
		return Batch{}, false, err
	}
	lines, rerr := ReadSegment(bytes.NewReader(data))
	if rerr != nil && len(lines) == 0 {
		// Unreadable segment (torn beyond recovery): skip it rather than
		// wedging the pipeline, counting its loss.
		if s.dropped != nil {
			s.dropped.Inc()
		}
		os.Remove(sf.Path)
		if err := s.writeCursorLocked(sf.Seq); err != nil {
			return Batch{}, false, err
		}
		return Batch{}, false, fmt.Errorf("logpipe: segment %d unreadable, skipped", sf.Seq)
	}
	if rerr != nil {
		// A torn tail: upload the lines that survived as an intact batch.
		// The ingest endpoint refuses a torn stream outright.
		if data, err = MarshalSegment(lines); err != nil {
			return Batch{}, false, err
		}
	}
	return Batch{Seq: sf.Seq, Records: len(lines), Data: data}, true, nil
}

// MarkUploaded records that every segment at or below seq was acknowledged
// by the control plane: the cursor is persisted first (so a crash re-sends
// rather than loses), then the files are deleted.
func (s *Spool) MarkUploaded(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeCursorLocked(seq); err != nil {
		return err
	}
	segs, err := ListSegments(s.cfg.Dir)
	if err != nil {
		return err
	}
	for _, sf := range segs {
		if !sf.Open && sf.Seq <= seq {
			os.Remove(sf.Path)
		}
	}
	s.updateGaugesLocked()
	return nil
}

func (s *Spool) writeCursorLocked(seq uint64) error {
	if s.cur.Valid && seq <= s.cur.Uploaded {
		return nil
	}
	s.cur = cursor{Uploaded: seq, Valid: true}
	raw, _ := json.Marshal(s.cur)
	return fsutil.WriteFileAtomic(filepath.Join(s.cfg.Dir, cursorFile), raw, 0o644)
}

func (s *Spool) updateGaugesLocked() {
	if s.segmentsGauge == nil {
		return
	}
	segs, err := s.sealedLocked()
	if err != nil {
		return
	}
	var total int64
	for _, sf := range segs {
		total += sf.Size
	}
	s.segmentsGauge.Set(float64(len(segs)))
	s.bytesGauge.Set(float64(total))
}

// Pending reports how many sealed segments await upload and how many records
// sit in the open segment; tests and status surfaces use it.
func (s *Spool) Pending() (sealed int, open int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, _ := s.sealedLocked()
	return len(segs), len(s.w.lines)
}
