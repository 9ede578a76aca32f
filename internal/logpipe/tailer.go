package logpipe

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"netsession/internal/analysis"
	"netsession/internal/fsutil"
)

// TailCursor is a tailer's durable position in a segment directory: the next
// segment sequence to read and how many records of it have already been
// consumed. The record offset matters because the open segment is rewritten
// in place as it grows — on each poll the tailer re-reads it and emits only
// the lines past the cursor.
type TailCursor struct {
	Seq uint64 `json:"seq"`
	Rec int    `json:"rec"`
}

// TailerConfig configures a segment tailer.
type TailerConfig struct {
	// Dir is the segment directory to follow.
	Dir string
	// CursorPath, when non-empty, is a file the cursor is checkpointed to
	// after every poll (atomically), so a restarted tailer resumes where it
	// left off instead of re-reading the store. A missing or corrupt cursor
	// file degrades to "start from the beginning".
	CursorPath string
}

// Tailer incrementally follows a rotated segment store: each Poll returns the
// records appended since the previous one, across any number of seals and
// rotations in between. It is the live half of the analytics pipeline — the
// offline pass reads a sealed store once, the tailer feeds a streaming
// summarizer the same records as they land.
//
// Damage policy: a torn or half-written *last* segment only delays its tail
// (the records reappear on a later poll once the writer completes or rotates
// it), as the batch readers tolerate a torn final segment. A damaged segment
// with sealed successors lost its tail for good: where ReadDownloads and
// ForEachDownloadParallel return an error, the tailer counts it
// (TornSkipped) and moves on rather than wedging the live pipeline forever.
// Methods are not safe for concurrent use.
type Tailer struct {
	cfg  TailerConfig
	cur  TailCursor
	torn int
}

// OpenTailer opens a tailer over a segment directory, resuming from the
// checkpointed cursor when one exists.
func OpenTailer(cfg TailerConfig) (*Tailer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("logpipe: tailer dir required")
	}
	t := &Tailer{cfg: cfg}
	if cfg.CursorPath != "" {
		if raw, err := os.ReadFile(cfg.CursorPath); err == nil {
			var cur TailCursor
			if json.Unmarshal(raw, &cur) == nil {
				t.cur = cur
			}
			// A corrupt cursor degrades to a full re-read; every consumer of
			// the tailer aggregates idempotently or tolerates replays.
		}
	}
	return t, nil
}

// Cursor returns the tailer's current position.
func (t *Tailer) Cursor() TailCursor { return t.cur }

// TornSkipped returns how many damaged non-final segments the tailer has
// skipped past since it was opened. A non-zero value means records were lost
// to corruption; live dashboards should surface it, not hide it.
func (t *Tailer) TornSkipped() int { return t.torn }

// Poll reads every record appended since the last call and advances the
// cursor. A directory with no segments yet is not an error — the store may
// simply not have spilled anything; Poll returns no records and waits for the
// next call. The returned slice is freshly allocated and owned by the caller.
func (t *Tailer) Poll() ([]analysis.OfflineDownload, error) {
	segs, err := ListSegments(t.cfg.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil // store directory not created yet
		}
		return nil, err
	}
	var out []analysis.OfflineDownload
	for i, sf := range segs {
		if sf.Seq < t.cur.Seq {
			continue
		}
		last := i == len(segs)-1
		lines, rerr := readTailSegment(t.cfg.Dir, sf)
		if rerr != nil && !errors.Is(rerr, ErrTorn) {
			if os.IsNotExist(rerr) {
				// Sealed out from under us between the listing and the open;
				// the renamed file is picked up whole on the next poll.
				break
			}
			return out, fmt.Errorf("logpipe: tail segment %s: %w", sf.Path, rerr)
		}
		torn := errors.Is(rerr, ErrTorn)
		if sf.Seq == t.cur.Seq && len(lines) < t.cur.Rec {
			// Segments only ever grow until sealed; fewer records than the
			// cursor means the directory was replaced behind our back.
			return out, fmt.Errorf("logpipe: segment %s shrank under cursor (%d < %d)",
				sf.Path, len(lines), t.cur.Rec)
		}
		start := 0
		if sf.Seq == t.cur.Seq {
			start = t.cur.Rec
		}
		consumed, decodeErr := start, error(nil)
		for _, line := range lines[start:] {
			var d analysis.OfflineDownload
			if err := analysis.DecodeDownload(line, &d); err != nil {
				decodeErr = err
				break
			}
			out = append(out, d)
			consumed++
		}
		damaged := torn || decodeErr != nil
		switch {
		case damaged && last:
			// Tail damage on the newest segment: keep the cursor on it and let
			// a later poll find it completed, rotated, or superseded.
			t.cur = TailCursor{Seq: sf.Seq, Rec: consumed}
		case damaged:
			// Damage with sealed successors can never heal; count the loss and
			// move past it so the live pipeline keeps flowing.
			t.torn++
			t.cur = TailCursor{Seq: sf.Seq + 1}
		case sf.Open:
			// Clean but still growing; stay on it at the consumed offset.
			t.cur = TailCursor{Seq: sf.Seq, Rec: consumed}
		default:
			t.cur = TailCursor{Seq: sf.Seq + 1}
		}
	}
	if err := t.checkpoint(); err != nil {
		return out, err
	}
	return out, nil
}

// readTailSegment reads a listed segment, falling back to the sealed name
// when an open segment was sealed (renamed) after the listing.
func readTailSegment(dir string, sf SegmentFile) ([][]byte, error) {
	lines, err := ReadSegmentFile(sf.Path)
	if err != nil && os.IsNotExist(err) && sf.Open {
		return ReadSegmentFile(segmentPathSealed(dir, sf.Seq))
	}
	return lines, err
}

func (t *Tailer) checkpoint() error {
	if t.cfg.CursorPath == "" {
		return nil
	}
	raw, err := json.Marshal(t.cur)
	if err != nil {
		return err
	}
	if err := fsutil.WriteFileAtomic(t.cfg.CursorPath, raw, 0o644); err != nil {
		return fmt.Errorf("logpipe: checkpoint tail cursor: %w", err)
	}
	return nil
}

// ForEachDownloadParallel streams every download record in a sealed segment
// directory through fn, calling it concurrently from workers goroutines —
// fn must be safe for concurrent use (e.g. an analysis.ShardedTally). Decode
// and aggregation both parallelize and at most workers segments of records
// are in memory at once, so an arbitrarily large store is read in bounded
// memory; within one segment records are delivered in order. It applies the
// same damage policy as ReadDownloads — torn final segment tolerated, damage
// elsewhere is an error. On error the pipeline cancels and the
// lowest-segment-indexed error is returned (segments are handed out in
// order, so every segment before a failing one has been decoded); the
// returned count is the number of records delivered before cancellation.
func ForEachDownloadParallel(dir string, workers int, fn func(*analysis.OfflineDownload) error) (int, error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return 0, fmt.Errorf("logpipe: no segments in %s", dir)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(segs) {
		workers = len(segs)
	}

	var (
		n        atomic.Int64
		mu       sync.Mutex
		stopOnce sync.Once
		ferrSeg  = -1
		ferr     error
	)
	stop := make(chan struct{})
	fail := func(seg int, err error) {
		mu.Lock()
		if ferr == nil || seg < ferrSeg {
			ferrSeg, ferr = seg, err
		}
		mu.Unlock()
		stopOnce.Do(func() { close(stop) })
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				recs, derr := decodeSegment(dir, segs[i], i == len(segs)-1)
				if derr != nil {
					fail(i, derr)
					continue
				}
				for j := range recs {
					if err := fn(&recs[j]); err != nil {
						fail(i, err)
						break
					}
					n.Add(1)
				}
			}
		}()
	}
	go func() {
		defer close(next)
		for i := range segs {
			select {
			case next <- i:
			case <-stop:
				return
			}
		}
	}()
	wg.Wait()
	return int(n.Load()), ferr
}

// StoreSummary is the result of one parallel streaming pass over a segment
// store: the merged tally (figure passes, region table), the offline summary
// derived from it, and the record count.
type StoreSummary struct {
	Summary analysis.OfflineSummary
	Tally   *analysis.Tally
	Records int
}

// SummarizeStore runs the full offline analysis over a sealed segment store
// in one parallel streaming pass: workers goroutines decode segments and
// fold records into a GUID-sharded exact tally, so a store of any size
// analyzes in memory proportional to its distinct GUIDs/URLs/ASes and
// completed downloads — never to its record bytes. The result is the
// sequential fold of the same records (see analysis.Tally.Merge).
func SummarizeStore(dir string, workers int) (StoreSummary, error) {
	if workers < 1 {
		workers = 1
	}
	acc := analysis.NewShardedTally(4 * workers)
	n, err := ForEachDownloadParallel(dir, workers, func(d *analysis.OfflineDownload) error {
		acc.Observe(d)
		return nil
	})
	if err != nil {
		return StoreSummary{}, err
	}
	t := acc.Merged()
	return StoreSummary{Summary: t.Summary(), Tally: t, Records: n}, nil
}

// decodeSegment reads and unmarshals one segment under the shared damage
// policy.
func decodeSegment(dir string, sf SegmentFile, last bool) ([]analysis.OfflineDownload, error) {
	lines, rerr := ReadSegmentFile(sf.Path)
	if rerr != nil && !(last && errors.Is(rerr, ErrTorn)) {
		return nil, fmt.Errorf("logpipe: segment %s: %w", sf.Path, rerr)
	}
	recs := make([]analysis.OfflineDownload, 0, len(lines))
	for j, line := range lines {
		var d analysis.OfflineDownload
		if err := analysis.DecodeDownload(line, &d); err != nil {
			if last {
				// A torn final record reads as damage only to the tail.
				break
			}
			return nil, fmt.Errorf("logpipe: segment %s record %d: %w", sf.Path, j, err)
		}
		recs = append(recs, d)
	}
	return recs, nil
}

// DefaultTailCursorPath is the conventional cursor location inside a log
// directory, used by the analyzer's follow mode.
func DefaultTailCursorPath(dir string) string {
	return filepath.Join(dir, "tail-cursor.json")
}
