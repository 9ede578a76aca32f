package logpipe

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"netsession/internal/analysis"
)

// ForEachDownloadParallel is the one walk that decodes download records from
// a segment directory — sealed segments plus any open tail. It streams every
// record through fn, calling it concurrently from workers goroutines — fn
// must be safe for concurrent use (e.g. an analysis.ShardedTally) unless
// workers is 1. Decode and aggregation both parallelize and at most workers
// segments of records are in memory at once, so an arbitrarily large store
// is read in bounded memory; within one segment records are delivered in
// order, and with one worker the whole store is.
//
// Damage policy: a torn or partially-written final segment contributes its
// complete records and is otherwise skipped (a crash left it mid-write);
// damage anywhere else is corruption and an error. On error the pipeline
// cancels and the lowest-segment-indexed error is returned (segments are
// handed out in order, so every segment before a failing one has been
// decoded); the returned count is the number of records delivered before
// cancellation.
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
				recs, derr := decodeSegment(segs[i], i == len(segs)-1)
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

// ReadDownloads loads every download record of a segment directory, in
// store order: a one-worker ForEachDownloadParallel that keeps the records.
func ReadDownloads(dir string) ([]analysis.OfflineDownload, error) {
	var out []analysis.OfflineDownload
	if _, err := ForEachDownloadParallel(dir, 1, func(d *analysis.OfflineDownload) error {
		out = append(out, *d)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeSegment reads and unmarshals one segment under the damage policy of
// ForEachDownloadParallel.
func decodeSegment(sf SegmentFile, last bool) ([]analysis.OfflineDownload, error) {
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
