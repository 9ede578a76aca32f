package logpipe

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"netsession/internal/analysis"
)

// ForEachDownloadParallel is the one walk that decodes download records from
// a segment directory — sealed segments plus any open tail. It streams every
// record through fn, calling it concurrently from workers goroutines — fn
// must be safe for concurrent use (e.g. an analysis.ShardedTally) unless
// workers is 1. Each worker streams one segment at a time through one reused
// reader, decoding each line as it is framed, so memory holds at most one
// line and one record per worker and an arbitrarily large store is read in
// bounded memory; within one segment records are delivered in order, and
// with one worker the whole store is.
//
// fn receives a record that the worker reuses: it is valid only until fn
// returns, so fn must copy what it keeps. Copying the struct is enough, since
// the decoder allocates fresh strings, FromPeers and Stream for every record
// and never writes into the old ones.
//
// Damage policy: a torn or partially-written final segment contributes its
// complete records and is otherwise skipped (a crash left it mid-write), and
// a record that does not decode ends the final segment; damage anywhere else
// is corruption and an error. On error the pipeline cancels and the
// lowest-segment-indexed error is returned (segments are handed out in order,
// so every segment before a failing one has been read); the returned count
// is the number of records delivered before cancellation. Those include the
// records before the damage in the failing segment, which reached fn before
// the damage was read.
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
			var r recordReader
			for i := range next {
				if err := r.each(segs[i], i == len(segs)-1, fn, &n); err != nil {
					fail(i, err)
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

// recordReader is one worker's reader: a segment reader and the record each
// line decodes into, both reused across the segments the worker streams.
type recordReader struct {
	seg segmentReader
	d   analysis.OfflineDownload
}

// each streams one segment's records through fn under the damage policy of
// ForEachDownloadParallel, counting each one fn accepts in n. It returns the
// segment's damage or fn's error.
func (r *recordReader) each(sf SegmentFile, last bool, fn func(*analysis.OfflineDownload) error, n *atomic.Int64) error {
	f, err := os.Open(sf.Path)
	if err != nil {
		return fmt.Errorf("logpipe: segment %s: %w", sf.Path, err)
	}
	defer f.Close()
	// end classifies how the stream stopped: cleanly, torn where a tear is
	// tolerated, or damaged.
	end := func(err error) error {
		if err == io.EOF || (last && errors.Is(err, ErrTorn)) {
			return nil
		}
		return fmt.Errorf("logpipe: segment %s: %w", sf.Path, err)
	}
	r.seg.reset(f)
	for j := 0; ; j++ {
		line, err := r.seg.next()
		if err != nil {
			return end(err)
		}
		if err := analysis.DecodeDownload(line, &r.d); err != nil {
			if last {
				// A torn final record reads as damage only to the tail.
				return nil
			}
			return fmt.Errorf("logpipe: segment %s record %d: %w", sf.Path, j, err)
		}
		if err := fn(&r.d); err != nil {
			return err
		}
		n.Add(1)
	}
}
