// Command netsession-analyze computes the trace analyses from an exported
// log set. The logs are self-contained — every record carries its own
// geolocation — so this works on any machine without the generating atlas,
// the way the paper's offline analyses worked on the anonymized,
// EdgeScape-annotated data set (§4.1).
//
// Two input layouts are auto-detected:
//
//   - a downloads.jsonl file (netsession-sim -out with -format jsonl)
//   - a directory of seg-*.ndjson.gz log segments, either directly in -logs
//     or under -logs/segments (the control plane's durable log store, or
//     netsession-sim -format segments)
//
// Segment stores are streamed — decoded segment by segment into a running
// accumulator — so memory stays bounded no matter how many entries the store
// holds. With -follow the analyzer tails a live log directory instead,
// printing a rolling live-analytics dashboard as segments land, and resumes
// from a checkpointed cursor across restarts.
//
// Usage:
//
//	netsession-analyze -logs DIR
//	netsession-analyze -logs DIR -follow [-refresh 2s]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"netsession/internal/analysis"
	"netsession/internal/logpipe"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netsession-analyze: ")

	dir := flag.String("logs", "netsession-logs",
		"log directory: downloads.jsonl (sim export) or seg-*.ndjson.gz segments (log store)")
	follow := flag.Bool("follow", false,
		"tail the segment directory live, printing rolling analytics as records land")
	refresh := flag.Duration("refresh", 2*time.Second, "poll interval in follow mode")
	cursorPath := flag.String("cursor", "",
		"tail-cursor checkpoint file in follow mode (default: tail-cursor.json inside the segment directory)")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel segment decoders for the one-shot pass")
	figures := flag.Bool("figures", false,
		"also print the streaming figure passes (size CDFs, popularity, abort rates, per-region offload)")
	flag.Parse()

	if *follow {
		runFollow(*dir, *cursorPath, *refresh)
		return
	}
	runOnce(*dir, *workers, *figures)
}

// runOnce is the one-shot offline pass. Both input layouts stream: a jsonl
// export scans record by record into a tally, a segment store goes through
// the parallel decode-and-fold pass — either way memory scales with distinct
// GUIDs/URLs/ASes, never with record bytes, so a paper-scale store analyzes
// on one box.
func runOnce(dir string, workers int, figures bool) {
	start := time.Now()
	var (
		sum    logpipe.StoreSummary
		source string
	)
	jsonlPath := filepath.Join(dir, "downloads.jsonl")
	if f, err := os.Open(jsonlPath); err == nil {
		defer f.Close()
		source = jsonlPath
		sum.Tally = analysis.NewTally()
		br := bufio.NewReaderSize(f, 1<<20)
		if err := analysis.ScanDownloadsJSONL(br, func(d *analysis.OfflineDownload) error {
			sum.Tally.Add(d)
			return nil
		}); err != nil {
			log.Fatalf("%s: %v", jsonlPath, err)
		}
		sum.Summary = sum.Tally.Summary()
		sum.Records = sum.Summary.Downloads
	} else {
		segDir, ok := findSegmentDir(dir)
		if !ok {
			log.Fatal(noLogsErr(dir))
		}
		source = segDir + " (log segments)"
		s, err := logpipe.SummarizeStore(segDir, workers)
		if err != nil {
			log.Fatalf("%s: %v", segDir, err)
		}
		sum = s
	}
	if sum.Records == 0 {
		log.Fatalf("no download records in %s", source)
	}
	elapsed := time.Since(start)
	log.Printf("streamed %d download records from %s in %.2fs (%.0f records/sec)",
		sum.Records, source, elapsed.Seconds(), float64(sum.Records)/elapsed.Seconds())
	fmt.Print(sum.Summary.Render())
	if figures {
		fmt.Print(sum.Tally.RenderFigures())
	}
}

// runFollow tails a live segment directory: every poll folds the new records
// into a streaming summarizer and re-renders the dashboard. The cursor is
// checkpointed after each poll, so a restarted follower picks up where it
// stopped instead of replaying the store.
func runFollow(dir, cursorPath string, refresh time.Duration) {
	segDir, ok := findSegmentDir(dir)
	if !ok {
		// The store may not have spilled its first segment yet; follow the
		// configured directory and wait.
		segDir = dir
	}
	if cursorPath == "" {
		cursorPath = logpipe.DefaultTailCursorPath(segDir)
	}
	tl, err := logpipe.OpenTailer(logpipe.TailerConfig{Dir: segDir, CursorPath: cursorPath})
	if err != nil {
		log.Fatal(err)
	}
	sum := analysis.NewStreamingSummarizer(4)
	log.Printf("following %s (cursor %s, refresh %s)", segDir, cursorPath, refresh)
	start := time.Now()
	var total int64
	for {
		recs, perr := tl.Poll()
		if perr != nil {
			log.Printf("poll: %v", perr)
		}
		for i := range recs {
			sum.Observe(&recs[i])
		}
		if len(recs) > 0 {
			total += int64(len(recs))
			rate := float64(total) / time.Since(start).Seconds()
			log.Printf("%s +%d records (%d total, %.0f records/sec, %d torn segments skipped)",
				time.Now().Format("15:04:05"), len(recs), total, rate, tl.TornSkipped())
			fmt.Println(sum.Snapshot().Render())
		}
		time.Sleep(refresh)
	}
}

// findSegmentDir locates the segment layout under dir.
func findSegmentDir(dir string) (string, bool) {
	for _, segDir := range []string{dir, filepath.Join(dir, "segments")} {
		if logpipe.HasSegments(segDir) {
			return segDir, true
		}
	}
	return "", false
}

func noLogsErr(dir string) error {
	return fmt.Errorf(
		"no logs found in %s: expected either a downloads.jsonl file (netsession-sim export) "+
			"or seg-*.ndjson.gz log segments in the directory or its segments/ subdirectory "+
			"(control-plane log store)", dir)
}
