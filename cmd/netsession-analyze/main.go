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
// Segment stores are streamed — decoded record by record into a running
// accumulator — so memory stays bounded no matter how many entries the store
// holds. The live view of a running control plane is its GET /v1/analytics
// document (netsession-report -live), which covers the node's whole store.
//
// Usage:
//
//	netsession-analyze -logs DIR [-workers N] [-figures]
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
	workers := flag.Int("workers", runtime.NumCPU(), "parallel segment decoders")
	figures := flag.Bool("figures", false,
		"also print the streaming figure passes (size CDFs, popularity, abort rates, per-region offload)")
	flag.Parse()

	run(*dir, *workers, *figures)
}

// run is the offline pass. Both input layouts stream: a jsonl export scans
// record by record into a tally, a segment store goes through the parallel
// decode-and-fold pass — either way memory scales with distinct
// GUIDs/URLs/ASes, never with record bytes, so a paper-scale store analyzes
// on one box.
func run(dir string, workers int, figures bool) {
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
