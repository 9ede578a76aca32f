// Command netsession-analyze computes the trace analyses from a log segment
// store: the control plane's durable log store (netsession-cp -log-dir) or a
// simulated month (netsession-sim -out), found directly in -logs or under
// -logs/segments. Records are self-contained — every one carries its own
// geolocation — so this works on any machine without the generating atlas,
// the way the paper's offline analyses worked on the anonymized,
// EdgeScape-annotated data set (§4.1).
//
// The store is streamed — decoded record by record into a running
// accumulator — so memory stays bounded no matter how many entries it
// holds. The live view of a running control plane is its GET /v1/analytics
// document (netsession-report -live), which covers the node's whole store.
//
// Usage:
//
//	netsession-analyze -logs DIR [-workers N] [-figures]
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"runtime"
	"time"

	"netsession/internal/logpipe"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netsession-analyze: ")

	dir := flag.String("logs", "netsession-logs",
		"log segment store: a directory of seg-*.ndjson.gz segments, or one whose segments/ holds them")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel segment decoders")
	figures := flag.Bool("figures", false,
		"also print the streaming figure passes (size CDFs, popularity, abort rates, per-region offload)")
	flag.Parse()

	run(*dir, *workers, *figures)
}

// run is the offline pass: the parallel decode-and-fold pass over the
// store, whose memory scales with distinct GUIDs/URLs/ASes, never with
// record bytes, so a paper-scale store analyzes on one box.
func run(dir string, workers int, figures bool) {
	start := time.Now()
	segDir, ok := findSegmentDir(dir)
	if !ok {
		log.Fatalf("no log segments (seg-*.ndjson.gz) in %s or %s", dir, filepath.Join(dir, "segments"))
	}
	sum, err := logpipe.SummarizeStore(segDir, workers)
	if err != nil {
		log.Fatalf("%s: %v", segDir, err)
	}
	if sum.Records == 0 {
		log.Fatalf("no download records in %s", segDir)
	}
	elapsed := time.Since(start)
	log.Printf("streamed %d download records from %s in %.2fs (%.0f records/sec)",
		sum.Records, segDir, elapsed.Seconds(), float64(sum.Records)/elapsed.Seconds())
	fmt.Print(sum.Summary.Render())
	if figures {
		fmt.Print(sum.Tally.RenderFigures())
	}
}

// findSegmentDir locates the store: dir itself or its segments/
// subdirectory.
func findSegmentDir(dir string) (string, bool) {
	for _, segDir := range []string{dir, filepath.Join(dir, "segments")} {
		if logpipe.HasSegments(segDir) {
			return segDir, true
		}
	}
	return "", false
}
