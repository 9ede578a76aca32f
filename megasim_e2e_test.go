package netsession

// Paper-scale end-to-end: the million-peer month (XXL tier) simulated,
// exported as a sealed segment store, and analyzed through the streaming
// parallel pass — on one box, inside an asserted memory budget. This is
// the full pipeline the paper ran on a month of production logs (§4.1),
// at the paper's population scale.
//
// The run takes tens of minutes and several GB of RAM, so it is gated:
//
//	NETSESSION_MEGASIM=1 go test -run TestMegaSimXXLEndToEnd -timeout 2h .

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"runtime"
	"syscall"
	"testing"

	"netsession/internal/logpipe"
)

const megaSimGate = "NETSESSION_MEGASIM"

// xxlPeakRSSMB mirrors the XXL tier budget in the sim benchmark ladder. It
// dates from when the result retained every login record (~15 GB measured);
// logins are streamed now, and the XXL month has not been measured since.
const xxlPeakRSSMB = 20 * 1024

// logDigest hashes the download and registration logs record by record, so
// the comparison never materializes the multi-GB JSON encoding of an XXL
// month. Logins are left out: they are generated from the population alone,
// so no worker count can change them.
func logDigest(t *testing.T, l *Log) uint64 {
	t.Helper()
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for i := range l.Downloads {
		if err := enc.Encode(&l.Downloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range l.Registrations {
		if err := enc.Encode(&l.Registrations[i]); err != nil {
			t.Fatal(err)
		}
	}
	return h.Sum64()
}

func peakRSSMB(t *testing.T) int64 {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return ru.Maxrss / 1024 // Linux reports KiB
}

func TestMegaSimXXLEndToEnd(t *testing.T) {
	if os.Getenv(megaSimGate) == "" {
		t.Skipf("set %s=1 to run the gated million-peer month", megaSimGate)
	}

	// Reference run: sequential engine, the determinism baseline.
	cfg := XXLScenario()
	cfg.Workers = 1
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	downloads := len(res.Log.Downloads)
	if downloads == 0 {
		t.Fatal("XXL run produced no downloads")
	}
	t.Logf("workers=1: %d downloads / %d registrations", downloads, len(res.Log.Registrations))
	refDigest := logDigest(t, res.Log)

	// Export the reference run's download log as a sealed segment store,
	// each record annotated from the generating scape the way the control
	// plane annotates live reports.
	segDir := t.TempDir()
	if err := logpipe.ExportDownloads(segDir, res.Log.Downloads, res.Scape); err != nil {
		t.Fatal(err)
	}

	// Free the reference run before the sharded one: only its digest and
	// counts matter now, and holding two XXL log sets would double the
	// peak the RSS assertion guards.
	res = nil
	runtime.GC()

	// Sharded run: the worker pool must reproduce the reference month
	// byte for byte.
	cfg = XXLScenario()
	cfg.Workers = 4
	res4, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res4.Log.Downloads); got != downloads {
		t.Fatalf("workers=4 produced %d downloads, workers=1 produced %d", got, downloads)
	}
	if got := logDigest(t, res4.Log); got != refDigest {
		t.Fatalf("workers=4 log digest %016x differs from workers=1 digest %016x", got, refDigest)
	}
	res4 = nil
	runtime.GC()

	// Stream the exported store through the parallel analyzer: every
	// record accounted for, with memory bounded by distinct entities
	// rather than record count.
	sum, err := logpipe.SummarizeStore(segDir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != downloads {
		t.Fatalf("analyzer streamed %d records, store holds %d", sum.Records, downloads)
	}
	if sum.Summary.Downloads != downloads {
		t.Fatalf("summary counted %d downloads, want %d", sum.Summary.Downloads, downloads)
	}
	if sum.Tally.RenderFigures() == "" {
		t.Fatal("streaming figure pass produced no output")
	}

	if rss := peakRSSMB(t); rss > xxlPeakRSSMB {
		t.Fatalf("peak RSS %d MB exceeds the %d MB paper-scale budget", rss, xxlPeakRSSMB)
	} else {
		t.Logf("peak RSS %d MB (budget %d MB)", rss, xxlPeakRSSMB)
	}
}
