// Command netsession-sim runs one simulation scenario and writes the raw
// log set (download, login and registration records) as JSON-lines files —
// the synthetic equivalent of the month of production logs the paper
// analyses. Downloads and registrations are in merge order (time, then
// region); logins.jsonl is streamed from the trace generator one
// installation at a time, each installation's logins in time order. Use
// netsession-report for the analyses themselves.
//
// Usage:
//
//	netsession-sim [-scenario default|small|xl|m|xxl|streaming] [-peers N] [-downloads N]
//	               [-days N] [-seed N] [-workers N] [-debug-addr ADDR]
//	               [-cpuprofile FILE] [-memprofile FILE] -out DIR
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"netsession"
	"netsession/internal/accounting"
	"netsession/internal/analysis"
	"netsession/internal/logpipe"
	"netsession/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netsession-sim: ")

	scenario := flag.String("scenario", "default",
		"base scenario tier: default (20k peers), small (4k), xl (60k), m (250k), xxl (1M peers / 31 days), or streaming (deadline-driven delivery)")
	peers := flag.Int("peers", 0, "peer population size")
	downloads := flag.Int("downloads", 0, "total downloads")
	days := flag.Int("days", 0, "trace length in days")
	seed := flag.Int64("seed", 0, "random seed")
	workers := flag.Int("workers", 0, "region-shard workers (0: one per CPU, 1: sequential reference mode; output is identical either way)")
	outDir := flag.String("out", "netsession-logs", "output directory")
	format := flag.String("format", "jsonl",
		"download log format: jsonl (downloads.jsonl), segments (gzip NDJSON segments under out/segments, identical to the control plane's log store), or both")
	telem := flag.Bool("telemetry", true, "log periodic telemetry snapshots (virtual time, events/sec, flows)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and live /metrics on this address during the run")
	faultSeed := flag.Int64("fault-seed", 0, "seed for the fault-injection RNG (0: fixed default)")
	faultServerFail := flag.Float64("fault-server-fail", 0,
		"probability a serving peer is killed mid-download (0 disables fault injection)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	flag.Parse()

	var cfg netsession.Scenario
	switch *scenario {
	case "default":
		cfg = netsession.DefaultScenario()
	case "small":
		cfg = netsession.SmallScenario()
	case "xl":
		cfg = netsession.XLScenario()
	case "m":
		cfg = netsession.MScenario()
	case "xxl":
		cfg = netsession.XXLScenario()
	case "streaming":
		cfg = netsession.StreamingScenario()
	default:
		log.Fatalf("unknown -scenario %q (want default, small, xl, m, xxl, or streaming)", *scenario)
	}
	if *peers > 0 {
		cfg.NumPeers = *peers
	}
	if *downloads > 0 {
		cfg.TotalDownloads = *downloads
	}
	if *days > 0 {
		cfg.Days = *days
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers
	if *telem {
		cfg.Logf = log.Printf
	}
	if *debugAddr != "" {
		cfg.Telemetry = telemetry.NewRegistry()
		dbg, err := telemetry.StartDebug(*debugAddr, cfg.Telemetry)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug server on http://%s (GET /debug/pprof/, /metrics)", dbg.Addr())
	}
	cfg.Faults = netsession.SimFaults{Seed: *faultSeed, ServerFailProb: *faultServerFail}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	res, err := netsession.RunScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("simulated %d downloads / %d registrations in %s",
		len(res.Log.Downloads), len(res.Log.Registrations),
		time.Since(start).Round(time.Millisecond))

	if *memProfile != "" {
		// The profile captures what the finished run retains (the download
		// and registration logs, directories, population) — the memory-model
		// numbers DESIGN.md's paper-scale section reasons about.
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		log.Printf("wrote heap profile to %s", *memProfile)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	wantJSONL, wantSegments := false, false
	switch *format {
	case "jsonl":
		wantJSONL = true
	case "segments":
		wantSegments = true
	case "both":
		wantJSONL, wantSegments = true, true
	default:
		log.Fatalf("unknown -format %q (want jsonl, segments, or both)", *format)
	}
	if wantJSONL {
		if err := writeDownloads(filepath.Join(*outDir, "downloads.jsonl"), res); err != nil {
			log.Fatal(err)
		}
	}
	if wantSegments {
		if err := writeSegments(filepath.Join(*outDir, "segments"), res); err != nil {
			log.Fatal(err)
		}
	}
	logins, err := writeLogins(filepath.Join(*outDir, "logins.jsonl"), res)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeRegistrations(filepath.Join(*outDir, "registrations.jsonl"), res.Log); err != nil {
		log.Fatal(err)
	}
	if err := writeBilling(filepath.Join(*outDir, "billing.csv"), res.Log); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote logs (%d logins) to %s", logins, *outDir)
}

// writeDownloads exports analysis.OfflineDownload records: each carries its
// own geolocation so the log set is self-contained (netsession-analyze
// reads it without the generating atlas).
func writeDownloads(path string, res *netsession.ScenarioResult) error {
	l := res.Log
	lookup := analysis.ScapeLookup(res.Scape)
	return writeJSONL(path, func(emit func(any)) {
		for i := range l.Downloads {
			emit(analysis.OfflineFromRecord(&l.Downloads[i], lookup))
		}
	})
}

// writeSegments exports the download log in the control plane's durable
// segment format (gzip-compressed NDJSON), so simulated and live-cluster
// log sets are byte-compatible inputs to netsession-analyze. The bulk
// writer compresses each segment once, so the XXL tier's millions of
// records export in linear time. An earlier export in dir is replaced, as
// os.Create replaces the JSONL files: the writer refuses to mix two stores.
func writeSegments(dir string, res *netsession.ScenarioResult) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	w, err := logpipe.NewBulkWriter(dir, 20_000)
	if err != nil {
		return err
	}
	l := res.Log
	lookup := analysis.ScapeLookup(res.Scape)
	for i := range l.Downloads {
		if err := w.Append(analysis.OfflineFromRecord(&l.Downloads[i], lookup)); err != nil {
			return err
		}
	}
	return w.Close()
}

type jsonLogin struct {
	TimeMs         int64  `json:"timeMs"`
	GUID           string `json:"guid"`
	IP             string `json:"ip"`
	UploadsEnabled bool   `json:"uploadsEnabled"`
}

// writeLogins streams the run's logins to path and returns how many it wrote.
func writeLogins(path string, res *netsession.ScenarioResult) (int, error) {
	n := 0
	err := writeJSONL(path, func(emit func(any)) {
		res.Logins(func(r *accounting.LoginRecord) {
			n++
			emit(jsonLogin{
				TimeMs: r.TimeMs, GUID: r.GUID.String(), IP: r.IP.String(),
				UploadsEnabled: r.UploadsEnabled,
			})
		})
	})
	return n, err
}

type jsonReg struct {
	TimeMs int64  `json:"timeMs"`
	GUID   string `json:"guid"`
	Object string `json:"object"`
}

func writeRegistrations(path string, l *netsession.Log) error {
	return writeJSONL(path, func(emit func(any)) {
		for i := range l.Registrations {
			r := &l.Registrations[i]
			emit(jsonReg{TimeMs: r.TimeMs, GUID: r.GUID.String(), Object: r.Object.String()})
		}
	})
}

// writeBilling renders the per-provider billing summary.
func writeBilling(path string, l *netsession.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return accounting.WriteCSV(f, accounting.Bill(l))
}

// writeJSONL writes every record records emits to path, one JSON document
// per line. After the first encoding error the remaining records are
// dropped and the error is returned.
func writeJSONL(path string, records func(emit func(any))) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	var encErr error
	records(func(v any) {
		if encErr == nil {
			encErr = enc.Encode(v)
		}
	})
	if encErr != nil {
		return fmt.Errorf("encode %s: %w", path, encErr)
	}
	return bw.Flush()
}
