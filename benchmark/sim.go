package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"netsession"
)

// simEnv holds the scenario; the simulator has no state to start.
type simEnv struct {
	cfg netsession.Scenario
}

// setupSimMonth fixes the scenario from the seed and warms the process with
// a small discarded run, so the timed runs start on a grown heap.
func setupSimMonth(rc *runCtx) (env, error) {
	if _, _, err := simulate(nil, scenario(netsession.SmallScenario(), rc)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &simEnv{cfg: scenario(netsession.DefaultScenario(), rc)}, nil
}

// scenario gives a stock scenario the run's seed, scale and two workers.
func scenario(cfg netsession.Scenario, rc *runCtx) netsession.Scenario {
	cfg.NumPeers /= rc.scale
	cfg.TotalDownloads /= rc.scale
	cfg.Seed = rc.seed
	cfg.Workers = 2
	return cfg
}

func (e *simEnv) close() {}

// simulate runs one scenario and renders its full report; it returns the
// number of simulated downloads and a digest of the download log.
func simulate(rec *recorder, cfg netsession.Scenario) (downloads int, digest uint64, err error) {
	op := rec.op()
	sp := rec.begin(0, op, "sim", "run")
	ex, err := netsession.RunExperiment(cfg)
	rec.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = rec.begin(0, op, "analysis", "report")
	text := ex.Report()
	rec.end(sp)
	if len(text) == 0 {
		return 0, 0, fmt.Errorf("empty report")
	}
	log := ex.Result().Log.Downloads
	h := fnv.New64a()
	var buf [8 * 5]byte
	for i := range log {
		d := &log[i]
		h.Write(d.GUID[:])
		h.Write(d.Object[:])
		binary.LittleEndian.PutUint64(buf[0:], uint64(d.StartMs))
		binary.LittleEndian.PutUint64(buf[8:], uint64(d.EndMs))
		binary.LittleEndian.PutUint64(buf[16:], uint64(d.BytesInfra))
		binary.LittleEndian.PutUint64(buf[24:], uint64(d.BytesPeers))
		binary.LittleEndian.PutUint64(buf[32:], uint64(d.Outcome)<<32|uint64(len(d.FromPeers)))
		h.Write(buf[:])
	}
	return len(log), h.Sum64(), nil
}

// run repeats the month until the run's seconds are used, at least twice,
// and reports the median repetition. The same seed must give the same log.
func (e *simEnv) run(rc *runCtx) (*outcome, error) {
	var (
		out       outcome
		first     uint64
		downloads int
	)
	start := time.Now()
	for len(out.lat) < 2 || time.Since(start) < rc.duration() {
		runtime.GC() // every repetition starts from a collected heap; untimed
		t := time.Now()
		n, digest, err := simulate(rc.rec, e.cfg)
		if err != nil {
			return nil, err
		}
		out.lat = append(out.lat, float64(time.Since(t))/1e6)
		out.attempted++
		if len(out.lat) == 1 {
			first, downloads = digest, n
			fmt.Printf("  download log digest %016x (%d downloads)\n", digest, n)
		} else if digest != first || n != downloads {
			out.fail(fmt.Sprintf("repetition %d: digest %016x (%d downloads), first was %016x (%d)", len(out.lat), digest, n, first, downloads))
		}
		if n == 0 {
			out.fail("simulation produced no downloads")
		}
	}
	out.opsPerSec = float64(downloads) / (median(out.lat) / 1e3)
	out.extra = append(out.extra, metric{"sim_downloads_per_s", "1/s", out.opsPerSec, len(out.lat)})
	return &out, nil
}
