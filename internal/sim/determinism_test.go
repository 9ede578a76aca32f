package sim

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"netsession/internal/accounting"
	"netsession/internal/analysis"
	"netsession/internal/geo"
	"netsession/internal/id"
)

// TestDeterminismAcrossWorkers is the sharding contract: one seed must
// produce byte-identical logs — downloads including per-peer attributions,
// and registrations — whether the region shards run sequentially (Workers=1,
// the reference ordering) or on a parallel worker pool, and the analyses
// over those logs must agree to the last bit. Shards share no mutable state
// and the merge order is a pure function of the records, so worker count
// and goroutine scheduling must be invisible in the output. Logins are not
// compared: they are generated from the population alone, never by a shard.
func TestDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		return runSmall(t, func(c *ScenarioConfig) {
			tinyScenario(c)
			c.Workers = workers
		})
	}
	headlines := func(r *Result) analysis.Headlines {
		return analysis.Analyze(r.Input(), 5).Headlines()
	}

	ref := run(1)
	refLog := logBytes(t, ref)
	refHead := headlines(ref)
	if ref.Events == 0 {
		t.Fatal("reference run executed no events")
	}

	for _, workers := range []int{2, 4} {
		got := run(workers)
		if !bytes.Equal(logBytes(t, got), refLog) {
			t.Fatalf("workers=%d log differs from the sequential reference", workers)
		}
		if got.Events != ref.Events {
			t.Fatalf("workers=%d executed %d events, reference %d", workers, got.Events, ref.Events)
		}
		if h := headlines(got); !reflect.DeepEqual(h, refHead) {
			t.Fatalf("workers=%d headline numbers differ from the sequential reference:\n%+v\nvs\n%+v", workers, h, refHead)
		}
	}
}

// TestRegionSampleMatchesFullRun is the RegionSample contract at small
// scale: because region shards are causally independent, a run that
// simulates only two regions must reproduce exactly the records a full run
// attributes to those regions, in the same merge order.
func TestRegionSampleMatchesFullRun(t *testing.T) {
	sample := []geo.NetworkRegion{1, 4}
	full := runSmall(t, tinyScenario)
	part := runSmall(t, func(c *ScenarioConfig) {
		tinyScenario(c)
		c.RegionSample = sample
	})

	inSample := func(ip netip.Addr) bool {
		r := geo.RegionOf(full.Scape.MustLookup(ip))
		return r == sample[0] || r == sample[1]
	}
	var wantDl []accounting.DownloadRecord
	for _, d := range full.Log.Downloads {
		if inSample(d.IP) {
			wantDl = append(wantDl, d)
		}
	}
	if len(wantDl) == 0 {
		t.Fatal("full run has no downloads in the sampled regions")
	}
	if len(part.Log.Downloads) != len(wantDl) {
		t.Fatalf("sampled run has %d downloads, full run has %d in those regions",
			len(part.Log.Downloads), len(wantDl))
	}
	for i := range wantDl {
		if !reflect.DeepEqual(part.Log.Downloads[i], wantDl[i]) {
			t.Fatalf("download %d differs between sampled and full run", i)
		}
	}
	sampledGUID := make(map[id.GUID]bool)
	for _, spec := range full.Pop.Peers {
		if r := geo.RegionOf(spec.Home); r == sample[0] || r == sample[1] {
			sampledGUID[spec.GUID] = true
		}
	}
	var wantReg []accounting.RegistrationRecord
	for _, r := range full.Log.Registrations {
		if sampledGUID[r.GUID] {
			wantReg = append(wantReg, r)
		}
	}
	if !reflect.DeepEqual(part.Log.Registrations, wantReg) {
		t.Fatal("registrations differ between sampled and full run")
	}
}

// TestDeterminismSampledM exercises the determinism contract at the M
// tier's per-shard population — a quarter-million-peer world sampled down
// to two region shards — without paying for all twelve shards. This is the
// paper-scale variant of TestDeterminismAcrossWorkers.
func TestDeterminismSampledM(t *testing.T) {
	if testing.Short() {
		t.Skip("M-tier sampled determinism run takes ~a minute")
	}
	// Each run is reduced to its event count, download count and a streamed
	// digest of the whole log, and released before the next one starts, so
	// the process holds one M result at a time.
	run := func(workers int) (events, downloads int, digest uint64) {
		cfg := MScenario()
		cfg.Workers = workers
		cfg.RegionSample = []geo.NetworkRegion{1, 4}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Events, len(res.Log.Downloads), logDigest(t, res.Log)
	}
	refEvents, refDownloads, refDigest := run(1)
	if refDownloads < 50_000 {
		t.Fatalf("sampled M run produced only %d downloads", refDownloads)
	}
	runtime.GC()
	events, downloads, digest := run(4)
	if events != refEvents {
		t.Fatalf("workers=4 executed %d events, reference %d", events, refEvents)
	}
	if downloads != refDownloads || digest != refDigest {
		t.Fatalf("workers=4 sampled M log (%d downloads, digest %016x) differs from the sequential reference (%d, %016x)",
			downloads, digest, refDownloads, refDigest)
	}
	// The budget covers this test and every test of the package before it;
	// -race multiplies memory, so it is only reported there.
	rss := peakRSSMB(t)
	t.Logf("peak RSS %d MB (budget %d MB)", rss, sampledMRSSMB)
	if rss > sampledMRSSMB && !raceEnabled() {
		t.Fatalf("peak RSS %d MB exceeds the %d MB budget", rss, sampledMRSSMB)
	}
}

// sampledMRSSMB is the peak-RSS budget of TestDeterminismSampledM: a sampled
// M run retains no logins, so the package's tests fit in 2 GB.
const sampledMRSSMB = 2048

// logDigest is the fnv64a of the log's records, JSON-encoded one at a time
// so the serialised log never exists in memory.
func logDigest(t *testing.T, l *accounting.Log) uint64 {
	t.Helper()
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	encode := func(rec any) {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := range l.Downloads {
		encode(&l.Downloads[i])
	}
	for i := range l.Registrations {
		encode(&l.Registrations[i])
	}
	return h.Sum64()
}
