package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"netsession"
	"netsession/internal/analysis"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/logpipe"
)

// ingestBatchSizes are drawn per batch, so every run sees the same mix of
// single-record trickle and sealed-segment uploads.
var ingestBatchSizes = []int{1, 8, 64}

// ingestWarmup is how many 8-record batches set-up uploads and discards.
const ingestWarmup = 10

// ingestEnv is a control plane with a durable segment store behind its log
// ingest endpoint.
type ingestEnv struct {
	c      *netsession.Cluster
	logDir string
	url    string
	ips    []string
	object string
	http   *http.Client
	// acked counts the records the endpoint has acknowledged since set-up.
	acked int
}

// uploader is one closed-loop log uploader with its own GUID and sequence.
type uploader struct {
	e    *ingestEnv
	rng  *rand.Rand
	guid string
	seq  uint64
	recs int64 // records built so far; makes every record unique
}

func setupLogIngest(rc *runCtx) (env, error) {
	dir, err := os.MkdirTemp(rc.dir, "ingest-")
	if err != nil {
		return nil, err
	}
	cfg := netsession.DefaultClusterConfig()
	cfg.LogDir = dir
	cfg.VerifyAccounting = false // synthetic reports have no edge ledger entry
	c, err := netsession.StartCluster(cfg)
	if err != nil {
		return nil, err
	}
	e := &ingestEnv{
		c: c, logDir: dir, url: c.ControlPlaneURL() + logpipe.BatchPath,
		http: &http.Client{Timeout: opTimeout},
	}
	obj, err := netsession.NewObject(7003, fmt.Sprintf("bench/seed-%d/logged.bin", rc.seed), 1, 64<<20, 1<<20, true)
	if err != nil {
		e.close()
		return nil, err
	}
	e.object = logpipe.EncodeObjectID(obj.ID)
	for i := 0; i < 16; i++ {
		ip, err := c.AllocateIdentity(liveCountry)
		if err != nil {
			e.close()
			return nil, err
		}
		e.ips = append(e.ips, ip)
	}
	// Warm up the connection, the gzip pools and the store's first segment.
	u := e.uploader(rc.seed, clients)
	for i := 0; i < ingestWarmup; i++ {
		if _, _, bad := u.post(nil, 8); bad != "" {
			e.close()
			return nil, fmt.Errorf("warm-up: %s", bad)
		}
		e.acked += 8
	}
	return e, nil
}

func (e *ingestEnv) close() {
	e.c.Close()
	os.RemoveAll(e.logDir)
}

func (e *ingestEnv) uploader(seed int64, n int) *uploader {
	rng := clientRand(seed, n)
	return &uploader{e: e, rng: rng, guid: id.RandGUID(rng).String()}
}

// line builds one log entry no other call has built.
func (u *uploader) line() ([]byte, error) {
	u.recs++
	peers := int64(u.rng.Intn(40 << 20))
	return json.Marshal(&logpipe.Entry{
		Kind: logpipe.EntryKindDownload, GUID: u.guid, IP: u.e.ips[u.rng.Intn(len(u.e.ips))],
		Object: u.e.object, URLHash: "bench/logged.bin", CP: 7003, Size: 64 << 20,
		StartMs: u.recs, EndMs: u.recs + 1 + int64(u.rng.Intn(60_000)),
		BytesInfra: 64<<20 - peers, BytesPeers: peers, PeersReturned: 2,
		FromPeers: []logpipe.EntryContribution{
			{GUID: id.RandGUID(u.rng).String(), Bytes: peers / 2},
			{GUID: id.RandGUID(u.rng).String(), Bytes: peers - peers/2},
		},
	})
}

// batch builds the gzip NDJSON body of n fresh records.
func (u *uploader) batch(n int) ([]byte, error) {
	lines := make([][]byte, n)
	for i := range lines {
		var err error
		if lines[i], err = u.line(); err != nil {
			return nil, err
		}
	}
	return logpipe.MarshalSegment(lines)
}

// stamp gives the request the uploader's identity and its next sequence
// number, so no batch is ever taken for a resend.
func (u *uploader) stamp(req *http.Request) {
	u.seq++
	req.Header.Set(logpipe.HeaderGUID, u.guid)
	req.Header.Set(logpipe.HeaderSeq, strconv.FormatUint(u.seq, 10))
}

// post builds one batch of n records and uploads it; it returns the POST's
// duration and the records acknowledged.
func (u *uploader) post(rec *recorder, n int) (ms float64, accepted int, bad string) {
	body, err := u.batch(n)
	if err != nil {
		return 0, 0, err.Error()
	}
	req, err := http.NewRequest(http.MethodPost, u.e.url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err.Error()
	}
	u.stamp(req)

	sp := rec.begin(0, rec.op(), "logpipe", "batch-post")
	start := time.Now()
	resp, err := u.e.http.Do(req)
	if err != nil {
		rec.end(sp)
		return 0, 0, err.Error()
	}
	var br logpipe.BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	ms = float64(time.Since(start)) / 1e6
	rec.end(sp)
	switch {
	case resp.StatusCode != http.StatusOK:
		return ms, 0, "batch POST: " + resp.Status
	case err != nil:
		return ms, 0, "batch reply: " + err.Error()
	case br.Duplicate || br.Rejected != 0 || br.Accepted != n:
		return ms, br.Accepted, fmt.Sprintf("batch of %d: %+v", n, br)
	}
	return ms, br.Accepted, ""
}

func (e *ingestEnv) run(rc *runCtx) (*outcome, error) {
	var (
		mu      sync.Mutex
		out     outcome
		records int
		batchMs []float64
	)
	start := time.Now()
	deadline := start.Add(rc.duration())
	eachClient(func(cl int) {
		u := e.uploader(rc.seed, cl)
		for time.Now().Before(deadline) {
			n := ingestBatchSizes[u.rng.Intn(len(ingestBatchSizes))]
			ms, accepted, bad := u.post(rc.rec, n)
			mu.Lock()
			out.attempted++
			records += accepted
			if bad != "" {
				out.fail(bad)
			} else {
				batchMs = append(batchMs, ms)
				// The operation is a record: each waits as long as its batch.
				for i := 0; i < accepted; i++ {
					out.lat = append(out.lat, ms)
				}
			}
			mu.Unlock()
		}
	})
	elapsed := time.Since(start).Seconds()
	out.opsPerSec = float64(records) / elapsed
	e.acked += records

	// Everything acknowledged must be in the segment store, once.
	stored, err := logpipe.ReadDownloads(e.logDir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(stored))
	for i := range stored {
		seen[stored[i].GUID+"/"+strconv.FormatInt(stored[i].StartMs, 10)] = true
	}
	if len(stored) != e.acked || len(seen) != len(stored) {
		out.fail(fmt.Sprintf("store holds %d records (%d distinct), %d were acknowledged", len(stored), len(seen), e.acked))
	}
	s := sortedCopy(batchMs)
	out.extra = append(out.extra,
		metric{"ingest_records_per_s", "1/s", out.opsPerSec, records},
		metric{"ingest_batch_ms_p50", "ms", quantile(s, 0.5), len(s)},
		metric{"ingest_batch_ms_p90", "ms", quantile(s, 0.9), len(s)})
	return &out, nil
}

const (
	analyzeRecords = 128_000
	analyzeWorkers = 2
)

// analyzeEnv is a sealed segment store on disk; nothing live runs.
type analyzeEnv struct {
	dir     string
	records int
	guids   int // distinct downloader GUIDs written
}

func setupAnalyzeOffline(rc *runCtx) (env, error) {
	dir, err := os.MkdirTemp(rc.dir, "analyze-")
	if err != nil {
		return nil, err
	}
	e := &analyzeEnv{dir: dir, records: analyzeRecords / rc.scale}
	if e.guids, err = writeSyntheticStore(dir, rc.seed, e.records); err != nil {
		return nil, err
	}
	// Warm up the page cache and the decoder pools; the pass is discarded.
	if _, err := e.pass(nil); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *analyzeEnv) close() { os.RemoveAll(e.dir) }

// place is where a synthetic peer lives.
type place struct {
	country, region string
	asn             uint32
}

// recordGen draws synthetic download records: a seeded mix of GUIDs, URLs,
// ASes and regions, two contributing peers on each peer-assisted record.
type recordGen struct {
	rng    *rand.Rand
	guids  []string
	places []place
	urls   *rand.Zipf
	used   map[int]bool // downloader GUIDs drawn so far
	n      int64
}

// newRecordGen sizes the GUID pool for a log of n records.
func newRecordGen(seed int64, n int) *recordGen {
	g := &recordGen{rng: rand.New(rand.NewSource(seed)), used: map[int]bool{}}
	g.guids = make([]string, n/4+1)
	for i := range g.guids {
		g.guids[i] = id.RandGUID(g.rng).String()
	}
	g.places = make([]place, 400)
	for i := range g.places {
		r := geo.NetworkRegion(i % geo.NumRegions)
		g.places[i] = place{fmt.Sprintf("C%d", i%40), r.String(), uint32(1000 + i)}
	}
	g.urls = rand.NewZipf(g.rng, 1.1, 1, 1999)
	return g
}

func (g *recordGen) next() *analysis.OfflineDownload {
	rng := g.rng
	who := rng.Intn(len(g.guids))
	g.used[who] = true
	at, size, url := g.places[who%len(g.places)], int64(1+rng.Intn(500))<<20, g.urls.Uint64()
	p2p := rng.Intn(10) < 7
	peers := int64(0)
	if p2p {
		peers = rng.Int63n(size)
	}
	g.n++
	d := &analysis.OfflineDownload{
		GUID: g.guids[who], IP: fmt.Sprintf("10.%d.%d.%d", who>>16&255, who>>8&255, who&255),
		Country: at.country, ASN: at.asn, Region: at.region,
		Object: fmt.Sprintf("%064x", url), URLHash: fmt.Sprintf("url-%d", url),
		CP: 7004, Size: size, P2PEnabled: p2p, StartMs: g.n * 5, EndMs: g.n*5 + 1 + rng.Int63n(600_000),
		BytesInfra: size - peers, BytesPeers: peers, Outcome: "completed", Peers: 2,
	}
	if rng.Intn(20) == 0 {
		d.Outcome = "aborted"
	}
	for c := int64(0); p2p && c < 2; c++ {
		from := g.places[rng.Intn(len(g.places))]
		d.FromPeers = append(d.FromPeers, analysis.OfflineContribution{
			GUID: g.guids[rng.Intn(len(g.guids))], Country: from.country, ASN: from.asn, Region: from.region,
			Bytes: peers/2 + c*(peers%2),
		})
	}
	return d
}

// writeSyntheticStore writes n generated records as sealed segments and
// returns how many distinct downloader GUIDs they name.
func writeSyntheticStore(dir string, seed int64, n int) (distinct int, err error) {
	w, err := logpipe.NewBulkWriter(dir, 4000)
	if err != nil {
		return 0, err
	}
	g := newRecordGen(seed, n)
	for i := 0; i < n; i++ {
		if err := w.Append(g.next()); err != nil {
			return 0, err
		}
	}
	return len(g.used), w.Close()
}

// pass is one offline streaming analysis of the whole store.
func (e *analyzeEnv) pass(rec *recorder) (logpipe.StoreSummary, error) {
	sp := rec.begin(0, rec.op(), "logpipe", "summarize-store")
	defer rec.end(sp)
	return logpipe.SummarizeStore(e.dir, analyzeWorkers)
}

// run repeats the pass until the run's seconds are used, at least three
// times, and reports the median pass.
func (e *analyzeEnv) run(rc *runCtx) (*outcome, error) {
	var out outcome
	start := time.Now()
	for len(out.lat) < 3 || time.Since(start) < rc.duration() {
		t := time.Now()
		sum, err := e.pass(rc.rec)
		if err != nil {
			return nil, err
		}
		out.lat = append(out.lat, float64(time.Since(t))/1e6)
		out.attempted++
		if sum.Records != e.records || sum.Summary.Downloads != e.records || sum.Summary.DistinctGUIDs != e.guids {
			out.fail(fmt.Sprintf("pass saw %d records, %d downloads, %d GUIDs; wrote %d records, %d GUIDs",
				sum.Records, sum.Summary.Downloads, sum.Summary.DistinctGUIDs, e.records, e.guids))
		}
	}
	out.opsPerSec = float64(e.records) / (median(out.lat) / 1e3)
	size := int64(0)
	segs, _ := filepath.Glob(filepath.Join(e.dir, "*"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			size += fi.Size()
		}
	}
	out.extra = append(out.extra,
		metric{"analyze_records_per_s", "1/s", out.opsPerSec, len(out.lat)},
		metric{"store_mb_on_disk", "MB", float64(size) / 1e6, len(segs)})
	return &out, nil
}
