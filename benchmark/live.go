package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"netsession"
	"netsession/internal/content"
	"netsession/internal/id"
	"netsession/internal/protocol"
	"netsession/internal/telemetry"
)

const (
	bulkSize      = 32 << 20
	bulkPieceSize = 256 << 10
	liveCountry   = "JP" // one region, so every peer can find every other
	clients       = 2    // closed-loop load generators; the box has 2 cores
	swarmSeeders  = 4
	opTimeout     = 60 * time.Second
)

// stageLayer names the layer each Download.Trace() stage spends its time in.
var stageLayer = map[string]string{
	telemetry.StageAuthorize:     "edge",
	telemetry.StageManifest:      "edge",
	telemetry.StageEdgeFetch:     "edge",
	telemetry.StagePeerLookup:    "controlplane",
	telemetry.StageSwarmConnect:  "swarm",
	telemetry.StagePieceTransfer: "swarm",
}

// liveEnv is a running deployment with one published object.
type liveEnv struct {
	c        *netsession.Cluster
	obj      *netsession.Object
	manifest *content.Manifest // computed by the benchmark, to check outputs
	p2p      bool
	seeders  []*netsession.Peer
	// setupDownloads is how many downloads set-up itself made (seeders and
	// warm-up); the accounting log must hold them too.
	setupDownloads int
}

// edge_bulk: a non-p2p object, so the edge tier, hashing and the piece store
// do all the work and the swarm and peer selection do none.
func setupEdgeBulk(rc *runCtx) (env, error) {
	return setupLive(rc, netsession.DefaultClusterConfig(), false, bulkSize)
}

// swarm_bulk: four pre-seeded uploaders on loopback and an edge that answers
// 5 ms late, standing in for the WAN round trip that makes a nearby peer the
// better source.
func setupSwarmBulk(rc *runCtx) (env, error) {
	cfg := netsession.DefaultClusterConfig()
	cfg.EdgeFaults = netsession.FaultProfile{LatencyMin: 5 * time.Millisecond, LatencyMax: 5 * time.Millisecond}
	// Uploaders serve every leecher of the run: no per-object cap, and a
	// connection limit no run reaches (0 would select the default of 8).
	cfg.ClientConfig.PerObjectUploadCap = 0
	cfg.ClientConfig.MaxUploadConns = 1024
	return setupLive(rc, cfg, true, bulkSize)
}

func setupLive(rc *runCtx, cfg netsession.ClusterConfig, p2p bool, size int64) (env, error) {
	c, err := netsession.StartCluster(cfg)
	if err != nil {
		return nil, err
	}
	e := &liveEnv{c: c, p2p: p2p}
	url := fmt.Sprintf("bench/seed-%d/bulk.bin", rc.seed)
	if e.obj, err = netsession.NewObject(7001, url, 1, size, bulkPieceSize, p2p); err == nil {
		err = c.Publish(e.obj)
	}
	if err == nil {
		e.manifest, err = content.SyntheticManifest(e.obj)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(rc.seed))
	if p2p {
		if err := e.seed(rng); err != nil {
			e.close()
			return nil, err
		}
	}
	// Warm up: one discarded download, repeated on the swarm until the
	// control plane returns every seeder, so timing starts on a full swarm.
	for try := 0; ; try++ {
		d := e.download(nil, rng, false)
		e.setupDownloads++
		if d.bad != "" {
			e.close()
			return nil, fmt.Errorf("warm-up download: %s", d.bad)
		}
		if !p2p || d.res.PeersReturned >= swarmSeeders {
			return e, nil
		}
		if try == 50 {
			e.close()
			return nil, fmt.Errorf("warm-up: control plane returned %d of %d seeders", d.res.PeersReturned, swarmSeeders)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (e *liveEnv) newPeer(g id.GUID, uploads bool) (*netsession.Peer, error) {
	ip, err := e.c.AllocateIdentity(liveCountry)
	if err != nil {
		return nil, err
	}
	return netsession.NewPeer(netsession.PeerConfig{
		GUID:           g,
		DeclaredIP:     ip,
		ControlAddrs:   e.c.ControlAddrs(),
		EdgeURL:        e.c.EdgeURL(),
		UploadsEnabled: uploads,
	})
}

// seed starts the uploaders and has each fetch the whole object.
func (e *liveEnv) seed(rng *rand.Rand) error {
	errs := make(chan error, swarmSeeders)
	for i := 0; i < swarmSeeders; i++ {
		p, err := e.newPeer(id.RandGUID(rng), true)
		if err != nil {
			return err
		}
		e.seeders = append(e.seeders, p)
		e.setupDownloads++
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			defer cancel()
			dl, err := p.Download(e.obj.ID)
			if err == nil {
				_, err = dl.Wait(ctx)
			}
			if err == nil && !p.Store().Complete(e.obj.ID) {
				err = fmt.Errorf("seeder store incomplete")
			}
			errs <- err
		}()
	}
	for i := 0; i < swarmSeeders; i++ {
		if err := <-errs; err != nil {
			return fmt.Errorf("seeding: %w", err)
		}
	}
	return nil
}

func (e *liveEnv) close() {
	for _, p := range e.seeders {
		p.Close()
	}
	e.c.Close()
}

// downloaded is one finished leecher session.
type downloaded struct {
	loginMs float64 // NewPeer: listener, control connection, login
	ms      float64 // Peer.Download call until Wait returns
	res     *netsession.DownloadResult
	trace   telemetry.TraceSnapshot // the client's own stage summaries
	bad     string                  // the correctness gate that failed, if any
}

// download runs one leecher session: a fresh peer logs in, downloads the
// object, the output is checked, and the peer closes. rng supplies the GUID
// and the pieces to re-hash; fullCheck re-hashes every piece.
func (e *liveEnv) download(rec *recorder, rng *rand.Rand, fullCheck bool) (d downloaded) {
	op := rec.op()
	root := rec.begin(0, op, "peer", "session")
	defer rec.end(root)

	sp := rec.begin(root, op, "peer", "login")
	start := time.Now()
	p, err := e.newPeer(id.RandGUID(rng), false)
	d.loginMs = float64(time.Since(start)) / 1e6
	rec.end(sp)
	if err != nil {
		d.bad = "login: " + err.Error()
		return d
	}
	defer func() {
		sp := rec.begin(root, op, "peer", "close")
		p.Close()
		rec.end(sp)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	sp = rec.begin(root, op, "peer", "download")
	start = time.Now()
	dl, err := p.Download(e.obj.ID)
	if err == nil {
		d.res, err = dl.Wait(ctx)
	}
	d.ms = float64(time.Since(start)) / 1e6
	rec.end(sp)
	if err != nil {
		d.bad = "download: " + err.Error()
		return d
	}
	d.trace = dl.Trace().Snapshot()
	addStageSpans(rec, sp, op, d.trace)

	sp = rec.begin(root, op, "benchmark", "verify")
	d.bad = e.check(p, d.res, rng, fullCheck)
	rec.end(sp)
	return d
}

// addStageSpans turns the stage summaries of a finished download into child
// spans of the download span. A stage that ran many times is one window from
// its first start to its last end, weighted by its mean concurrency there.
func addStageSpans(rec *recorder, parent, op int, snap telemetry.TraceSnapshot) {
	if rec == nil {
		return
	}
	for _, st := range snap.Stages {
		layer, ok := stageLayer[st.Name]
		if !ok || st.Last <= st.First {
			continue
		}
		weight := float64(st.Total) / float64(st.Last-st.First)
		rec.add(parent, op, layer, st.Name, snap.Start.Add(st.First), snap.Start.Add(st.Last), weight)
	}
}

// check applies the per-download correctness gates.
func (e *liveEnv) check(p *netsession.Peer, res *netsession.DownloadResult, rng *rand.Rand, full bool) string {
	switch {
	case res.Outcome != protocol.OutcomeCompleted:
		return "outcome " + res.Outcome.String()
	case !p.Store().Complete(e.obj.ID):
		return "store incomplete"
	case res.BytesInfra+res.BytesPeers != e.obj.Size:
		return fmt.Sprintf("bytes %d+%d != size %d", res.BytesInfra, res.BytesPeers, e.obj.Size)
	case !e.p2p && res.BytesPeers != 0:
		return fmt.Sprintf("%d peer bytes on a non-p2p object", res.BytesPeers)
	}
	// The client verified every piece against the edge's manifest; re-hash
	// against the benchmark's own manifest too — all pieces when asked, else
	// a few, since hashing 32 MiB per download would compete for the CPU.
	n, picks := e.obj.NumPieces(), 4
	if full {
		picks = n
	}
	for k := 0; k < picks; k++ {
		i := k
		if !full {
			i = rng.Intn(n)
		}
		data, ok := p.Store().Get(e.obj.ID, i)
		if !ok {
			return fmt.Sprintf("piece %d missing from store", i)
		}
		if err := e.manifest.Verify(i, data); err != nil {
			return fmt.Sprintf("piece %d: %v", i, err)
		}
	}
	return ""
}

// run drives the closed loop: each client starts its next session only when
// the previous one has finished.
func (e *liveEnv) run(rc *runCtx) (*outcome, error) {
	before := e.byteCounters()
	var (
		mu   sync.Mutex
		out  outcome
		peer int64
		all  int64
	)
	start := time.Now()
	deadline := start.Add(rc.duration())
	eachClient(func(cl int) {
		rng := clientRand(rc.seed, cl)
		for first := true; time.Now().Before(deadline); first = false {
			d := e.download(rc.rec, rng, first)
			mu.Lock()
			out.attempted++
			if d.bad != "" {
				out.fail(d.bad)
			} else {
				out.lat = append(out.lat, d.ms)
				peer += d.res.BytesPeers
				all += d.res.BytesPeers + d.res.BytesInfra
			}
			mu.Unlock()
		}
	})
	elapsed := time.Since(start).Seconds()
	done := len(out.lat)
	out.opsPerSec = float64(done) / elapsed

	share := 0.0
	if all > 0 {
		share = float64(peer) / float64(all)
	}
	if e.p2p && share < 0.5 {
		out.fail(fmt.Sprintf("peer_byte_share %.3f < 0.5: the swarm did not carry the workload", share))
	}
	out.extra = append(out.extra,
		metric{"goodput_mbps", "MB/s", float64(all) / 1e6 / elapsed, done},
		metric{"peer_byte_share", "ratio", share, done})
	after := e.byteCounters()
	if sent := after - before; sent > 0 {
		out.extra = append(out.extra, metric{"useful_byte_ratio", "ratio", float64(all) / float64(sent), done})
	}

	// Every download, set-up's included, must have produced one verified
	// accounting record; reports ride the control connection, so give the
	// last ones a moment to land.
	want := e.setupDownloads + out.attempted
	var got int
	for wait := time.Now().Add(3 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		got = len(e.c.AccountingLog().Downloads)
		if got >= want || time.Now().After(wait) {
			break
		}
	}
	if got != want {
		out.fail(fmt.Sprintf("accounting log holds %d download records, want %d", got, want))
	}
	if r := e.c.RejectedReports(); r != 0 {
		out.fail(fmt.Sprintf("%d usage reports rejected", r))
	}
	return &out, nil
}

// byteCounters sums what the program's own counters say was sent towards
// downloaders: bytes the edge served plus bytes the seeders uploaded.
func (e *liveEnv) byteCounters() int64 {
	total := counterSum(edgeSnapshot(e.c.EdgeURL()), "edge_bytes_served_total")
	for _, p := range e.seeders {
		total += counterSum(p.Metrics().Snapshot(), "peer_bytes_up_total")
	}
	return total
}

// edgeSnapshot reads the edge tier's registry the way the monitor does.
func edgeSnapshot(edgeURL string) telemetry.Snapshot {
	var snap telemetry.Snapshot
	resp, err := http.Get(edgeURL + "/v1/telemetry")
	if err != nil {
		return snap
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&snap) // a missing counter reads as 0 and drops the ratio
	return snap
}

// counterSum adds every labelled series of one counter.
func counterSum(s telemetry.Snapshot, name string) int64 {
	var n int64
	for key, v := range s.Counters {
		if key == name || (len(key) > len(name) && key[:len(name)] == name && key[len(name)] == '{') {
			n += v
		}
	}
	return n
}
