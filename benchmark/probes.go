package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"netsession"
	"netsession/internal/analysis"
	"netsession/internal/content"
	"netsession/internal/edge"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/logpipe"
	"netsession/internal/protocol"
	"netsession/internal/selection"
	"netsession/internal/telemetry"
)

// tracedLayers are the layers a workload's spans can name; a traced run
// reports each one's share of the workload's wall time, zero when idle.
// "benchmark" is the harness's own output checking inside the loop.
var tracedLayers = []string{"edge", "controlplane", "swarm", "peer", "logpipe", "analysis", "sim", "benchmark"}

// perLayer declares the per-layer metrics of ../BENCHMARK.json. The shares
// and the three workload numbers come from the traced workload itself; the
// rest are outside-in probes of single layers, run the same way after every
// traced workload so that they can be compared across workloads and commits.
var perLayer = func() []decl {
	ds := []decl{}
	for _, l := range tracedLayers {
		ds = append(ds, decl{Name: "share." + l, Unit: "ratio", Better: "lower"})
	}
	return append(ds,
		decl{Name: "op_ms_tail", Unit: "ms", Better: "lower"},
		decl{Name: "goodput_mbps", Unit: "MB/s", Better: "higher"},
		decl{Name: "peer_byte_share", Unit: "ratio", Better: "higher"},

		decl{Name: "protocol.piece_roundtrip_16k_ns", Unit: "ns", Better: "lower"},
		decl{Name: "protocol.piece_allocs_16k", Unit: "count", Better: "lower"},
		decl{Name: "protocol.piece_roundtrip_256k_ns", Unit: "ns", Better: "lower"},
		decl{Name: "protocol.piece_allocs_256k", Unit: "count", Better: "lower"},
		decl{Name: "content.hash_mbps", Unit: "MB/s", Better: "higher"},
		decl{Name: "content.store_put_ns", Unit: "ns", Better: "lower"},
		decl{Name: "selection.select40_us", Unit: "us", Better: "lower"},
		decl{Name: "selection.select_allocs", Unit: "count", Better: "lower"},
		decl{Name: "selection.register_us", Unit: "us", Better: "lower"},
		decl{Name: "logpipe.store_append_per_s", Unit: "1/s", Better: "higher"},
		decl{Name: "logpipe.ingest_handler_ms", Unit: "ms", Better: "lower"},
		decl{Name: "logpipe.segment_marshal_mbps", Unit: "MB/s", Better: "higher"},
		decl{Name: "logpipe.segment_read_mbps", Unit: "MB/s", Better: "higher"},
		decl{Name: "analysis.accumulate_per_s", Unit: "1/s", Better: "higher"},
		decl{Name: "analysis.report_s", Unit: "s", Better: "lower"},
		decl{Name: "sim.run_s", Unit: "s", Better: "lower"},
		decl{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
		decl{Name: "edge.authorize_ms", Unit: "ms", Better: "lower"},
		decl{Name: "edge.manifest_ms", Unit: "ms", Better: "lower"},
		decl{Name: "edge.fetch_piece_mbps", Unit: "MB/s", Better: "higher"},
		decl{Name: "controlplane.login_ms", Unit: "ms", Better: "lower"},
		decl{Name: "controlplane.query_rtt_ms", Unit: "ms", Better: "lower"},
		decl{Name: "controlplane.register_per_s", Unit: "1/s", Better: "higher"},
		decl{Name: "peer.login_ms", Unit: "ms", Better: "lower"},
		decl{Name: "peer.stage_ms.authorize", Unit: "ms", Better: "lower"},
		decl{Name: "peer.stage_ms.manifest", Unit: "ms", Better: "lower"},
		decl{Name: "peer.stage_ms.edge-fetch", Unit: "ms", Better: "lower"},
		decl{Name: "peer.stage_ms.peer-lookup", Unit: "ms", Better: "lower"},
		decl{Name: "peer.stage_ms.swarm-connect", Unit: "ms", Better: "lower"},
		decl{Name: "peer.stage_ms.piece-transfer", Unit: "ms", Better: "lower"},
		decl{Name: "peer.first_peer_request_ms", Unit: "ms", Better: "lower"},
		decl{Name: "peer.self_ms", Unit: "ms", Better: "lower"},
		decl{Name: "peer.useful_byte_ratio", Unit: "ratio", Better: "higher"},
	)
}()

// probeFor is how long each repeated probe keeps calling its layer.
const probeFor = 150 * time.Millisecond

// repeat calls fn until probeFor has passed and returns the calls made and
// the seconds they took.
func repeat(fn func() error) (n int, secs float64, err error) {
	start := time.Now()
	for time.Since(start) < probeFor {
		if err := fn(); err != nil {
			return n, 0, err
		}
		n++
	}
	return n, time.Since(start).Seconds(), nil
}

// mallocs returns how many heap objects fn's calls allocated per call.
func mallocs(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// runProbes measures every layer from outside, one after the other, and
// returns the probe metrics in perLayer's order.
func runProbes(rc *runCtx) ([]metric, error) {
	var out []metric
	for _, probe := range []func(*runCtx) ([]metric, error){
		probeProtocol, probeContent, probeSelection, probeLogpipe, probeAnalysis, probeSim, probeLive,
	} {
		ms, err := probe(rc)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// probeProtocol frames Piece messages across an in-memory pipe: the cost of
// the swarm codec per piece, without sockets.
func probeProtocol(rc *runCtx) ([]metric, error) {
	var out []metric
	for _, sz := range []struct {
		label string
		bytes int
	}{{"16k", 16 << 10}, {"256k", 256 << 10}} {
		a, b := net.Pipe()
		piece := &protocol.Piece{Index: 7, Data: make([]byte, sz.bytes)}
		rand.New(rand.NewSource(rc.seed)).Read(piece.Data)
		stop := make(chan struct{})
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if protocol.WriteMessage(a, piece) != nil {
					return
				}
			}
		}()
		roundtrip := func() error {
			m, err := protocol.ReadMessage(b)
			if err == nil && len(m.(*protocol.Piece).Data) != sz.bytes {
				err = fmt.Errorf("piece of %d bytes read back as %d", sz.bytes, len(m.(*protocol.Piece).Data))
			}
			return err
		}
		n, secs, err := repeat(roundtrip)
		allocs := 0.0
		if err == nil {
			allocs = mallocs(200, func() { err = roundtrip() })
		}
		close(stop)
		b.Close() // unblocks a writer stuck mid-frame
		<-writerDone
		a.Close()
		if err != nil {
			return nil, err
		}
		out = append(out,
			metric{"protocol.piece_roundtrip_" + sz.label + "_ns", "ns", secs * 1e9 / float64(n), n},
			metric{"protocol.piece_allocs_" + sz.label, "count", allocs, 200})
	}
	return out, nil
}

// probeContent hashes pieces and puts verified pieces into the memory store.
func probeContent(rc *runCtx) ([]metric, error) {
	obj, err := netsession.NewObject(7005, fmt.Sprintf("bench/seed-%d/probe.bin", rc.seed), 1, 8<<20, bulkPieceSize, false)
	if err != nil {
		return nil, err
	}
	m, err := content.SyntheticManifest(obj)
	if err != nil {
		return nil, err
	}
	pieces := make([][]byte, obj.NumPieces())
	for i := range pieces {
		pieces[i] = make([]byte, obj.PieceLength(i))
		content.SyntheticBody(obj.ID, obj.PieceOffset(i), pieces[i])
	}
	i := 0
	n, secs, _ := repeat(func() error {
		content.HashPiece(pieces[i%len(pieces)])
		i++
		return nil
	})
	hash := metric{"content.hash_mbps", "MB/s", float64(n) * bulkPieceSize / 1e6 / secs, n}
	store := content.NewMemStore()
	i = 0
	n, secs, err = repeat(func() error {
		if i%len(pieces) == 0 {
			store = content.NewMemStore() // a full store would only overwrite
		}
		err := store.Put(m, i%len(pieces), pieces[i%len(pieces)])
		i++
		return err
	})
	if err != nil {
		return nil, err
	}
	return []metric{hash, {"content.store_put_ns", "ns", secs * 1e9 / float64(n), n}}, nil
}

// probeSelection registers 10,000 holders in one region's directory and
// selects 40 peers for requesters drawn from the same population.
func probeSelection(rc *runCtx) ([]metric, error) {
	atlas := geo.GenerateAtlas(geo.DefaultAtlasConfig())
	recs, err := geo.Identities(geo.NewEdgeScape(atlas), 10_000, rc.seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(rc.seed))
	oids := make([]content.ObjectID, 20)
	for i := range oids {
		oids[i] = content.NewObjectID(7006, "bench/probe/"+strconv.Itoa(i), 1)
	}
	entries := make([]selection.Entry, len(recs))
	for i, r := range recs {
		entries[i] = selection.Entry{
			Info: protocol.PeerInfo{GUID: id.RandGUID(rng), Addr: "127.0.0.1:9", NAT: protocol.NATNone, ASN: uint32(r.ASN), Location: uint32(r.Location)},
			Rec:  r, Complete: true, RegisteredMs: 1,
		}
	}
	dir := selection.NewDirectory(0)
	start := time.Now()
	for i := range entries {
		dir.Register(oids[i%len(oids)], entries[i])
	}
	register := metric{"selection.register_us", "us", time.Since(start).Seconds() * 1e6 / float64(len(entries)), len(entries)}

	policy := selection.DefaultPolicy()
	sel := func() error {
		who := rng.Intn(len(entries))
		peers := dir.Select(policy, selection.Query{
			Object: oids[rng.Intn(len(oids))], Requester: entries[who].Rec, RequesterGUID: entries[who].Info.GUID,
			RequesterNAT: protocol.NATNone, NowMs: 2, Max: mixMaxPeers, Rand: rng,
		})
		if len(peers) != mixMaxPeers {
			return fmt.Errorf("Select returned %d peers of %d asked from 500 holders", len(peers), mixMaxPeers)
		}
		return nil
	}
	n, secs, err := repeat(sel)
	if err != nil {
		return nil, err
	}
	allocs := mallocs(200, func() { err = sel() })
	if err != nil {
		return nil, err
	}
	return []metric{
		{"selection.select40_us", "us", secs * 1e6 / float64(n), n},
		{"selection.select_allocs", "count", allocs, 200},
		register,
	}, nil
}

// probeLogpipe exercises the write side (Store.Append, the ingest handler)
// and the segment codec both ways.
func probeLogpipe(rc *runCtx) ([]metric, error) {
	dir, err := os.MkdirTemp(rc.dir, "probe-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := logpipe.OpenStore(logpipe.StoreConfig{Dir: dir})
	if err != nil {
		return nil, err
	}
	gen := newRecordGen(rc.seed, 4000)
	n, secs, err := repeat(func() error { return st.Append(*gen.next()) })
	if err == nil {
		err = st.Close()
	}
	if err != nil {
		return nil, err
	}
	out := []metric{{"logpipe.store_append_per_s", "1/s", float64(n) / secs, n}}

	// The handler alone: entries are decoded and acknowledged, and handed to
	// a sink that keeps nothing.
	in := logpipe.NewIngest(logpipe.IngestConfig{Handle: func(id.GUID, *logpipe.Entry) error { return nil }})
	e := &ingestEnv{ips: []string{"10.0.0.1"}, object: logpipe.EncodeObjectID(content.NewObjectID(7006, "bench/probe/log", 1))}
	u := e.uploader(rc.seed, 0)
	handler := in.Handler()
	n, secs, err = repeat(func() error {
		body, err := u.batch(8)
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, logpipe.BatchPath, bytes.NewReader(body))
		u.stamp(req)
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return fmt.Errorf("ingest handler: %d %s", w.Code, w.Body)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"logpipe.ingest_handler_ms", "ms", secs * 1e3 / float64(n), n})

	lines := make([][]byte, 2000)
	raw := 0
	for i := range lines {
		if lines[i], err = u.line(); err != nil {
			return nil, err
		}
		raw += len(lines[i]) + 1
	}
	var blob []byte
	n, secs, err = repeat(func() (err error) {
		blob, err = logpipe.MarshalSegment(lines)
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"logpipe.segment_marshal_mbps", "MB/s", float64(n*raw) / 1e6 / secs, n})
	n, secs, err = repeat(func() error {
		got, err := logpipe.ReadSegment(bytes.NewReader(blob))
		if err == nil && len(got) != len(lines) {
			err = fmt.Errorf("segment of %d lines read back as %d", len(lines), len(got))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return append(out, metric{"logpipe.segment_read_mbps", "MB/s", float64(n*raw) / 1e6 / secs, n}), nil
}

// probeAnalysis folds pre-decoded records into the streaming summarizer.
func probeAnalysis(rc *runCtx) ([]metric, error) {
	gen := newRecordGen(rc.seed, 20_000)
	recs := make([]*analysis.OfflineDownload, 20_000)
	for i := range recs {
		recs[i] = gen.next()
	}
	sum := analysis.NewStreamingSummarizer(analyzeWorkers)
	i := 0
	n, secs, _ := repeat(func() error {
		sum.Observe(recs[i%len(recs)])
		i++
		return nil
	})
	if got := sum.Snapshot().Downloads; got != int64(n) {
		return nil, fmt.Errorf("summarizer counted %d of %d records", got, n)
	}
	return []metric{{"analysis.accumulate_per_s", "1/s", float64(n) / secs, n}}, nil
}

// probeSim runs the small scenario once and renders its report: the
// simulator alone, then the batch analyses alone.
func probeSim(rc *runCtx) ([]metric, error) {
	start := time.Now()
	ex, err := netsession.RunExperiment(scenario(netsession.SmallScenario(), rc))
	if err != nil {
		return nil, err
	}
	run := time.Since(start).Seconds()
	start = time.Now()
	if len(ex.Report()) == 0 {
		return nil, fmt.Errorf("empty report")
	}
	report := time.Since(start).Seconds()
	events := ex.Result().Events
	return []metric{
		{"analysis.report_s", "s", report, 1},
		{"sim.run_s", "s", run, 1},
		{"sim.events_per_s", "1/s", float64(events) / run, events},
	}, nil
}

// probeLive starts a small deployment — an 8 MiB p2p object on four seeders,
// no injected latency — and calls the edge, the control plane and the peer
// client from outside, one layer at a time.
func probeLive(rc *runCtx) ([]metric, error) {
	cfg := netsession.DefaultClusterConfig()
	cfg.ClientConfig.PerObjectUploadCap = 0
	got, err := setupLive(rc, cfg, true, 8<<20)
	if err != nil {
		return nil, err
	}
	e := got.(*liveEnv)
	defer e.close()
	rng := rand.New(rand.NewSource(rc.seed + 1))

	// Edge: the three calls a download makes, on their own.
	ec := &edge.Client{BaseURL: e.c.EdgeURL()}
	guid := id.RandGUID(rng)
	var auth *edge.Authorization
	n, secs, err := repeat(func() (err error) {
		auth, err = ec.Authorize(guid, e.obj.ID)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := []metric{{"edge.authorize_ms", "ms", secs * 1e3 / float64(n), n}}
	n, secs, err = repeat(func() error {
		_, err := ec.FetchManifest(e.obj.ID)
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"edge.manifest_ms", "ms", secs * 1e3 / float64(n), n})
	i := 0
	n, secs, err = repeat(func() error {
		data, err := ec.FetchPiece(e.manifest, auth.Token, i%e.obj.NumPieces())
		if err == nil {
			err = e.manifest.Verify(i%e.obj.NumPieces(), data)
		}
		i++
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"edge.fetch_piece_mbps", "MB/s", float64(n) * bulkPieceSize / 1e6 / secs, n})

	// Control plane: raw sessions against the connection node.
	addr := e.c.ControlAddrs()[0]
	ip, err := e.c.AllocateIdentity(liveCountry)
	if err != nil {
		return nil, err
	}
	n, secs, err = repeat(func() error {
		s, err := login(addr, id.RandGUID(rng), ip)
		if err != nil {
			return err
		}
		return s.conn.Close()
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"controlplane.login_ms", "ms", secs * 1e3 / float64(n), n})
	s, err := login(addr, guid, ip)
	if err != nil {
		return nil, err
	}
	defer s.conn.Close()
	query := &protocol.Query{Object: e.obj.ID, Token: auth.Token, MaxPeers: mixMaxPeers}
	n, secs, err = repeat(func() error {
		if err := protocol.WriteMessage(s.conn, query); err != nil {
			return err
		}
		qr, err := await[*protocol.QueryResult](s)
		if err == nil && checkResult(qr) != "" {
			err = fmt.Errorf("%s", checkResult(qr))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"controlplane.query_rtt_ms", "ms", secs * 1e3 / float64(n), n})
	reg := &protocol.Register{Object: e.obj.ID, NumPieces: uint32(e.obj.NumPieces()), HaveCount: 1}
	n, secs, err = repeat(func() error { return protocol.WriteMessage(s.conn, reg) })
	if err == nil {
		// The registers are handled once the ping behind them is answered.
		start := time.Now()
		if err = protocol.WriteMessage(s.conn, &protocol.Ping{Nonce: 1}); err == nil {
			_, err = await[*protocol.Pong](s)
		}
		secs += time.Since(start).Seconds()
	}
	if err == nil {
		err = protocol.WriteMessage(s.conn, &protocol.Unregister{Object: e.obj.ID})
	}
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"controlplane.register_per_s", "1/s", float64(n) / secs, n})

	// Peer client: whole sessions, read through the client's own trace.
	before := e.byteCounters()
	var (
		logins, selfs, firsts []float64
		stages                = map[string][]float64{}
		delivered             int64
	)
	for k := 0; k < 5; k++ {
		d := e.download(nil, rng, false)
		if d.bad != "" {
			return nil, fmt.Errorf("probe download: %s", d.bad)
		}
		logins = append(logins, d.loginMs)
		delivered += e.obj.Size
		covered := coveredMs(d.trace)
		selfs = append(selfs, float64(d.trace.Duration)/1e6-covered)
		for _, st := range d.trace.Stages {
			stages[st.Name] = append(stages[st.Name], float64(st.Total)/float64(st.Count)/1e6)
			if st.Name == telemetry.StagePieceTransfer {
				firsts = append(firsts, float64(st.First)/1e6)
			}
		}
	}
	out = append(out, metric{"peer.login_ms", "ms", median(logins), len(logins)})
	for _, name := range []string{
		telemetry.StageAuthorize, telemetry.StageManifest, telemetry.StageEdgeFetch,
		telemetry.StagePeerLookup, telemetry.StageSwarmConnect, telemetry.StagePieceTransfer,
	} {
		out = append(out, metric{"peer.stage_ms." + name, "ms", median(stages[name]), len(stages[name])})
	}
	sent := e.byteCounters() - before
	if sent <= 0 {
		return nil, fmt.Errorf("the program's byte counters did not move over %d downloads", len(logins))
	}
	return append(out,
		metric{"peer.first_peer_request_ms", "ms", median(firsts), len(firsts)},
		metric{"peer.self_ms", "ms", median(selfs), len(selfs)},
		metric{"peer.useful_byte_ratio", "ratio", float64(delivered) / float64(sent), len(logins)}), nil
}

// coveredMs is how much of a download's wall time at least one of its stage
// windows covers; the rest is the client's own time.
func coveredMs(t telemetry.TraceSnapshot) float64 {
	var windows []telemetry.StageSummary
	for _, st := range t.Stages {
		if _, ok := stageLayer[st.Name]; ok {
			windows = append(windows, st)
		}
	}
	sort.Slice(windows, func(a, b int) bool { return windows[a].First < windows[b].First })
	var covered, end time.Duration
	for _, w := range windows {
		if w.Last > end {
			covered += w.Last - max(w.First, end)
			end = w.Last
		}
	}
	return float64(covered) / 1e6
}
