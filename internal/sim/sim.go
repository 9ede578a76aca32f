package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"netsession/internal/accounting"
	"netsession/internal/analysis"
	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/protocol"
	"netsession/internal/telemetry"
	"netsession/internal/trace"
)

// Sim is one simulation run in progress: the shared generation artifacts
// plus one independent shard per control-plane network region.
type Sim struct {
	cfg ScenarioConfig

	atlas *geo.Atlas
	scape *geo.EdgeScape
	pop   *trace.Population
	cat   *trace.Catalog

	// Object interning: catalog objects are identified by a 32-byte hash,
	// but per-peer state at million-peer scale cannot afford map keys of
	// that size. Objects are assigned dense uint32 indexes in catalog file
	// order (deterministic); objID is the reverse table. Shared read-only
	// across shards.
	objIx map[content.ObjectID]uint32
	objID []content.ObjectID

	shards []*shard
	// active is the subset of shards actually simulated: all of them
	// normally, only the sampled regions under cfg.regionSample.
	active []*shard
	// peers holds every simulated peer, indexed like pop.Peers; each peer
	// is mutated only by its owning region's shard. Entries for peers homed
	// in unsampled regions are nil.
	peers []*simPeer

	metrics   *simMetrics
	wallStart time.Time
}

// simPeer is the simulator's view of one peer. Every collection hanging off
// it is a small ordered slice rather than a map: membership tests stay
// O(per-peer fan-out) — a handful of entries in practice — while iteration
// order, and with it event scheduling order, stays deterministic. At the
// XXL tier (1M peers) the two per-peer maps this replaced cost several
// hundred bytes each even when nearly empty; the slices cost nothing until
// a peer actually caches or serves something.
type simPeer struct {
	spec   *trace.PeerSpec
	region geo.NetworkRegion
	// ix is the peer's index within its shard's peers slice; event args
	// carry it instead of a closed-over pointer.
	ix   uint32
	info protocol.PeerInfo

	online         bool
	uploadsEnabled bool

	// cache holds completed objects (interned index) and their shareability
	// expiry, in completion order.
	cache []cacheEntry
	// uploads counts serving sessions granted per object (§3.9).
	uploads []uploadEntry

	serving     []*dl
	downloading []*dl
}

// cacheEntry is one shareable cached object.
type cacheEntry struct {
	obj uint32 // interned object index
	exp int64  // shareability expiry, virtual ms
}

// uploadEntry counts serving sessions granted for one object.
type uploadEntry struct {
	obj uint32
	n   int32
}

// cacheIndex returns the position of obj in the peer's cache, or -1.
func (p *simPeer) cacheIndex(obj uint32) int {
	for i := range p.cache {
		if p.cache[i].obj == obj {
			return i
		}
	}
	return -1
}

// uploadsOf returns the serving sessions granted so far for obj.
func (p *simPeer) uploadsOf(obj uint32) int {
	for i := range p.uploads {
		if p.uploads[i].obj == obj {
			return int(p.uploads[i].n)
		}
	}
	return 0
}

// incUploads bumps the per-object serving-session counter.
func (p *simPeer) incUploads(obj uint32) {
	for i := range p.uploads {
		if p.uploads[i].obj == obj {
			p.uploads[i].n++
			return
		}
	}
	p.uploads = append(p.uploads, uploadEntry{obj: obj, n: 1})
}

func (p *simPeer) isServing(d *dl) bool {
	for _, x := range p.serving {
		if x == d {
			return true
		}
	}
	return false
}

func (p *simPeer) removeServing(d *dl) {
	for i, x := range p.serving {
		if x == d {
			p.serving = append(p.serving[:i], p.serving[i+1:]...)
			return
		}
	}
}

func (p *simPeer) removeDownloading(d *dl) {
	for i, x := range p.downloading {
		if x == d {
			p.downloading = append(p.downloading[:i], p.downloading[i+1:]...)
			return
		}
	}
}

// Result is the output of a run: the same log schema the live control plane
// produces, plus the generation artifacts analyses need.
type Result struct {
	// Log holds the merged download and registration logs. It holds no
	// logins: no simulated state reads them, so ReplayLogins streams them from
	// the trace generator whenever they are read.
	Log     *accounting.Log
	Pop     *trace.Population
	Catalog *trace.Catalog
	Atlas   *geo.Atlas
	Scape   *geo.EdgeScape
	// Events is how many simulator events executed across all shards.
	Events int
	// Telemetry is the final metrics snapshot of the run.
	Telemetry telemetry.Snapshot

	days      int
	loginSeed int64
}

// ReplayLogins streams the month's login records to add, one installation
// at a time, each installation's records in time order (trace.Logins).
// Every call yields the same records, drawn from the run's own population,
// so the login-based analyses (Tables 1/3, Figure 12, mobility) see the
// population the simulation ran.
func (r *Result) ReplayLogins(add func(*accounting.LoginRecord)) {
	trace.Logins(r.Pop, r.days, r.loginSeed, add)
}

// ReplayDownloads hands the download log, then the registration log, to the
// two callbacks in merge order. With ReplayLogins it makes a Result an
// analysis.Source.
func (r *Result) ReplayDownloads(addDownload func(*accounting.DownloadRecord), addRegistration func(*accounting.RegistrationRecord)) {
	r.Log.ReplayDownloads(addDownload, addRegistration)
}

// Input is the run as the paper's analyses read it: its records joined with
// the world that generated them. The simulator models one DN per region.
func (r *Result) Input() *analysis.Input {
	return &analysis.Input{
		Records: r, Pop: r.Pop, Catalog: r.Catalog,
		Atlas: r.Atlas, Scape: r.Scape, ControlPlaneServers: geo.NumRegions,
	}
}

// Run executes a scenario to completion.
//
// The simulation is sharded by network region: every shard owns its region's
// peers, directory, event queue and RNG streams (derived deterministically
// from (seed, region)), and shards run concurrently on cfg.Workers workers.
// Because regions share no mutable state and the per-shard logs are merged
// by (timestamp, region), the result is byte-identical for any worker count
// — workers=1 is a plain sequential loop and the reference ordering.
func Run(cfg ScenarioConfig) (*Result, error) {
	if cfg.Days > maxDays {
		return nil, fmt.Errorf("sim: %d days is past the %d-day limit of the engine's 2^32 ms clock", cfg.Days, maxDays)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	} else {
		// Shards log progress concurrently; serialize the caller's sink.
		var logMu sync.Mutex
		inner := cfg.Logf
		cfg.Logf = func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			inner(format, args...)
		}
	}
	s := &Sim{
		cfg:       cfg,
		metrics:   newSimMetrics(cfg.Telemetry),
		wallStart: time.Now(),
	}

	s.atlas = geo.GenerateAtlas(cfg.Atlas)
	s.scape = geo.NewEdgeScape(s.atlas)
	var err error
	s.pop, err = trace.GeneratePopulation(s.atlas, s.scape, cfg.NumPeers, cfg.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("sim: population: %w", err)
	}
	catCfg := cfg.Catalog
	catCfg.Seed = cfg.Seed + 2
	s.cat, err = trace.GenerateCatalog(catCfg)
	if err != nil {
		return nil, fmt.Errorf("sim: catalog: %w", err)
	}
	// Intern object IDs in catalog file order (deterministic for a seed).
	s.objIx = make(map[content.ObjectID]uint32, len(s.cat.Files))
	s.objID = make([]content.ObjectID, 0, len(s.cat.Files))
	for _, f := range s.cat.Files {
		if _, ok := s.objIx[f.Object.ID]; ok {
			continue
		}
		s.objIx[f.Object.ID] = uint32(len(s.objID))
		s.objID = append(s.objID, f.Object.ID)
	}
	wl := trace.DefaultWorkloadConfig()
	wl.Seed = cfg.Seed + 3
	wl.TotalDownloads = cfg.TotalDownloads
	wl.Days = cfg.Days
	reqs, err := trace.GenerateWorkload(s.pop, s.cat, wl)
	if err != nil {
		return nil, fmt.Errorf("sim: workload: %w", err)
	}

	// Build shards and partition peers in global order, so each shard's
	// peer list (and with it every per-peer draw) is deterministic.
	var sampled [geo.NumRegions]bool
	if len(cfg.regionSample) == 0 {
		for r := range sampled {
			sampled[r] = true
		}
	} else {
		for _, r := range cfg.regionSample {
			if int(r) < 0 || int(r) >= geo.NumRegions {
				return nil, fmt.Errorf("sim: regionSample region %d out of range", r)
			}
			sampled[r] = true
		}
	}
	s.shards = make([]*shard, geo.NumRegions)
	for r := 0; r < geo.NumRegions; r++ {
		s.shards[r] = newShard(&s.cfg, geo.NetworkRegion(r), s.metrics, s.cfg.Logf)
		if sampled[r] {
			s.active = append(s.active, s.shards[r])
		}
	}
	s.peers = make([]*simPeer, len(s.pop.Peers))
	for i, spec := range s.pop.Peers {
		region := geo.RegionOf(spec.Home)
		if !sampled[region] {
			continue
		}
		s.peers[i] = s.shards[region].addPeer(spec)
	}
	for _, sh := range s.active {
		sh.allPeers = s.peers
		sh.objIx = s.objIx
		sh.objID = s.objID
		sh.setupPeers()
	}
	s.seedObjects()

	// Partition the time-sorted request stream; per-shard order is the
	// global order restricted to the region.
	for i := range reqs {
		req := reqs[i]
		p := s.peers[req.PeerIndex]
		if p == nil {
			continue // requester homed in an unsampled region
		}
		s.shards[p.region].reqs = append(s.shards[p.region].reqs, req)
	}

	snapMs := int64(snapshotIntervalHours * 3_600_000)
	for _, sh := range s.active {
		sh.prepareRun(snapMs)
	}

	horizon := int64(cfg.Days) * 86_400_000
	until := horizon + 48*3_600_000 // drain stragglers past the month
	events := s.runShards(until)
	s.finalSnapshot(until, events)

	return &Result{
		Log: s.mergeLogs(), Pop: s.pop, Catalog: s.cat,
		Atlas: s.atlas, Scape: s.scape, Events: events,
		Telemetry: s.metrics.reg.Snapshot(),
		days:      cfg.Days, loginSeed: cfg.Seed + 4,
	}, nil
}

// workerCount resolves cfg.Workers: non-positive means one worker per
// available CPU, and there is never a reason to exceed the shard count.
func (s *Sim) workerCount() int {
	w := s.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(s.shards) {
		w = len(s.shards)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runShards executes every shard to the horizon. workers=1 runs them
// sequentially in region order on the calling goroutine (the reference
// mode); workers>1 runs them on a bounded pool. Shards are causally
// independent, so both modes produce identical per-shard results; the
// merge-wait metric records how long the pool idled on its slowest shards
// (shard imbalance).
func (s *Sim) runShards(untilMs int64) int {
	workers := s.workerCount()
	if workers == 1 {
		total := 0
		for _, sh := range s.active {
			total += sh.run(untilMs)
		}
		return total
	}
	total, idle := runPool(workers, len(s.active), func(i int) int { return s.active[i].run(untilMs) }, time.Now)
	s.metrics.mergeWait.Set(float64(idle.Milliseconds()))
	return total
}

// runPool runs jobs 0..n-1, in order, on workers goroutines and returns the
// sum of their results and the pool's idle tail: from the first worker
// finding the queue empty to the last worker finishing, read from now.
func runPool(workers, n int, job func(i int) int, now func() time.Time) (total int, idle time.Duration) {
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstIdle time.Time
		next      = make(chan int, n)
	)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum := 0
			for i := range next {
				sum += job(i)
			}
			t := now()
			mu.Lock()
			total += sum
			if firstIdle.IsZero() || t.Before(firstIdle) {
				firstIdle = t
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total, now().Sub(firstIdle)
}

// seedObjects plants initial copies of p2p-enabled objects on random
// upload-enabled peers — the "initial seeder" a pure peer-to-peer CDN needs
// (§2.1). The hybrid configuration leaves this at zero: the edge is the
// origin. The plan is drawn from a dedicated setup stream over the global
// peer list, then executed on each chosen peer's shard, so it is identical
// for every worker count.
func (s *Sim) seedObjects() {
	if s.cfg.SeedCopiesPerObject <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed + 5))
	var enabled []*simPeer
	for _, p := range s.peers {
		// Under regionSample unsampled peers are nil; the seed plan then
		// differs from a full run's, so sampled runs are only
		// full-run-comparable with SeedCopiesPerObject == 0 (the default).
		if p != nil && p.uploadsEnabled {
			enabled = append(enabled, p)
		}
	}
	if len(enabled) == 0 {
		return
	}
	for _, f := range s.cat.P2PFiles() {
		for k := 0; k < s.cfg.SeedCopiesPerObject; k++ {
			p := enabled[rng.Intn(len(enabled))]
			s.shards[p.region].completeCache(p, s.objIx[f.Object.ID])
		}
	}
}

// mergeHead is the next record of one shard stream: its stamp, its region
// and its position in the stream.
type mergeHead struct {
	at     int64
	region int32
	seq    int32
}

// mergeHeap holds the head of every unfinished shard stream, ordered by
// timestamp, then region. With the streams in time order this emits the
// records by (timestamp, region, position): a pure function of the shard
// states, independent of worker count and scheduling.
type mergeHeap []mergeHead

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].region < h[j].region
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeHead)) }
func (h *mergeHeap) Pop() any {
	x := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return x
}

// kwayMerge visits every record of the per-region streams once, in
// mergeHeap order: n(r) is stream r's length and at(r, i) the stamp of its
// record i. Each stream is time-ordered, so a heap over the stream heads
// suffices and nothing is sorted.
func kwayMerge(streams int, n func(r int) int, at func(r, i int) int64, visit func(r, i int)) {
	h := make(mergeHeap, 0, streams)
	for r := 0; r < streams; r++ {
		if n(r) > 0 {
			h = append(h, mergeHead{at(r, 0), int32(r), 0})
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		top := &h[0]
		r := int(top.region)
		visit(r, int(top.seq))
		if top.seq++; int(top.seq) == n(r) {
			heap.Pop(&h)
		} else {
			top.at = at(r, int(top.seq))
			heap.Fix(&h, 0)
		}
	}
}

// mergeLogs interleaves the per-shard record streams into one global log.
// Each shard's stream is time-ordered by construction.
func (s *Sim) mergeLogs() *accounting.Log {
	nd, nr := 0, 0
	for _, sh := range s.shards {
		nd += len(sh.log.downloads)
		nr += len(sh.log.regs)
	}
	log := &accounting.Log{
		Downloads:     make([]accounting.DownloadRecord, 0, nd),
		Registrations: make([]accounting.RegistrationRecord, 0, nr),
	}
	kwayMerge(len(s.shards),
		func(r int) int { return len(s.shards[r].log.downloads) },
		func(r, i int) int64 { return s.shards[r].log.downloads[i].at },
		func(r, i int) {
			sh := s.shards[r]
			sd := &sh.log.downloads[i]
			rec := sd.rec
			if sd.contribLen > 0 {
				// Per-peer attributions live in the shard's contribution
				// arena; the record gets a capacity-clamped view, not a copy.
				end := sd.contribOff + sd.contribLen
				rec.FromPeers = sh.log.contribs[sd.contribOff:end:end]
			}
			log.Downloads = append(log.Downloads, rec)
		})
	kwayMerge(len(s.shards),
		func(r int) int { return len(s.shards[r].log.regs) },
		func(r, i int) int64 { return s.shards[r].log.regs[i].at },
		func(r, i int) { log.Registrations = append(log.Registrations, s.shards[r].log.regs[i].rec) })
	return log
}

// maxDays keeps a run inside the engine's 2³² ms (49.7-day) clock: the
// month, its 2-day drain, and a cache expiry scheduled 14 days after the
// drain's last event.
const maxDays = 33

// mbpsToBytesPerMs converts a link rate.
func mbpsToBytesPerMs(mbps float64) float64 { return mbps * 1e6 / 8 / 1000 }

// bpsToBytesPerMs converts bits/s to bytes/ms.
func bpsToBytesPerMs(bps int64) float64 { return float64(bps) / 8 / 1000 }

func expMs(r *rand.Rand, meanHours float64) int64 {
	return int64(r.ExpFloat64() * meanHours * 3_600_000)
}
