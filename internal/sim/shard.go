package sim

import (
	"math/rand"

	"netsession/internal/accounting"
	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/protocol"
	"netsession/internal/selection"
	"netsession/internal/trace"
)

// shard is one region's independent simulation: its own event engine,
// directory, RNG streams and log buffer. Peers only ever interact with
// peers of their own region (§3.7: CNs query only their local DN region),
// so shards share no mutable state and can run on parallel workers while
// staying bit-for-bit deterministic.
type shard struct {
	cfg    *ScenarioConfig
	region geo.NetworkRegion

	eng      Engine
	rng      *rand.Rand
	faultRng *rand.Rand
	// streamRng decides which requests are deadline-driven streams; like
	// faultRng it is its own stream so enabling streaming never perturbs a
	// base scenario's draws.
	streamRng *rand.Rand
	dir       *selection.Directory
	metrics   *simMetrics
	logf      func(format string, args ...any)

	peers  []*simPeer
	guidIx map[id.GUID]*simPeer
	// allPeers is the global population indexed like pop.Peers (shared,
	// read-only after setup); requests carry global peer indexes.
	allPeers []*simPeer

	// objIx/objID are the shared object-interning tables (read-only after
	// setup): 32-byte object IDs to dense uint32 indexes and back.
	objIx map[content.ObjectID]uint32
	objID []content.ObjectID

	// dls maps download slots to live downloads. Slots are never reused
	// within a run (the table is append-only and a finished download's slot
	// is nil-ed), so a stale event whose packed slot outlived its download
	// resolves to nil instead of aliasing a new one.
	dls []*dl

	// reqs is this region's slice of the global request stream, sorted by
	// time; requests are chain-scheduled one at a time to keep the event
	// queue small.
	reqs    []trace.Request
	nextReq int

	log shardLog

	// Event handlers, bound once at construction. Events carry a packed
	// uint64 argument and one of these function values instead of a fresh
	// closure — see the Engine doc.
	onChurn    func(uint64) // arg: peer index
	onRefresh  func(uint64) // arg: peer index
	onToggle   func(uint64) // arg: peer index
	onExpire   func(uint64) // arg: peerIx<<32 | objIx
	onFire     func(uint64) // arg unused
	onSnapshot func(uint64) // arg: snapshot interval ms
	onDirClear func(uint64) // arg unused
	onComplete func(uint64) // arg: slot<<32 | epoch
	onStall    func(uint64) // arg: slot<<32 | epoch
	onAbort    func(uint64) // arg: slot
	onRequery  func(uint64) // arg: slot
	onKill     func(uint64) // arg: slot<<32 | server peer index

	// Hot-path scratch buffers (reused across events; the shard is
	// single-goroutine so one of each suffices).
	offers   []float64 // peer upload offers for core.AllocateInto
	alloc    []float64 // per-source allocation result
	affected []*dl     // epoch-marked affected-download set
	attach   []*simPeer
	markGen  uint64

	// stats
	p2pAttempted  int
	activeFlows   int
	finishedFlows int
	lastEvents    int // events already added to the per-region counter
}

// shardLog buffers the records a shard emits, stamped with the virtual time
// they were appended at. Per-shard streams are time-ordered by construction;
// the coordinator merges them by (timestamp, region) into the global log.
//
// Per-peer attributions go into one arena slice per shard instead of one
// FromPeers allocation per record: a download record references its range
// by offset, and mergeLogs materializes capacity-clamped subslices. That
// turns millions of tiny allocations into a handful of arena growths.
type shardLog struct {
	downloads []stampedDownload
	contribs  []accounting.PeerContribution
	regs      []stampedReg
}

type stampedDownload struct {
	at  int64
	rec accounting.DownloadRecord // FromPeers left nil until merge
	// contribOff/contribLen locate the record's attributions in the
	// shard's contribution arena.
	contribOff uint32
	contribLen uint32
}

type stampedReg struct {
	at  int64
	rec accounting.RegistrationRecord
}

// shardStream derives a decorrelated RNG seed for (seed, region, salt)
// using the splitmix64 finalizer, so every shard's draw stream is a pure
// function of the scenario seed and its region — independent of worker
// count and execution order.
func shardStream(seed int64, region int, salt uint64) int64 {
	z := uint64(seed) ^ salt
	z += 0x9e3779b97f4a7c15 * (uint64(region) + 1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func newShard(cfg *ScenarioConfig, region geo.NetworkRegion, m *simMetrics, logf func(string, ...any)) *shard {
	faultSeed := cfg.Faults.Seed
	if faultSeed == 0 {
		faultSeed = 1
	}
	sh := &shard{
		cfg:       cfg,
		region:    region,
		rng:       rand.New(rand.NewSource(shardStream(cfg.Seed, int(region), 0x5eed))),
		faultRng:  rand.New(rand.NewSource(shardStream(faultSeed, int(region), 0xfa17))),
		streamRng: rand.New(rand.NewSource(shardStream(cfg.Seed, int(region), 0x57e4))),
		dir:       selection.NewDirectory(region),
		metrics:   m,
		logf:      logf,
		guidIx:    make(map[id.GUID]*simPeer),
	}
	sh.onChurn = sh.handleChurn
	sh.onRefresh = sh.handleRefresh
	sh.onToggle = sh.handleToggle
	sh.onExpire = sh.handleExpire
	sh.onFire = sh.handleFire
	sh.onSnapshot = sh.handleSnapshot
	sh.onDirClear = sh.handleDirClear
	sh.onComplete = sh.handleComplete
	sh.onStall = sh.handleStall
	sh.onAbort = sh.handleAbort
	sh.onRequery = sh.handleRequery
	sh.onKill = sh.handleKill
	return sh
}

// Handler shims: unpack the event argument and dispatch. Peer indexes and
// download slots are shard-local; slots of finished downloads resolve to
// nil (the event is stale).
func (sh *shard) handleChurn(arg uint64)   { sh.churn(sh.peers[arg]) }
func (sh *shard) handleRefresh(arg uint64) { sh.refreshTick(sh.peers[arg]) }
func (sh *shard) handleToggle(arg uint64)  { sh.togglePeer(sh.peers[arg]) }
func (sh *shard) handleExpire(arg uint64)  { sh.expireCache(sh.peers[arg>>32], uint32(arg)) }
func (sh *shard) handleFire(uint64)        { sh.fireRequest() }
func (sh *shard) handleDirClear(uint64)    { sh.dir.Clear() }

// addPeer claims a peer spec for this shard; called in global peer order
// during setup so per-shard peer order is deterministic.
func (sh *shard) addPeer(spec *trace.PeerSpec) *simPeer {
	p := &simPeer{
		spec:   spec,
		region: sh.region,
		ix:     uint32(len(sh.peers)),
		info: protocol.PeerInfo{
			GUID:     spec.GUID,
			Addr:     spec.Home.IP.String() + ":7000",
			NAT:      spec.NAT,
			ASN:      uint32(spec.Home.ASN),
			Location: uint32(spec.Home.Location),
		},
		uploadsEnabled: spec.UploadsEnabledAtInstall,
	}
	sh.peers = append(sh.peers, p)
	sh.guidIx[spec.GUID] = p
	return p
}

// setupPeers draws each peer's initial presence, churn cycle, soft-state
// refresh cycle and preference toggles from the shard's RNG stream. Runs
// single-threaded during setup, in region order, so the stream is
// reproducible.
func (sh *shard) setupPeers() {
	cfg := sh.cfg
	for _, p := range sh.peers {
		if cfg.UploadEnabledOverride >= 0 {
			p.uploadsEnabled = sh.rng.Float64() < cfg.UploadEnabledOverride
		}
		p.online = sh.rng.Float64() < cfg.SessionOnHours/(cfg.SessionOnHours+cfg.SessionOffHours)
		sh.scheduleChurn(p)
		sh.scheduleRefresh(p)
		// Preference toggles at random points in the trace (Table 3).
		for k := 0; k < p.spec.SettingChanges; k++ {
			at := int64(sh.rng.Float64() * float64(cfg.Days) * 86_400_000)
			sh.eng.At(at, sh.onToggle, uint64(p.ix))
		}
	}
}

// prepareRun schedules the run-wide machinery: the request chain, the
// telemetry snapshot loop, and the optional region-directory failure.
func (sh *shard) prepareRun(snapMs int64) {
	if len(sh.reqs) > 0 {
		sh.eng.At(sh.reqs[0].TimeMs, sh.onFire, 0)
	}
	sh.snapshotLoop(snapMs)
	if sh.cfg.DNFailureAtDay > 0 {
		// The DN database is lost; the directory repopulates from the
		// peers' soft-state refreshes (§3.8).
		sh.eng.At(int64(sh.cfg.DNFailureAtDay)*86_400_000, sh.onDirClear, 0)
	}
}

// fireRequest starts the next workload request and chains the one after it,
// keeping at most one pending request event in the queue.
func (sh *shard) fireRequest() {
	req := sh.reqs[sh.nextReq]
	sh.nextReq++
	if sh.nextReq < len(sh.reqs) {
		sh.eng.At(sh.reqs[sh.nextReq].TimeMs, sh.onFire, 0)
	}
	sh.startDownload(req)
}

// run executes the shard's event loop to the horizon.
func (sh *shard) run(untilMs int64) int {
	n := sh.eng.Run(untilMs)
	sh.logSnapshot() // final per-region totals
	return n
}

func (sh *shard) scheduleChurn(p *simPeer) {
	mean := sh.cfg.SessionOffHours
	if p.online {
		mean = sh.cfg.SessionOnHours
	}
	d := int64(sh.rng.ExpFloat64() * mean * 3_600_000)
	if d < 60_000 {
		d = 60_000
	}
	sh.eng.After(d, sh.onChurn, uint64(p.ix))
}

// scheduleRefresh keeps an online peer's directory entries fresh; the live
// client re-announces periodically for the same reason (soft state, §3.8).
func (sh *shard) scheduleRefresh(p *simPeer) {
	jitter := int64(sh.rng.Float64() * 600_000)
	sh.eng.After(int64(refreshIntervalHours*3_600_000)+jitter, sh.onRefresh, uint64(p.ix))
}

// refreshTick is one firing of the periodic soft-state refresh.
func (sh *shard) refreshTick(p *simPeer) {
	if p.online {
		sh.reregisterCache(p)
	}
	sh.scheduleRefresh(p)
}

func (sh *shard) churn(p *simPeer) {
	if p.online {
		// Keep the machine on while the user's own downloads run.
		if len(p.downloading) > 0 {
			sh.eng.After(30*60_000, sh.onChurn, uint64(p.ix))
			return
		}
		sh.setOffline(p)
	} else {
		sh.setOnline(p)
	}
	sh.scheduleChurn(p)
}

func (sh *shard) setOnline(p *simPeer) {
	if p.online {
		return
	}
	p.online = true
	sh.reregisterCache(p)
}

// reregisterCache announces unexpired cached objects after a (re)connect;
// the directory is soft state (§3.8). Expired entries are purged in place
// (the same lazy cleanup the map-based cache did). Per-object registrations
// are independent, so iteration order does not affect results; the slice
// makes it deterministic (completion order) anyway.
func (sh *shard) reregisterCache(p *simPeer) {
	if !p.uploadsEnabled {
		return
	}
	now := sh.eng.Now()
	kept := p.cache[:0]
	for _, e := range p.cache {
		if e.exp <= now {
			continue
		}
		kept = append(kept, e)
		sh.dir.Register(sh.objID[e.obj], selection.Entry{
			Info: p.info, Rec: p.spec.Home, Complete: true, RegisteredMs: now,
		})
	}
	p.cache = kept
}

func (sh *shard) setOffline(p *simPeer) {
	if !p.online {
		return
	}
	p.online = false
	sh.dir.DropPeer(p.spec.GUID)
	sh.detachAll(p)
}

// togglePeer flips the upload preference, with the directory consequences.
func (sh *shard) togglePeer(p *simPeer) {
	p.uploadsEnabled = !p.uploadsEnabled
	if !p.uploadsEnabled {
		sh.dir.DropPeer(p.spec.GUID)
		sh.detachAll(p)
	} else if p.online {
		sh.reregisterCache(p)
	}
}

// completeCache registers a freshly completed object for sharing.
func (sh *shard) completeCache(p *simPeer, obj uint32) {
	now := sh.eng.Now()
	exp := now + int64(cacheTTLHours*3_600_000)
	oid := sh.objID[obj]
	had := p.cacheIndex(obj)
	if had >= 0 {
		p.cache[had].exp = exp
	} else {
		p.cache = append(p.cache, cacheEntry{obj: obj, exp: exp})
	}
	if p.uploadsEnabled && p.online {
		sh.dir.Register(oid, selection.Entry{
			Info: p.info, Rec: p.spec.Home, Complete: true, RegisteredMs: now,
		})
	}
	if had < 0 {
		// New copy in the system: one DN log entry (Figure 5 counts these).
		sh.log.regs = append(sh.log.regs, stampedReg{at: now, rec: accounting.RegistrationRecord{
			TimeMs: now, GUID: p.spec.GUID, Object: oid,
		}})
		sh.eng.At(exp, sh.onExpire, uint64(p.ix)<<32|uint64(obj))
	}
}

func (sh *shard) expireCache(p *simPeer, obj uint32) {
	i := p.cacheIndex(obj)
	if i >= 0 && p.cache[i].exp <= sh.eng.Now() {
		p.cache = append(p.cache[:i], p.cache[i+1:]...)
		sh.dir.Unregister(sh.objID[obj], p.spec.GUID)
	}
}

// peerByGUID resolves a directory GUID to this shard's peer; directories
// are region-local, so candidates always resolve within the shard.
func (sh *shard) peerByGUID(g id.GUID) *simPeer { return sh.guidIx[g] }
