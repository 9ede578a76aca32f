package sim

import (
	"netsession/internal/accounting"
	"netsession/internal/content"
	"netsession/internal/core"
	"netsession/internal/protocol"
	"netsession/internal/selection"
	"netsession/internal/trace"
)

// dl is one in-progress simulated download, modelled as a fluid flow.
type dl struct {
	req  trace.Request
	peer *simPeer
	obj  *content.Object

	// slot is the download's index in the shard's dls table; events carry
	// it (packed with an epoch) instead of closing over the dl. objIx is
	// the interned object index.
	slot  uint32
	objIx uint32

	startMs     int64
	lastAccrual int64
	total       float64
	bytesInfra  float64
	servers     []srcLink

	peersReturned int
	p2p           bool

	// stream, when non-nil, is the fluid playback model of a deadline-driven
	// streaming request; advanced alongside every byte accrual.
	stream *streamState

	// Outcome pre-draws.
	abortAtMs  int64 // -1: never
	failOther  bool
	failSystem bool

	epoch     uint32 // invalidates stale completion events
	requeries int
	finished  bool

	// mark is the shard's affected-set epoch stamp; a dl whose mark equals
	// the shard's current generation is already in the scratch set. This
	// replaces the map[*dl]bool sets the inner loop used to allocate.
	mark uint64
}

type srcLink struct {
	server *simPeer
	bytes  float64
}

func (d *dl) bytesPeers() float64 {
	t := 0.0
	for i := range d.servers {
		t += d.servers[i].bytes
	}
	return t
}

func (d *dl) done() float64 { return d.bytesInfra + d.bytesPeers() }

// removeServer splices one serving peer out of the download's source list,
// preserving order.
func (d *dl) removeServer(sp *simPeer) {
	for i := range d.servers {
		if d.servers[i].server == sp {
			d.servers = append(d.servers[:i], d.servers[i+1:]...)
			return
		}
	}
}

// rates returns the current fluid allocation in bytes/ms: the edge share
// and the per-server shares, jointly capped by the downloader's downlink.
// The arithmetic lives in internal/core; this assembles the offers. The
// returned slice aliases shard scratch and is valid until the next rates
// call on this shard.
func (sh *shard) rates(d *dl) (edge float64, per []float64, total float64) {
	if sh.cfg.BackstopEnabled {
		if len(d.servers) == 0 {
			// No peers serving: the DLM behaves like a plain multi-
			// connection download manager against the edge.
			edge = mbpsToBytesPerMs(edgeOnlyMbps)
		} else {
			edge = mbpsToBytesPerMs(edgePerConnMbps)
		}
	}
	offers := sh.offers[:0]
	for i := range d.servers {
		l := &d.servers[i]
		offers = append(offers, core.FairShareOffer(
			bpsToBytesPerMs(l.server.spec.UpBps), len(l.server.serving)))
	}
	sh.offers = offers
	a := core.AllocateInto(sh.alloc[:0], edge, offers, bpsToBytesPerMs(d.peer.spec.DownBps))
	sh.alloc = a.PerSource
	return a.Edge, a.PerSource, a.Total
}

// accrue advances a download's byte counters to virtual now at the current
// rates. Callers must accrue every affected download BEFORE any mutation
// that changes rates.
func (sh *shard) accrue(d *dl) {
	now := sh.eng.Now()
	dt := float64(now - d.lastAccrual)
	d.lastAccrual = now
	if dt <= 0 || d.finished {
		return
	}
	edge, per, _ := sh.rates(d)
	dEdge := edge * dt
	sum := dEdge
	for i := range per {
		per[i] *= dt // scratch slice: rescale in place to byte deltas
		sum += per[i]
	}
	if sum > 0 {
		// Clamp overshoot proportionally (completion events fire exactly on
		// time; only floating-point error and late events land here).
		if remaining := d.total - d.done(); sum > remaining {
			f := remaining / sum
			dEdge *= f
			for i := range per {
				per[i] *= f
			}
			sum = remaining
		}
		d.bytesInfra += dEdge
		for i := range per {
			d.servers[i].bytes += per[i]
		}
	} else {
		sum, dEdge = 0, 0
	}
	// The playback clock keeps running even over zero-rate segments — a
	// sourceless stream rebuffers, it does not pause time.
	if d.stream != nil {
		d.stream.advance(dt, sum, dEdge, d.total)
	}
}

// beginAffected starts a new affected-download set in the shard's scratch
// slice. Membership is tracked by stamping each dl with the current
// generation, so building and clearing the set allocates nothing and
// iteration order is deterministic (insertion order).
func (sh *shard) beginAffected() {
	sh.markGen++
	sh.affected = sh.affected[:0]
}

// addAffected inserts one download into the current affected set.
func (sh *shard) addAffected(d *dl) {
	if d.mark == sh.markGen {
		return
	}
	d.mark = sh.markGen
	sh.affected = append(sh.affected, d)
}

// excludeAffected stamps a download without inserting it, so later
// addAffected calls skip it.
func (sh *shard) excludeAffected(d *dl) { d.mark = sh.markGen }

// addServingOf inserts every download a peer is currently serving.
func (sh *shard) addServingOf(p *simPeer) {
	for _, d := range p.serving {
		sh.addAffected(d)
	}
}

// accrueAffected accrues the current affected set.
func (sh *shard) accrueAffected() {
	for _, d := range sh.affected {
		sh.accrue(d)
	}
}

// rescheduleAffected recomputes the completion event for the affected set.
func (sh *shard) rescheduleAffected() {
	for _, d := range sh.affected {
		sh.scheduleCompletion(d)
	}
}

func (sh *shard) scheduleCompletion(d *dl) {
	if d.finished {
		return
	}
	d.epoch++
	key := uint64(d.slot)<<32 | uint64(d.epoch)
	_, _, rate := sh.rates(d)
	if rate <= 0 {
		// Stalled (pure-p2p mode with no sources): retry peer discovery
		// shortly; the abort clock may fire first.
		sh.eng.After(60_000, sh.onStall, key)
		return
	}
	remainMs := int64((d.total-d.done())/rate) + 1
	sh.eng.After(remainMs, sh.onComplete, key)
}

// dlAt resolves a slot<<32|epoch event key to a live download, or nil if
// the download finished or the epoch went stale.
func (sh *shard) dlAt(key uint64) *dl {
	d := sh.dls[key>>32]
	if d == nil || d.epoch != uint32(key) {
		return nil
	}
	return d
}

func (sh *shard) handleComplete(key uint64) {
	d := sh.dlAt(key)
	if d == nil {
		return
	}
	sh.accrue(d)
	if d.done() >= d.total-1 {
		sh.finishDownload(d, protocol.OutcomeCompleted)
	} else {
		sh.scheduleCompletion(d)
	}
}

func (sh *shard) handleStall(key uint64) {
	if d := sh.dlAt(key); d != nil {
		sh.refreshServers(d)
	}
}

func (sh *shard) handleAbort(slot uint64) {
	d := sh.dls[slot]
	if d == nil {
		return
	}
	sh.accrue(d)
	sh.finishDownload(d, protocol.OutcomeAborted)
}

func (sh *shard) handleRequery(slot uint64) {
	d := sh.dls[slot]
	if d == nil {
		return
	}
	if len(d.servers) < sh.cfg.MaxServersPerDownload/4 {
		sh.attachInitialServersKeepCount(d)
	}
	sh.scheduleRequery(d)
}

func (sh *shard) handleKill(arg uint64) {
	d := sh.dls[arg>>32]
	sp := sh.peers[uint32(arg)]
	if d == nil || !sp.isServing(d) || !sp.online {
		return
	}
	sh.metrics.faultsInjected.Inc()
	sh.setOffline(sp)
}

// startDownload handles one workload request.
func (sh *shard) startDownload(req trace.Request) {
	p := sh.allPeers[req.PeerIndex]
	// The user is at the machine: force presence.
	sh.setOnline(p)

	obj := req.File.Object
	d := &dl{
		req: req, peer: p, obj: obj,
		slot:    uint32(len(sh.dls)),
		objIx:   sh.objIx[obj.ID],
		startMs: sh.eng.Now(), lastAccrual: sh.eng.Now(),
		total: float64(obj.Size),
		p2p:   obj.P2PEnabled,
	}
	sh.dls = append(sh.dls, d)
	// Outcome pre-draws (§5.2), from the shard's own stream.
	d.abortAtMs = -1
	if sh.rng.Float64() < immediateAbortProb {
		d.abortAtMs = d.startMs + int64(sh.rng.Float64()*60_000)
	} else {
		d.abortAtMs = d.startMs + expMs(sh.rng, 1/abortRatePerHour)
	}
	d.failOther = sh.rng.Float64() < failOtherProb
	sysProb := failSystemInfra
	if d.p2p {
		sysProb = failSystemP2P
	}
	d.failSystem = sh.rng.Float64() < sysProb
	// Streaming draw, from its own RNG stream so base scenarios are
	// untouched.
	if sh.cfg.StreamBitrateBps > 0 && sh.cfg.StreamFraction > 0 &&
		sh.streamRng.Float64() < sh.cfg.StreamFraction {
		d.stream = newStreamState(sh.cfg)
	}

	p.downloading = append(p.downloading, d)
	sh.metrics.started.Inc()
	sh.activeFlows++
	if d.p2p {
		sh.p2pAttempted++
		sh.attachInitialServers(d)
		sh.scheduleRequery(d)
	}
	if d.abortAtMs >= 0 {
		sh.eng.At(d.abortAtMs, sh.onAbort, uint64(d.slot))
	}
	sh.scheduleCompletion(d)
}

// attachInitialServers queries the (region-local) directory and connects up
// to MaxServersPerDownload compatible peers.
func (sh *shard) attachInitialServers(d *dl) {
	cands := sh.dir.Select(sh.cfg.Policy, selection.Query{
		Object:        d.obj.ID,
		Requester:     d.peer.spec.Home,
		RequesterGUID: d.peer.spec.GUID,
		RequesterNAT:  d.peer.spec.NAT,
		Rand:          sh.rng,
	})
	d.peersReturned = len(cands)
	sh.connectCandidates(d, cands)
}

// scheduleRequery keeps long-running swarms fed: "if connections to some of
// these peers cannot be established, additional queries are issued until a
// sufficient number of peer connections succeed" (§3.7). Fresh copies that
// registered since the first query also join this way.
func (sh *shard) scheduleRequery(d *dl) {
	// Requeries are capped: each costs directory work and rate
	// recomputation across the swarm, and in practice a download that has
	// not found peers after a handful of attempts will not.
	if d.requeries >= 5 {
		return
	}
	d.requeries++
	sh.eng.After(10*60_000, sh.onRequery, uint64(d.slot))
}

// refreshServers re-queries when a download has no sources (pure-p2p mode).
func (sh *shard) refreshServers(d *dl) {
	if d.finished || len(d.servers) > 0 {
		return
	}
	sh.attachInitialServersKeepCount(d)
	sh.scheduleCompletion(d)
}

func (sh *shard) attachInitialServersKeepCount(d *dl) {
	// Like attachInitialServers but preserves the Figure 6 "initially
	// returned" count from the first query.
	cands := sh.dir.Select(sh.cfg.Policy, selection.Query{
		Object:        d.obj.ID,
		Requester:     d.peer.spec.Home,
		RequesterGUID: d.peer.spec.GUID,
		RequesterNAT:  d.peer.spec.NAT,
		Rand:          sh.rng,
	})
	sh.connectCandidates(d, cands)
}

func (sh *shard) connectCandidates(d *dl, cands []protocol.PeerInfo) {
	attached := sh.attach[:0]
	for _, c := range cands {
		if len(d.servers)+len(attached) >= sh.cfg.MaxServersPerDownload {
			break
		}
		sp := sh.peerByGUID(c.GUID)
		if sp == nil || !sp.online || !sp.uploadsEnabled || sp == d.peer {
			continue
		}
		if sp.isServing(d) {
			continue // already serving this download
		}
		if len(sp.serving) >= maxUploadConnsPerPeer {
			continue // the peer's global upload-connection limit (§3.4)
		}
		if sh.rng.Float64() < connFailureProb {
			continue // "if connections to some of these peers cannot be established..."
		}
		if sh.cfg.PerObjectUploadCap > 0 && sp.uploadsOf(d.objIx) >= sh.cfg.PerObjectUploadCap {
			// Upload cap reached: the peer stops serving this object
			// (§3.9) and leaves the directory for it.
			sh.dir.Unregister(d.obj.ID, sp.spec.GUID)
			continue
		}
		attached = append(attached, sp)
	}
	sh.attach = attached
	if len(attached) == 0 {
		return
	}
	// Rates of everything these servers already serve will change.
	sh.beginAffected()
	for _, sp := range attached {
		sh.addServingOf(sp)
	}
	sh.addAffected(d)
	sh.accrueAffected()
	for _, sp := range attached {
		sp.serving = append(sp.serving, d)
		sp.incUploads(d.objIx)
		d.servers = append(d.servers, srcLink{server: sp})
		sh.maybeKillServer(d, sp)
	}
	sh.rescheduleAffected()
}

// maybeKillServer is the simulator's fault layer: with probability
// ServerFailProb a freshly attached serving peer is scheduled to crash at a
// uniform point in the next ten minutes, forcing the download onto its
// remaining peers and the edge backstop (§3.3). All draws come from the
// shard's dedicated fault RNG so the base scenario stream is untouched.
func (sh *shard) maybeKillServer(d *dl, sp *simPeer) {
	if !sh.cfg.Faults.Enabled() {
		return
	}
	if sh.faultRng.Float64() >= sh.cfg.Faults.ServerFailProb {
		return
	}
	delay := int64(sh.faultRng.Float64()*600_000) + 1
	sh.eng.After(delay, sh.onKill, uint64(d.slot)<<32|uint64(sp.ix))
}

// detachAll removes a departing peer from every download it serves (server
// churn): accrue everything it affects at the old rates, drop the links,
// then reschedule the survivors at their new, faster rates.
func (sh *shard) detachAll(p *simPeer) {
	if len(p.serving) == 0 {
		return
	}
	sh.beginAffected()
	sh.addServingOf(p)
	sh.accrueAffected()
	for _, d := range p.serving {
		if !d.finished {
			d.removeServer(p)
		}
	}
	p.serving = p.serving[:0]
	sh.rescheduleAffected()
}

// finishDownload moves a download to a terminal state, emits the log
// record, and releases its server capacity.
func (sh *shard) finishDownload(d *dl, outcome protocol.Outcome) {
	if d.finished {
		return
	}
	// Retrofit rare failures onto would-be completions: a constant
	// per-download probability, truncating the transfer at a uniform
	// point (§5.2's "other causes (e.g., the user's disk is full)").
	endMs := sh.eng.Now()
	if outcome == protocol.OutcomeCompleted && (d.failOther || d.failSystem) {
		u := 0.1 + 0.9*sh.rng.Float64()
		endMs = d.startMs + int64(u*float64(endMs-d.startMs))
		d.bytesInfra *= u
		for i := range d.servers {
			d.servers[i].bytes *= u
		}
		if d.failSystem {
			outcome = protocol.OutcomeFailedSystem
		} else {
			outcome = protocol.OutcomeFailedOther
		}
	}
	d.finished = true
	d.epoch++

	// Free server capacity; remaining downloads on those servers speed up.
	sh.beginAffected()
	sh.excludeAffected(d)
	for i := range d.servers {
		sh.addServingOf(d.servers[i].server)
	}
	sh.accrueAffected()
	for i := range d.servers {
		d.servers[i].server.removeServing(d)
	}
	sh.rescheduleAffected()
	d.peer.removeDownloading(d)
	sh.activeFlows--
	sh.finishedFlows++
	sh.metrics.byOutcome[outcome].Inc()

	rec := accounting.DownloadRecord{
		GUID:          d.peer.spec.GUID,
		IP:            d.peer.spec.Home.IP,
		Object:        d.obj.ID,
		URLHash:       d.obj.URL,
		CP:            d.obj.CP,
		Size:          d.obj.Size,
		P2PEnabled:    d.obj.P2PEnabled,
		StartMs:       d.startMs,
		EndMs:         endMs,
		BytesInfra:    int64(d.bytesInfra),
		BytesPeers:    int64(d.bytesPeers()),
		Outcome:       outcome,
		PeersReturned: d.peersReturned,
	}
	if d.stream != nil {
		rec.Stream = d.stream.finalize(sh.cfg, d.startMs, endMs, d.total)
	}
	// Attributions go into the shard's arena; the record holds the range.
	off := uint32(len(sh.log.contribs))
	for i := range d.servers {
		l := &d.servers[i]
		if l.bytes <= 0 {
			continue
		}
		sh.log.contribs = append(sh.log.contribs, accounting.PeerContribution{
			GUID: l.server.spec.GUID, IP: l.server.spec.Home.IP, Bytes: int64(l.bytes),
		})
	}
	sh.log.downloads = append(sh.log.downloads, stampedDownload{
		at: sh.eng.Now(), rec: rec,
		contribOff: off, contribLen: uint32(len(sh.log.contribs)) - off,
	})

	// Release the slot: stale events resolve to nil, and the dl (with its
	// server links) becomes collectable.
	sh.dls[d.slot] = nil

	if outcome == protocol.OutcomeCompleted {
		sh.completeCache(d.peer, d.objIx)
	}
}
