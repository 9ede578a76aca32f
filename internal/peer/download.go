package peer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"netsession/internal/content"
	"netsession/internal/id"
	"netsession/internal/protocol"
	"netsession/internal/retry"
	"netsession/internal/streaming"
	"netsession/internal/telemetry"
)

// downloadState is the lifecycle of a Download.
type downloadState int

const (
	stateRunning downloadState = iota
	statePaused
	stateDone
)

// DownloadOpts tunes one transfer.
type DownloadOpts struct {
	// Streaming enables deadline-driven delivery (NetSession "also
	// supports video streaming", §3.4): a playback clock derives
	// per-piece deadlines from the bitrate, the playback-window
	// scheduler requests urgent pieces first, and startup delay,
	// rebuffers, deadline misses and edge rescues become first-class
	// metrics on the result and the usage report. Nil means bulk.
	Streaming *streaming.Config
	// sequential requests bulk pieces in order, so tests can predict
	// which piece goes out next; the default randomizes.
	sequential bool
	// resumeP2POff restarts a checkpointed download already degraded to
	// edge-only: the ladder's verdict on the swarm survives the crash.
	resumeP2POff bool
}

const (
	// queryTimeout is how long a peer query may stay unanswered before the
	// download stops waiting for it.
	queryTimeout = 5 * time.Second
	// requeryInterval is how often a download with free connection slots
	// and no candidates asks the control plane for more peers.
	requeryInterval = 2 * time.Second
	// maxPeerConns bounds the swarm fan-out of one download.
	maxPeerConns = 8
	// endGamePieces is how many of the lowest missing pieces an idle piece
	// source considers for an end-game duplicate.
	endGamePieces = 8
)

// Download is one Download-Manager transfer (§3.3): it downloads from the
// edge servers over HTTP while, in parallel, querying the control plane for
// peers and swarming with them. The edge connection guarantees progress
// independent of the peers.
//
// Everything below mu is one state machine. Events — a verified piece, a
// connection up or lost, a query result, a control-plane candidate, Pause
// and Resume — mutate it and poke wake. The driver goroutine turns the
// state into membership decisions with step; the edge fetcher and the
// per-connection readers pick pieces from it with takeEdgePiece and
// kickScheduler.
type Download struct {
	c        *Client
	oid      content.ObjectID
	manifest *content.Manifest
	token    []byte
	p2p      bool
	opts     DownloadOpts
	start    time.Time
	now      func() time.Time // the clock; tests drive step with a fake one
	rng      *rand.Rand       // guarded by mu
	trace    *telemetry.Trace
	// play is the playback session for streaming downloads, nil for bulk.
	// It is deliberately independent of swarm state: degradation to
	// edge-only must not stop the playback clock, so rebuffers under
	// degraded delivery are still observed and reported. The session stamps
	// stalls retroactively, so nothing has to tick it: whoever reads the
	// playback window advances the clock first.
	play *streaming.Session

	mu sync.Mutex
	// have is the verified bitfield; inflight counts, per piece, the
	// requests outstanding for it, one per piece source whose request is for
	// that piece: a swarm connection's (swarmConn.req) or the edge's.
	have     *content.Bitfield
	inflight map[int]int
	conns    map[*swarmConn]bool
	// candidates wait for a free connection slot; dialed marks peers already
	// connected or being dialed; dialing counts dials still in their
	// handshake, which hold a slot before they show up in conns.
	candidates    []protocol.PeerInfo
	dialed        map[id.GUID]bool
	dialing       int
	bytesInfra    int64
	bytesPeers    int64
	fromPeers     map[id.GUID]int64
	peersReturned int
	// lastQuery is when the control plane was last asked for peers; querying
	// is set until that query is answered, fails or times out, and answered
	// is closed then. queried is set by the first answer, which
	// peersReturned records.
	lastQuery time.Time
	querying  bool
	answered  chan struct{}
	queried   bool
	corrupt   int
	// edgeUrgent marks pieces the edge fetched while they sat in the
	// urgent playback window: edge-rescue bytes in the stream metrics.
	edgeUrgent map[int]bool
	// edge is the edge fetcher's outstanding request. edgeParked is set
	// while the fetcher waits on edgeWake because it found nothing to fetch.
	edge       request
	edgeParked bool
	// slowest is the longest a piece this download stored took from its
	// request to its arrival; end-game duplicates are measured against it.
	// rescuedAt is when step last handed the idle piece sources a rescue.
	slowest   time.Duration
	rescuedAt time.Time
	state     downloadState
	outcome   protocol.Outcome
	// p2pOff is set when the download degrades to edge-only: the swarm
	// stalled for a whole StallWindow, or corruption crossed the limit.
	p2pOff bool
	// lastPeerPiece is when a peer last delivered a verified piece; swarm
	// liveness is measured against it.
	lastPeerPiece time.Time

	wake     chan struct{} // pokes the driver; capacity 1, sends never block
	edgeWake chan struct{} // unparks the edge fetcher; capacity 1
	doneCh   chan struct{}
	reported bool
	// puts counts the store Puts under way. put adds to it under mu while
	// the download runs, and terminate waits for it after ending the
	// download, so no piece lands in the store once Wait has returned.
	puts sync.WaitGroup
}

// poke leaves a wake-up in a capacity-1 channel unless one is already there.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Download starts downloading an object. It returns immediately with a
// handle; use Wait for completion. Downloads of objects already in progress
// return the existing handle.
func (c *Client) Download(oid content.ObjectID) (*Download, error) {
	return c.DownloadWith(oid, DownloadOpts{})
}

// DownloadWith starts a download with explicit options.
func (c *Client) DownloadWith(oid content.ObjectID, opts DownloadOpts) (*Download, error) {
	c.mu.Lock()
	if d := c.downloads[oid]; d != nil {
		c.mu.Unlock()
		return d, nil
	}
	c.mu.Unlock()

	trace := telemetry.NewTrace("download", oid.String())
	endAuth := trace.StartStage(telemetry.StageAuthorize)
	auth, err := c.edge.Authorize(c.cfg.GUID, oid)
	endAuth()
	if err != nil {
		return nil, fmt.Errorf("peer: authorize: %w", err)
	}
	endManifest := trace.StartStage(telemetry.StageManifest)
	m, err := c.manifest(oid)
	endManifest()
	if err != nil {
		return nil, fmt.Errorf("peer: manifest: %w", err)
	}
	d, err := newDownload(c, m, auth.Token, auth.P2P, opts, trace, time.Now)
	if err != nil {
		return nil, err
	}
	// Resume support: start from whatever the store already holds.
	if bf := c.store.Have(oid); bf != nil {
		d.have = bf
	}
	if d.play != nil {
		// Pieces already on disk (resume) count for the playback clock.
		n := d.have.Len()
		for i := 0; i < n; i++ {
			if d.have.Has(i) {
				d.play.OnPiece(i, d.start.UnixMilli())
			}
		}
		c.metrics.streamSessions.Inc()
	}

	c.mu.Lock()
	if existing := c.downloads[oid]; existing != nil {
		c.mu.Unlock()
		return existing, nil
	}
	c.downloads[oid] = d
	c.mu.Unlock()

	if d.have.Complete() {
		// Already fully cached; finish immediately.
		go d.finish(protocol.OutcomeCompleted)
	} else {
		c.saveCheckpoint(d)
		go d.edgeFetcher()
		if d.p2p && !d.p2pOff {
			go d.drive()
		}
	}
	return d, nil
}

// newDownload builds the state machine for one transfer; it starts nothing.
func newDownload(c *Client, m *content.Manifest, token []byte, p2p bool, opts DownloadOpts,
	trace *telemetry.Trace, now func() time.Time) (*Download, error) {
	start := now()
	d := &Download{
		c:             c,
		oid:           m.Object.ID,
		manifest:      m,
		token:         token,
		p2p:           p2p,
		opts:          opts,
		start:         start,
		now:           now,
		rng:           rand.New(rand.NewSource(start.UnixNano())),
		trace:         trace,
		have:          content.NewBitfield(m.Object.NumPieces()),
		inflight:      make(map[int]int),
		conns:         make(map[*swarmConn]bool),
		dialed:        make(map[id.GUID]bool),
		fromPeers:     make(map[id.GUID]int64),
		p2pOff:        opts.resumeP2POff,
		lastPeerPiece: start,
		wake:          make(chan struct{}, 1),
		edgeWake:      make(chan struct{}, 1),
		doneCh:        make(chan struct{}),
	}
	if sc := opts.Streaming; sc != nil && sc.BitrateBps > 0 {
		obj := m.Object
		sess, err := streaming.NewSession(*sc, obj.NumPieces(), obj.PieceSize, obj.Size, start.UnixMilli())
		if err != nil {
			return nil, fmt.Errorf("peer: streaming: %w", err)
		}
		d.play = sess
		d.edgeUrgent = make(map[int]bool)
	}
	return d, nil
}

// StreamMetrics snapshots the playback outcome of a streaming download;
// nil for bulk transfers.
func (d *Download) StreamMetrics() *streaming.Metrics {
	if d.play == nil {
		return nil
	}
	m := d.play.Metrics(d.now().UnixMilli())
	return &m
}

// Object returns the object being downloaded.
func (d *Download) Object() content.Object { return d.manifest.Object }

// Trace returns the download's lifecycle trace.
func (d *Download) Trace() *telemetry.Trace { return d.trace }

// Wait blocks until the download reaches a terminal state or the context is
// cancelled; cancellation aborts the download.
func (d *Download) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-d.doneCh:
	case <-ctx.Done():
		d.Abort()
		<-d.doneCh
	}
	return d.result(), nil
}

// Pause suspends the download; in-flight pieces complete, then activity
// stops. Users "can pause and resume downloads" (§3.3). Paused is a state
// every decision checks: step arms nothing, the edge fetcher parks, and
// connections that finish their request are not given another.
func (d *Download) Pause() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == stateRunning {
		d.state = statePaused
	}
}

// Resume continues a paused download.
func (d *Download) Resume() {
	d.mu.Lock()
	if d.state != statePaused {
		d.mu.Unlock()
		return
	}
	d.state = stateRunning
	// The swarm was idle on purpose while paused; give it a fresh stall
	// window instead of degrading immediately.
	d.lastPeerPiece = d.now()
	conns := d.connsLocked()
	d.mu.Unlock()
	poke(d.wake)
	poke(d.edgeWake)
	for _, sc := range conns {
		d.kickScheduler(sc)
	}
}

// Degraded reports whether the download disabled p2p and fell back to
// edge-only delivery.
func (d *Download) Degraded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.p2pOff
}

// Abort terminates the download; the log will show it as aborted/paused and
// never resumed.
func (d *Download) Abort() { d.finish(protocol.OutcomeAborted) }

// ended reports whether the download reached its terminal state.
func (d *Download) ended() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state == stateDone
}

// Progress returns verified and total piece counts.
func (d *Download) Progress() (havePieces, totalPieces int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.have.Count(), d.have.Len()
}

// connsLocked snapshots the attached connections so the caller can write to
// them after releasing mu.
func (d *Download) connsLocked() []*swarmConn {
	conns := make([]*swarmConn, 0, len(d.conns))
	for sc := range d.conns {
		conns = append(conns, sc)
	}
	return conns
}

// request is a piece source's one outstanding request — a swarm
// connection's or the edge fetcher's: the piece and when it was requested.
// A zero at means none is outstanding. It is guarded by Download.mu and
// changes only through claimLocked and releaseLocked, which keep inflight.
type request struct {
	piece int
	at    time.Time
}

// claimLocked records r as a request for piece i made now.
func (d *Download) claimLocked(r *request, i int, now time.Time) {
	d.inflight[i]++
	*r = request{piece: i, at: now}
}

// releaseLocked drops r if it is an outstanding request for piece i. A piece
// nobody is fetching any more is work for an edge fetcher parked behind the
// swarm.
func (d *Download) releaseLocked(r *request, i int) {
	if r.at.IsZero() || r.piece != i {
		return
	}
	r.at = time.Time{}
	if d.inflight[i] > 1 {
		d.inflight[i]--
		return
	}
	delete(d.inflight, i)
	if d.edgeParked {
		poke(d.edgeWake)
	}
}

// actions is step's verdict: the effects the driver performs outside mu,
// and the next instant at which the answer can change without an event.
type actions struct {
	dial    []protocol.PeerInfo // connect to these, one free slot each
	query   bool                // ask the control plane for more peers
	degrade bool                // the swarm stalled: fall back to edge-only
	edgeDup bool                // unpark the edge: it may now duplicate a slow request
	rescue  []*swarmConn        // idle connections that may now duplicate a slow request
	next    time.Time           // zero: nothing is timed, wait for a poke
}

func (a *actions) wakeAt(t time.Time) {
	if a.next.IsZero() || t.Before(a.next) {
		a.next = t
	}
}

// step is the download's membership policy (§3.7) as one decision over the
// state under mu, which the caller holds: it issues "additional queries ...
// until a sufficient number of peer connections succeed", hands every free
// connection slot a candidate, declares a swarm dead that delivered no
// verified piece for a whole StallWindow (it is being strung along by
// stalled, slow or lying peers; the edge finishes the job, §3.3), and
// wakes the idle piece sources, the parked edge fetcher and the idle
// connections, when an end-game request turns slow (rescueAtLocked). It
// claims what it hands out (slots, the query, a rescue) so that a second
// call at the same instant returns nothing.
func (d *Download) step(now time.Time) actions {
	var a actions
	if d.state != stateRunning || !d.p2p || d.p2pOff || d.have.Complete() {
		return a
	}
	due := d.lastPeerPiece.Add(d.c.cfg.StallWindow)
	if now.After(due) {
		a.degrade = true
		return a
	}
	a.wakeAt(due)
	d.rescueLocked(now, &a)
	free := maxPeerConns - len(d.conns) - d.dialing
	for free > 0 && len(d.candidates) > 0 {
		p := d.candidates[0]
		d.candidates = d.candidates[1:]
		if d.dialed[p.GUID] || d.c.peerBlacklisted(p.GUID) {
			continue
		}
		d.dialed[p.GUID] = true
		d.dialing++
		free--
		a.dial = append(a.dial, p)
	}
	if d.querying {
		if due := d.lastQuery.Add(queryTimeout); now.Before(due) {
			a.wakeAt(due)
			return a
		}
		d.settleQueryLocked()
	}
	if free > 0 && len(d.candidates) == 0 && len(a.dial) == 0 {
		due := d.lastQuery.Add(d.c.requery)
		if d.lastQuery.IsZero() || now.After(due) {
			a.query = true
			d.querying = true
			d.answered = make(chan struct{})
			d.lastQuery = now
			due = now.Add(queryTimeout)
		}
		a.wakeAt(due)
	}
	return a
}

// rescueLocked is step's end-game part: it hands the idle piece sources a
// rescue when an end-game request turned slow since the last rescue, and
// wakes the driver when the next one will.
func (d *Download) rescueLocked(now time.Time, a *actions) {
	due := false
	for _, i := range d.have.Missing(endGamePieces) {
		at := d.rescueAtLocked(i)
		switch {
		case at.IsZero() || !at.After(d.rescuedAt):
		case now.Before(at):
			a.wakeAt(at)
		default:
			due = true
		}
	}
	if !due {
		return
	}
	d.rescuedAt = now
	a.edgeDup = d.edgeParked
	for sc := range d.conns {
		if sc.req.at.IsZero() {
			a.rescue = append(a.rescue, sc)
		}
	}
}

// rescueAtLocked is when piece i may get an end-game duplicate: once its
// most recent outstanding request, to a peer or to the edge, is twice as
// old as the slowest piece this download has received. A request younger
// than that is on time, and a duplicate of it costs a transfer and a
// SHA-256 that the original makes useless. Zero when no request for i is
// outstanding or no piece has been timed yet.
func (d *Download) rescueAtLocked(i int) time.Time {
	if d.slowest == 0 || d.inflight[i] == 0 {
		return time.Time{}
	}
	var last time.Time
	if d.edge.piece == i {
		last = d.edge.at
	}
	for sc := range d.conns {
		if sc.req.piece == i && sc.req.at.After(last) {
			last = sc.req.at
		}
	}
	if last.IsZero() {
		return time.Time{}
	}
	return last.Add(2 * d.slowest)
}

// endGameLocked is the piece an idle source may duplicate now: the lowest of
// the endGamePieces lowest missing pieces that remote holds (nil: all) and
// whose requests turned slow (rescueAtLocked); -1 when there is none.
func (d *Download) endGameLocked(now time.Time, remote *content.Bitfield) int {
	for _, i := range d.have.Missing(endGamePieces) {
		if remote != nil && !remote.Has(i) {
			continue
		}
		if at := d.rescueAtLocked(i); !at.IsZero() && !now.Before(at) {
			return i
		}
	}
	return -1
}

// drive is the download's one timed goroutine: it sleeps until an event
// pokes it or the instant step named arrives, asks step what to do, and does
// it outside mu.
func (d *Download) drive() {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-d.doneCh:
			return
		case <-d.wake:
		case <-timer.C:
		}
		now := d.now()
		d.mu.Lock()
		a := d.step(now)
		d.mu.Unlock()
		for _, p := range a.dial {
			go d.connect(p)
		}
		if a.query {
			d.c.control.send(&protocol.Query{Object: d.oid, Token: d.token, MaxPeers: 40})
		}
		if a.degrade {
			d.disableP2P("stall")
		}
		if a.edgeDup {
			poke(d.edgeWake)
		}
		for _, sc := range a.rescue {
			d.kickScheduler(sc)
		}
		// A fire that races this Stop only causes one more step, and step is
		// a function of the state and the time, not of why it was called.
		timer.Stop()
		if !a.next.IsZero() {
			timer.Reset(a.next.Sub(now))
		}
	}
}

// onQueryResult takes the control plane's answer to the pending peer query;
// nil means the control session dropped before it answered.
func (d *Download) onQueryResult(qr *protocol.QueryResult) {
	d.mu.Lock()
	answered := d.querying
	d.settleQueryLocked()
	if qr != nil && qr.Err == "" {
		if answered {
			el := d.now().Sub(d.lastQuery)
			d.c.metrics.peerLookupMs.Observe(float64(el) / float64(time.Millisecond))
			d.trace.Observe(telemetry.StagePeerLookup, el)
		}
		if !d.queried {
			d.queried = true
			d.peersReturned = len(qr.Peers)
		}
		for _, p := range qr.Peers {
			d.enqueueLocked(p)
		}
	}
	d.mu.Unlock()
	if qr != nil && qr.Err != "" {
		d.c.logf("peer query rejected: %s", qr.Err)
	}
	poke(d.wake)
}

// settleQueryLocked ends the pending peer query, if any, and releases
// awaitFirstAnswer.
func (d *Download) settleQueryLocked() {
	if d.querying {
		d.querying = false
		close(d.answered)
	}
}

// awaitFirstAnswer holds a download that peers delivered bytes to while its
// first peer query is still unanswered until that answer arrives, at most
// queryTimeout after the query went out. The control plane sends the answer
// before it tells the chosen holders to dial back, so the answer is already
// on its way when their pieces arrive. Without the wait, a download that
// finished from dial-back peers first would record that the control plane
// returned no peers, and its trace would lack the peer-lookup stage.
func (d *Download) awaitFirstAnswer() {
	d.mu.Lock()
	wait := d.querying && !d.queried && d.bytesPeers > 0
	answered, due := d.answered, d.lastQuery.Add(queryTimeout)
	d.mu.Unlock()
	if !wait {
		return
	}
	timer := time.NewTimer(due.Sub(d.now()))
	defer timer.Stop()
	select {
	case <-answered:
	case <-timer.C:
	}
}

// addCandidate feeds a control-plane-suggested peer into the dial queue.
func (d *Download) addCandidate(p protocol.PeerInfo) {
	d.mu.Lock()
	d.enqueueLocked(p)
	d.mu.Unlock()
	poke(d.wake)
}

func (d *Download) enqueueLocked(p protocol.PeerInfo) {
	if !d.p2pOff && !d.dialed[p.GUID] && p.GUID != d.c.cfg.GUID {
		d.candidates = append(d.candidates, p)
	}
}

// connect dials one candidate and, when the handshake succeeds, serves the
// connection until it closes: one goroutine per swarm connection, from dial
// to close.
func (d *Download) connect(p protocol.PeerInfo) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	d.c.metrics.swarmDials.Inc()
	dialStart := time.Now()
	sc, err := d.c.dialSwarm(ctx, d, p)
	cancel()
	d.mu.Lock()
	d.dialing--
	if err != nil {
		// Un-mark the peer so that once its blacklist entry decays a later
		// query may retry it (§3.7: keep trying "until a sufficient number
		// of peer connections succeed").
		delete(d.dialed, p.GUID)
	}
	d.mu.Unlock()
	poke(d.wake)
	if err != nil {
		if d.ended() {
			// The download ended during the handshake (attachConn refused
			// the connection): not the remote's fault, nothing to blame.
			return
		}
		d.c.metrics.swarmDialErrors.Inc()
		d.c.logf("swarm dial %s: %v", p.Addr, err)
		d.c.blacklistPeer(p.GUID)
		return
	}
	d.trace.Observe(telemetry.StageSwarmConnect, time.Since(dialStart))
	sc.loop()
}

// attachConn adds an established swarm connection to the download; it
// reports false when the download no longer takes peers (degraded to
// edge-only or done), in which case the caller must close the connection.
func (d *Download) attachConn(sc *swarmConn) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.p2pOff || d.state == stateDone {
		return false
	}
	d.conns[sc] = true
	return true
}

func (d *Download) removeConn(sc *swarmConn) {
	d.mu.Lock()
	d.releaseLocked(&sc.req, sc.req.piece)
	delete(d.conns, sc)
	d.mu.Unlock()
	poke(d.wake) // a connection slot is free
}

// takeEdgePiece claims the next piece for the edge connection, -1 when
// there is none right now. The edge picks in the order an edge-only stream
// plays: the urgent playback window first, then the lowest missing piece
// nobody is fetching. When only in-flight pieces remain it is one more idle
// piece source: it duplicates a piece whose requests turned slow
// (endGameLocked), the backstop that makes progress independent of peers
// ("if a peer is 'unlucky' and picks peers that are slow or unreliable, the
// infrastructure can cover the difference", §3.3), and otherwise parks.
func (d *Download) takeEdgePiece() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != stateRunning {
		d.edgeParked = true
		return -1
	}
	now := d.now()
	free := func(lo, hi int) int {
		for i := max(lo, 0); i < hi; i++ {
			if !d.have.Has(i) && d.inflight[i] == 0 {
				return i
			}
		}
		return -1
	}
	// For streaming downloads the edge serves the urgent playback window
	// first: it is the rescue path for pieces no peer can deliver by
	// their deadline.
	winLo, winHi := -1, -1
	if d.play != nil {
		d.play.Advance(now.UnixMilli())
		winLo, winHi = d.play.Window()
	}
	pick := free(winLo, winHi)
	if pick < 0 {
		pick = free(0, d.have.Len())
	}
	if pick < 0 {
		pick = d.endGameLocked(now, nil)
	}
	d.edgeParked = pick < 0
	if d.edgeParked {
		poke(d.wake) // the driver times the end game
		return -1
	}
	d.claimLocked(&d.edge, pick, now)
	if pick >= winLo && pick < winHi {
		d.edgeUrgent[pick] = true
	}
	return pick
}

// edgeFetcher downloads pieces over HTTP until the download ends. With
// nothing to fetch — paused, or every missing piece requested from the
// swarm — it parks until an event that can change that unparks it.
func (d *Download) edgeFetcher() {
	bo := &retry.Backoff{Base: 200 * time.Millisecond, Max: 5 * time.Second}
	for {
		idx := d.takeEdgePiece()
		if idx < 0 {
			select {
			case <-d.doneCh:
				return
			case <-d.edgeWake:
			}
			continue
		}
		fetchStart := time.Now()
		var stored bool
		err := d.c.edge.FetchPiece(d.manifest, d.token, idx, func(data []byte) (err error) {
			stored, err = d.put(idx, data)
			return err
		})
		el := time.Since(fetchStart)
		if err == nil {
			d.c.metrics.edgeFetchMs.Observe(float64(el) / float64(time.Millisecond))
			d.trace.Observe(telemetry.StageEdgeFetch, el)
			bo.Reset()
		}
		if stored {
			d.accept(idx, nil, el)
		} else {
			d.mu.Lock()
			d.releaseLocked(&d.edge, idx)
			d.mu.Unlock()
		}
		if err != nil {
			if d.ended() {
				return // the download ended under the fetch: the failure is moot
			}
			d.c.logf("edge fetch piece %d: %v", idx, err)
			d.c.metrics.retriesEdge.Inc()
			select {
			case <-d.doneCh:
				return
			case <-time.After(bo.Next()):
			}
		}
	}
}

// nextRequest claims the next piece to request on a connection that has no
// outstanding request, -1 when there is none. One outstanding request per
// connection keeps the implementation simple while still filling multi-peer
// pipelines.
func (d *Download) nextRequest(sc *swarmConn) int {
	remote := sc.remoteBitfield()
	if remote == nil {
		return -1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != stateRunning || d.p2pOff || !d.conns[sc] || !sc.req.at.IsZero() {
		return -1
	}
	now := d.now()
	if d.play != nil {
		d.play.Advance(now.UnixMilli())
	}
	// The policy sees a point-in-time view; the closures read maps
	// guarded by d.mu, which is held for the whole decision.
	pick := nextPiece(d.opts, &streaming.PieceView{
		Have:     d.have,
		Remote:   remote,
		InFlight: func(i int) bool { return d.inflight[i] > 0 },
		Avail:    d.holdersLocked,
		Rand:     d.rng,
		Session:  d.play,
	})
	if pick < 0 {
		// End-game: every missing piece the remote has is in flight.
		// Duplicate one whose requests turned slow, so a slow source cannot
		// stall completion; until one does, the driver times the wait.
		if pick = d.endGameLocked(now, remote); pick < 0 {
			poke(d.wake)
			return -1
		}
	}
	d.claimLocked(&sc.req, pick, now)
	return pick
}

// holdersLocked counts the connected uploaders that announced piece i: the
// signal behind the window scheduler's rarest-first tail.
func (d *Download) holdersLocked(i int) int {
	n := 0
	for sc := range d.conns {
		if sc.remoteHasPiece(i) {
			n++
		}
	}
	return n
}

// kickScheduler issues the next piece request on a connection; the
// connection's reader calls it whenever the answer may have changed.
func (d *Download) kickScheduler(sc *swarmConn) {
	pick := d.nextRequest(sc)
	if pick < 0 {
		return
	}
	if err := sc.send(&protocol.Request{Index: uint32(pick)}); err != nil {
		d.mu.Lock()
		d.releaseLocked(&sc.req, pick)
		d.mu.Unlock()
	}
}

// onPiece handles a piece arriving from a swarm connection.
func (d *Download) onPiece(sc *swarmConn, idx int, data []byte) {
	var el time.Duration // zero for a piece nobody requested on sc
	d.mu.Lock()
	if !sc.req.at.IsZero() && sc.req.piece == idx {
		el = d.now().Sub(sc.req.at)
		d.c.metrics.peerPieceMs.Observe(float64(el) / float64(time.Millisecond))
		d.trace.Observe(telemetry.StagePieceTransfer, el)
	}
	d.mu.Unlock()
	// The request stays outstanding while put verifies the piece: a piece
	// that is neither held nor in flight would be requested again.
	stored, err := d.put(idx, data)
	if stored {
		d.accept(idx, sc, el)
		d.kickScheduler(sc)
		return
	}
	d.mu.Lock()
	d.releaseLocked(&sc.req, idx)
	d.mu.Unlock()
	if err != nil {
		// "If a peer cannot validate a file piece, it discards the piece
		// and does not upload it to other peers" (§3.5).
		d.mu.Lock()
		d.corrupt++
		tooMany := d.corrupt > d.c.cfg.CorruptPieceLimit
		d.mu.Unlock()
		sc.mu.Lock()
		sc.corrupt++
		badPeer := sc.corrupt >= 3
		sc.mu.Unlock()
		d.c.metrics.corruptPieces.Inc()
		d.c.logf("corrupt piece %d from %s", idx, sc.remote.Short())
		d.c.reportProblem("piece-corrupt",
			fmt.Sprintf("object %v piece %d from peer %s", d.oid, idx, sc.remote.Short()))
		if badPeer {
			// A peer that repeatedly fails verification is broken or
			// hostile; drop it and let the edge (and honest peers) cover.
			sc.send(&protocol.Goodbye{Reason: "verification failures"})
			sc.close()
			return
		}
		if tooMany {
			// Corruption across many sources: the swarm as a whole cannot
			// be trusted for this object. Rather than failing the
			// download, fall back to the edge, which always serves
			// verified content — "the infrastructure can cover the
			// difference" (§3.3).
			d.disableP2P("corruption")
			return
		}
	}
	d.kickScheduler(sc)
}

// disableP2P degrades the download to edge-only: no new peers are dialed or
// accepted, existing swarm connections close, and the edge fetcher finishes
// the object alone. This is the bottom rung of the degradation ladder — the
// paper's guarantee that peer trouble costs efficiency, never the download.
func (d *Download) disableP2P(reason string) {
	d.mu.Lock()
	if d.p2pOff || d.state == stateDone {
		d.mu.Unlock()
		return
	}
	d.p2pOff = true
	d.candidates = nil
	conns := d.connsLocked()
	d.mu.Unlock()
	for _, sc := range conns {
		sc.send(&protocol.Goodbye{Reason: "p2p disabled: " + reason})
		sc.close()
	}
	switch reason {
	case "stall":
		d.c.metrics.degradeStall.Inc()
	case "corruption":
		d.c.metrics.degradeCorrupt.Inc()
	}
	d.trace.Event("p2p-degraded", reason)
	// Persist the degradation so a post-crash resume stays edge-only.
	d.c.saveCheckpoint(d)
	d.c.logf("download %v degraded to edge-only (%s)", d.oid, reason)
	d.c.reportProblem("p2p-degraded",
		fmt.Sprintf("object %v reason %s", d.oid, reason))
}

// put hands a received piece to the store, whose Put verifies it — the one
// SHA-256 a received piece gets, end-game duplicates included — and takes
// ownership of data. It reports whether the piece was stored; an error wraps
// content.ErrCorrupt and blames the source. A storage failure is not the
// source's fault: it is a user-side problem (e.g. the disk is full), a
// "failed (other)" outcome in §5.2. A piece that arrives after the download
// ended is dropped unverified.
func (d *Download) put(idx int, data []byte) (bool, error) {
	d.mu.Lock()
	if d.state == stateDone {
		d.mu.Unlock()
		d.c.metrics.dupPieces.Inc()
		return false, nil
	}
	d.puts.Add(1)
	d.mu.Unlock()
	err := d.c.store.Put(d.manifest, idx, data)
	d.puts.Done()
	if err == nil || errors.Is(err, content.ErrCorrupt) {
		return err == nil, err
	}
	d.c.logf("store piece %d: %v", idx, err)
	d.finish(protocol.OutcomeFailedOther)
	return false, nil
}

// accept books a piece put just stored, from sc or, when sc is nil, from the
// edge: accounting, the announcement to the swarm, and completion when it
// was the last piece. It drops the request the piece answered in the same
// critical section that marks it held, so the piece is never seen missing
// and un-requested in between. took is how long the piece took from its
// request, zero when untimed. An end-game duplicate is already booked and
// changes nothing.
func (d *Download) accept(idx int, sc *swarmConn, took time.Duration) {
	n := int64(d.manifest.Object.PieceLength(idx))
	infra, req := sc == nil, &d.edge
	if !infra {
		req = &sc.req
	}
	d.mu.Lock()
	d.releaseLocked(req, idx)
	if d.have.Has(idx) {
		d.mu.Unlock()
		d.c.metrics.dupPieces.Inc()
		return
	}
	now := d.now()
	d.have.Set(idx)
	d.slowest = max(d.slowest, took)
	rescue := false
	if infra {
		d.bytesInfra += n
		if d.edgeUrgent[idx] {
			delete(d.edgeUrgent, idx)
			rescue = true
		}
	} else {
		d.bytesPeers += n
		d.fromPeers[sc.remote] += n
		d.lastPeerPiece = now
	}
	haveCount := d.have.Count()
	total := d.have.Len()
	complete := d.have.Complete()
	conns := d.connsLocked()
	d.mu.Unlock()
	if infra {
		d.c.metrics.piecesEdge.Inc()
		d.c.metrics.bytesDownEdge.Add(n)
	} else {
		d.c.metrics.piecesPeers.Inc()
		d.c.metrics.bytesDownPeers.Add(n)
	}
	if d.play != nil {
		d.play.OnPiece(idx, now.UnixMilli())
		if rescue {
			d.play.AddEdgeRescue(n)
			d.c.metrics.streamEdgeRescueBytes.Add(n)
		}
	}
	// A remote that announced the piece would parse the HAVE and drop it;
	// one whose bitfield has not arrived yet still gets it.
	for _, sc := range conns {
		if !sc.remoteHasPiece(idx) {
			sc.send(&protocol.Have{Index: uint32(idx)})
		}
	}
	// Partially downloaded objects are already shareable: the DN tracks
	// partial holders (Register carries HaveCount, §3.6). Announce at each
	// quarter so concurrent downloaders of a hot object find each other
	// mid-swarm.
	if !complete && d.c.prefs.UploadsEnabled() && total >= 8 {
		quarter := total / 4
		if quarter > 0 && haveCount%quarter == 0 {
			d.c.control.send(&protocol.Register{
				Object:    d.oid,
				NumPieces: uint32(total),
				HaveCount: uint32(haveCount),
				Complete:  false,
			})
		}
	}
	if complete {
		d.finish(protocol.OutcomeCompleted)
	}
}

// terminate moves the download to its terminal state and tears down its
// swarm; it reports false when the download was already there. crashed
// models a process death: connections drop without a Goodbye and no usage
// record will be sent.
func (d *Download) terminate(outcome protocol.Outcome, crashed bool) bool {
	d.mu.Lock()
	first := d.state != stateDone
	var conns []*swarmConn
	if first {
		d.state = stateDone
		d.outcome = outcome
		d.reported = crashed
		conns = d.connsLocked()
	}
	d.mu.Unlock()
	// No put starts any more; wait out those under way, so that a piece
	// verified concurrently cannot land in the store once the download is
	// over (a cache eviction right after Wait would leave it behind).
	d.puts.Wait()
	if !first {
		return false
	}
	for _, sc := range conns {
		if !crashed {
			sc.send(&protocol.Goodbye{Reason: "download finished"})
		}
		sc.close()
	}
	d.c.mu.Lock()
	if d.c.downloads[d.oid] == d {
		delete(d.c.downloads, d.oid)
	}
	d.c.mu.Unlock()
	return true
}

// finish moves the download to a terminal state exactly once, reports the
// usage record, registers the completed object for upload, and cleans up.
// It first waits for a first peer-query answer that peers' pieces overtook
// (awaitFirstAnswer), so the record states what the control plane answered.
func (d *Download) finish(outcome protocol.Outcome) {
	d.awaitFirstAnswer()
	if !d.terminate(outcome, false) {
		return
	}
	if outcome == protocol.OutcomeFailedSystem {
		d.c.reportProblem("download-failed-system", d.oid.String())
	}
	d.c.metrics.downloadOutcome(outcome.String()).Inc()
	if m := d.StreamMetrics(); m != nil {
		d.c.metrics.streamStartupMs.Observe(float64(m.StartupDelayMs))
		d.c.metrics.streamRebuffers.Add(m.RebufferCount)
		d.c.metrics.streamRebufferMs.Add(m.RebufferMs)
		d.c.metrics.streamDeadlineMisses.Add(m.DeadlineMisses)
	}
	d.trace.Event("outcome", outcome.String())
	d.trace.End()
	d.c.traces.Add(d.trace)

	d.report()
	if outcome == protocol.OutcomeCompleted {
		// Only completion retires the checkpoint: an aborted download stays
		// resumable across restarts ("continue downloads that were aborted
		// earlier", §3.3).
		d.c.removeCheckpoint(d.oid)
		d.c.markCached(d.oid)
	}
	if outcome == protocol.OutcomeCompleted && d.c.prefs.UploadsEnabled() {
		bf := d.c.store.Have(d.oid)
		if bf != nil && bf.Count() > 0 {
			d.c.control.send(&protocol.Register{
				Object:    d.oid,
				NumPieces: uint32(bf.Len()),
				HaveCount: uint32(bf.Count()),
				Complete:  bf.Complete(),
			})
		}
	}
	close(d.doneCh)
}

// kill terminates the download the way a process death would: swarm
// connections drop without a Goodbye, no statistics report is sent, and the
// checkpoint stays on disk so a restart resumes the transfer. Only the
// in-process crash tests use it.
func (d *Download) kill() {
	if d.terminate(protocol.OutcomeAborted, true) {
		close(d.doneCh)
	}
}
