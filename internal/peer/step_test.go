package peer

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"netsession/internal/content"
	"netsession/internal/id"
	"netsession/internal/protocol"
	"netsession/internal/streaming"
	"netsession/internal/telemetry"
)

// The tests in this file drive a Download's decisions — step, takeEdgePiece,
// kickScheduler and the event handlers around them — on the test goroutine
// with a fake clock and connections that discard what is written to them. No
// socket is opened and no goroutine of the download runs.

type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// fakeConn swallows writes; onWrite, when set, runs first and may fail them.
type fakeConn struct {
	net.Conn
	onWrite func() error
}

func (f *fakeConn) Write(p []byte) (int, error) {
	if f.onWrite != nil {
		if err := f.onWrite(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}
func (f *fakeConn) SetWriteDeadline(time.Time) error { return nil }
func (f *fakeConn) Close() error                     { return nil }

// stepRig is one download on a client that has no listener, no control
// session and no edge.
type stepRig struct {
	t     *testing.T
	clock *fakeClock
	c     *Client
	d     *Download
	rng   *rand.Rand
}

func newStepRig(t *testing.T, pieces int, opts DownloadOpts) *stepRig {
	t.Helper()
	const pieceSize = 512
	obj, err := content.NewObject(77, "step/blob.bin", 1, int64(pieces*pieceSize-100), pieceSize, true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := content.SyntheticManifest(obj)
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{
		cfg: Config{
			GUID:              id.NewGUID(),
			StallWindow:       15 * time.Second,
			CorruptPieceLimit: 25,
			Logf:              func(string, ...any) {},
		},
		requery:   requeryInterval,
		store:     content.NewMemStore(),
		metrics:   newClientMetrics(),
		traces:    telemetry.NewTraceLog(0),
		prefs:     NewPreferences(false),
		downloads: make(map[content.ObjectID]*Download),
		cachedAt:  make(map[content.ObjectID]time.Time),
		blacklist: make(map[id.GUID]time.Time),
	}
	c.control = newControlConn(c) // never started: what is sent on it is dropped
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	d, err := newDownload(c, m, []byte("token"), true, opts, telemetry.NewTrace("download", "step"), clock.now)
	if err != nil {
		t.Fatal(err)
	}
	c.downloads[d.oid] = d
	return &stepRig{t: t, clock: clock, c: c, d: d, rng: rand.New(rand.NewSource(1))}
}

func (r *stepRig) step() actions {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	return r.d.step(r.clock.now())
}

func (r *stepRig) peers(n int) []protocol.PeerInfo {
	out := make([]protocol.PeerInfo, n)
	for i := range out {
		out[i] = protocol.PeerInfo{GUID: id.RandGUID(r.rng), Addr: "192.0.2.1:1"}
	}
	return out
}

// connUp attaches a connection to a seeder holding every piece, the way
// dialSwarm does after the handshake.
func (r *stepRig) connUp(g id.GUID) *swarmConn {
	r.t.Helper()
	bf := content.NewBitfield(r.d.have.Len())
	for i := 0; i < bf.Len(); i++ {
		bf.Set(i)
	}
	sc := &swarmConn{c: r.c, conn: &fakeConn{}, remote: g, oid: r.d.oid,
		manifest: r.d.manifest, download: r.d, remoteHave: bf}
	if !r.d.attachConn(sc) {
		r.t.Fatal("download refused a connection")
	}
	return sc
}

func (r *stepRig) piece(i int) []byte {
	obj := r.d.manifest.Object
	buf := make([]byte, obj.PieceLength(i))
	content.SyntheticBody(obj.ID, obj.PieceOffset(i), buf)
	return buf
}

// edgeDeliver completes an edge fetch the way edgeFetcher does.
func (r *stepRig) edgeDeliver(i int) {
	if stored, _ := r.d.put(i, r.piece(i)); stored {
		r.d.accept(i, nil, 0)
	} else {
		r.edgeFail(i)
	}
}

// edgeFail ends an edge fetch that stored nothing, the way edgeFetcher does.
func (r *stepRig) edgeFail(i int) {
	r.d.mu.Lock()
	r.d.releaseLocked(&r.d.edge, i)
	r.d.mu.Unlock()
}

// edgeRequest is the edge fetcher's outstanding request; ok is false when
// it has none.
func (r *stepRig) edgeRequest() (piece int, ok bool) {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	return r.d.edge.piece, !r.d.edge.at.IsZero()
}

func (r *stepRig) done() bool {
	select {
	case <-r.d.doneCh:
		return true
	default:
		return false
	}
}

func TestStepDialsEveryFreeSlot(t *testing.T) {
	r := newStepRig(t, 8, DownloadOpts{})
	r.d.lastQuery = r.clock.now() // a query was just answered
	for _, p := range r.peers(5) {
		r.connUp(p.GUID)
	}
	r.d.dialing = 1 // plus one dial in its handshake: 8-5-1 = 2 free slots
	for _, p := range r.peers(6) {
		r.d.addCandidate(p)
	}
	a := r.step()
	if len(a.dial) != 2 || a.query || a.degrade {
		t.Fatalf("6 candidates, 2 free slots: got %d dials, query=%v degrade=%v", len(a.dial), a.query, a.degrade)
	}
	if a := r.step(); len(a.dial) != 0 || a.query {
		t.Fatalf("slots taken, second step still acts: %+v", a)
	}
	if got := len(r.d.candidates); got != 4 {
		t.Fatalf("%d candidates left waiting for a slot, want 4", got)
	}
	// A lost connection frees a slot for the next waiting candidate.
	for sc := range r.d.conns {
		sc.close()
		break
	}
	if a := r.step(); len(a.dial) != 1 {
		t.Fatalf("one slot freed: got %d dials", len(a.dial))
	}
}

func TestStepRequeryWaitsForInterval(t *testing.T) {
	r := newStepRig(t, 8, DownloadOpts{})
	a := r.step()
	if !a.query {
		t.Fatal("first step with no candidates must query")
	}
	asked := r.clock.now()
	if a := r.step(); a.query || !a.next.Equal(asked.Add(queryTimeout)) {
		t.Fatalf("query pending: query=%v next=%v, want the query timeout", a.query, a.next.Sub(asked))
	}
	r.clock.advance(3 * time.Millisecond)
	r.d.onQueryResult(&protocol.QueryResult{Object: r.d.oid}) // nobody holds it yet
	r.clock.advance(500 * time.Millisecond)
	a = r.step()
	if a.query || !a.next.Equal(asked.Add(requeryInterval)) {
		t.Fatalf("before the interval: query=%v next=%v, want wake at the requery instant", a.query, a.next.Sub(asked))
	}
	r.clock.t = a.next.Add(time.Nanosecond)
	if a := r.step(); !a.query {
		t.Fatal("requery interval elapsed, no query")
	}
	// An unanswered query is given up after queryTimeout and asked again.
	r.clock.advance(queryTimeout)
	if a := r.step(); !a.query {
		t.Fatal("timed-out query was not retried")
	}
}

func TestStepDegradesOnceAfterStallWindow(t *testing.T) {
	r := newStepRig(t, 8, DownloadOpts{})
	r.c.cfg.StallWindow = 3 * time.Second
	start := r.clock.now()
	r.clock.advance(time.Second)
	r.d.Pause()
	r.clock.advance(time.Minute)
	if a := r.step(); a.degrade || a.query || !a.next.IsZero() {
		t.Fatalf("paused download acted: %+v", a)
	}
	r.d.Resume()
	resumed := r.clock.now()
	if a := r.step(); a.degrade {
		t.Fatalf("degraded on resume, %v after the last peer piece", resumed.Sub(start))
	}
	r.clock.advance(3 * time.Second)
	if a := r.step(); a.degrade || a.next.After(resumed.Add(3*time.Second)) {
		t.Fatalf("at the deadline: degrade=%v next=%v", a.degrade, a.next.Sub(resumed))
	}
	r.clock.advance(time.Millisecond)
	if a := r.step(); !a.degrade {
		t.Fatal("no peer piece for a whole stall window, not degraded")
	}
	r.d.disableP2P("stall")
	if a := r.step(); a.degrade || len(a.dial) != 0 || a.query {
		t.Fatalf("degraded download still acts: %+v", a)
	}
	if got := r.c.metrics.degradeStall.Value(); got != 1 {
		t.Fatalf("degraded %d times", got)
	}
}

// TestEndGameRescueWaitsForSlowRequest: an idle piece source, a connection
// or the parked edge fetcher, duplicates an in-flight piece only once the
// piece's most recent request, to a peer or to the edge, is twice as old as
// the slowest piece the download received; step times that instant and
// hands the idle sources the rescue once.
func TestEndGameRescueWaitsForSlowRequest(t *testing.T) {
	r := newStepRig(t, 3, DownloadOpts{sequential: true})
	d := r.d
	d.lastQuery = r.clock.now()
	t0 := r.clock.now()
	if got := d.takeEdgePiece(); got != 0 {
		t.Fatalf("edge took piece %d first", got)
	}
	a, b := r.connUp(id.RandGUID(r.rng)), r.connUp(id.RandGUID(r.rng))
	d.kickScheduler(a)
	d.kickScheduler(b)
	if a.req.piece != 1 || b.req.piece != 2 {
		t.Fatalf("requests: a=%d b=%d, want 1 and 2", a.req.piece, b.req.piece)
	}

	// a's piece takes 10ms: pieces 0 (edge) and 2 (b), requested at t0,
	// turn slow at t0+20ms.
	r.clock.advance(10 * time.Millisecond)
	d.onPiece(a, 1, r.piece(1))
	if !a.req.at.IsZero() {
		t.Fatalf("a duplicated piece %d before any request was slow", a.req.piece)
	}
	slow := t0.Add(20 * time.Millisecond)
	if act := r.step(); len(act.rescue) != 0 || !act.next.Equal(slow) {
		t.Fatalf("before the threshold: %d rescuers, next at %v, want none and t0+20ms",
			len(act.rescue), act.next.Sub(t0))
	}
	r.clock.advance(9 * time.Millisecond)
	if d.kickScheduler(a); !a.req.at.IsZero() {
		t.Fatalf("a duplicated piece %d at t0+19ms", a.req.piece)
	}
	r.clock.advance(time.Millisecond)
	act := r.step()
	if len(act.rescue) != 1 || act.rescue[0] != a || act.edgeDup {
		t.Fatalf("at the threshold: rescuers %v, edge unparked %v; want the idle connection a, not the busy edge",
			act.rescue, act.edgeDup)
	}
	if again := r.step(); len(again.rescue) != 0 {
		t.Fatal("step handed the same rescue out twice")
	}
	d.kickScheduler(a)
	if a.req.piece != 0 || d.inflight[0] != 2 {
		t.Fatalf("a rescued piece %d (inflight %v), want the edge's slow piece 0", a.req.piece, d.inflight)
	}
	// Piece 0's newest request is a's: it is not slow again before
	// t0+40ms, while b's piece 2 already is.
	if act := r.step(); !act.next.Equal(slow.Add(20 * time.Millisecond)) {
		t.Fatalf("after the rescue, next at %v, want t0+40ms", act.next.Sub(t0))
	}

	r.edgeDeliver(0)
	d.onPiece(a, 0, r.piece(0)) // the duplicate lands second
	if got := r.c.metrics.dupPieces.Value(); got != 1 {
		t.Fatalf("%d duplicate pieces counted, want 1", got)
	}
	if a.req.piece != 2 || d.inflight[2] != 2 {
		t.Fatalf("a went on to piece %d (inflight %v), want b's slow piece 2", a.req.piece, d.inflight)
	}

	// The edge is one more rescuer. Piece 2, the only one missing, is
	// requested from the swarm; its newest request (a's, at t0+20ms) turns
	// slow at t0+40ms, so the edge parks until then.
	edgeSlow := slow.Add(20 * time.Millisecond)
	if got := d.takeEdgePiece(); got != -1 || !d.edgeParked {
		t.Fatalf("edge took %d (parked %v) while piece 2's requests are on time", got, d.edgeParked)
	}
	if act := r.step(); act.edgeDup || !act.next.Equal(edgeSlow) {
		t.Fatalf("edge parked: unparked %v, next at %v, want t0+40ms", act.edgeDup, act.next.Sub(t0))
	}
	r.clock.advance(19 * time.Millisecond)
	if got := d.takeEdgePiece(); got != -1 {
		t.Fatalf("edge duplicated piece %d at t0+39ms", got)
	}
	r.clock.advance(time.Millisecond)
	if act := r.step(); !act.edgeDup || len(act.rescue) != 0 {
		t.Fatalf("at the threshold: edge unparked %v, rescuers %v; want the parked edge only", act.edgeDup, act.rescue)
	}
	if got := d.takeEdgePiece(); got != 2 || d.inflight[2] != 3 {
		t.Fatalf("edge took %d (inflight %v), want the slow piece 2 once more", got, d.inflight)
	}
	d.onPiece(b, 2, r.piece(2))
	if !r.done() {
		t.Fatal("download not finished after the last piece")
	}
	r.edgeDeliver(2) // lands after the end
	if res := d.result(); res.BytesInfra+res.BytesPeers != d.manifest.Object.Size {
		t.Fatalf("infra %d + peers %d != size %d", res.BytesInfra, res.BytesPeers, d.manifest.Object.Size)
	}
}

// TestNoRescueBeforeAnyPieceIsTimed: until a piece has been timed nothing
// is slow, so nothing is duplicated; the stall window is the backstop. The
// edge's first fetch failed and both pieces went to peers that never
// answer: the edge parks, no rescue is handed out, and the stall window
// degrades the download, which hands both pieces back to the edge.
func TestNoRescueBeforeAnyPieceIsTimed(t *testing.T) {
	r := newStepRig(t, 2, DownloadOpts{sequential: true})
	r.c.requery = time.Minute // no requery inside the stall window
	d := r.d
	d.lastQuery = r.clock.now()
	t0 := r.clock.now()
	if got := d.takeEdgePiece(); got != 0 {
		t.Fatalf("edge took piece %d first", got)
	}
	r.edgeFail(0)
	a, b := r.connUp(id.RandGUID(r.rng)), r.connUp(id.RandGUID(r.rng))
	d.kickScheduler(a)
	d.kickScheduler(b)
	if a.req.piece != 0 || b.req.piece != 1 {
		t.Fatalf("requests: a=%d b=%d, want 0 and 1", a.req.piece, b.req.piece)
	}
	stall := t0.Add(r.c.cfg.StallWindow)
	for _, at := range []time.Duration{0, time.Second, r.c.cfg.StallWindow} {
		r.clock.t = t0.Add(at)
		if got := d.takeEdgePiece(); got != -1 {
			t.Fatalf("edge duplicated piece %d at t0+%v with no piece timed", got, at)
		}
		act := r.step()
		if act.edgeDup || len(act.rescue) != 0 || act.degrade || !act.next.Equal(stall) {
			t.Fatalf("at t0+%v: %+v, want nothing but a wake at the stall deadline", at, act)
		}
	}
	r.clock.advance(time.Millisecond)
	if act := r.step(); !act.degrade {
		t.Fatal("no peer piece for a whole stall window, not degraded")
	}
	d.disableP2P("stall")
	select {
	case <-d.edgeWake:
	default:
		t.Fatal("the requests the degradation released did not unpark the edge")
	}
	for i := 0; i < 2; i++ {
		if got := d.takeEdgePiece(); got != i {
			t.Fatalf("edge took %d, want %d", got, i)
		}
		r.edgeDeliver(i)
	}
	if !r.done() {
		t.Fatal("download not finished after the last piece")
	}
	if res := d.result(); res.BytesInfra != d.manifest.Object.Size || res.BytesPeers != 0 {
		t.Fatalf("infra %d, peers %d; want the whole object from the edge", res.BytesInfra, res.BytesPeers)
	}
}

// gatedStore is a MemStore whose first Put parks until release is closed,
// after closing entered.
type gatedStore struct {
	*content.MemStore
	once             sync.Once
	entered, release chan struct{}
}

func (g *gatedStore) Put(m *content.Manifest, index int, data []byte) error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.MemStore.Put(m, index, data)
}

// TestEndWaitsForPutUnderWay: a download that ends while a received piece
// is being verified returns from Abort, and so from Wait, only once that
// piece is stored; an eviction right after Wait then leaves nothing behind.
func TestEndWaitsForPutUnderWay(t *testing.T) {
	r := newStepRig(t, 2, DownloadOpts{})
	gs := &gatedStore{MemStore: content.NewMemStore(), entered: make(chan struct{}), release: make(chan struct{})}
	r.c.store = gs
	d := r.d
	go d.put(1, r.piece(1))
	<-gs.entered
	aborted := make(chan struct{})
	go func() {
		d.Abort()
		close(aborted)
	}()
	select {
	case <-aborted:
		t.Fatal("Abort returned while a piece was still being stored")
	case <-time.After(50 * time.Millisecond):
	}
	close(gs.release)
	<-aborted
	gs.Drop(d.oid)
	if stored, _ := d.put(0, r.piece(0)); stored {
		t.Fatal("a piece arriving after the end was stored")
	}
	if bf := gs.Have(d.oid); bf != nil && bf.Count() > 0 {
		t.Fatalf("%d pieces in the store after the end and a Drop", bf.Count())
	}
}

// TestCheckpointNotRewrittenPerPiece: the checkpoint says which download to
// resume and how; the piece store says which pieces are done. Verified
// pieces therefore leave the file alone, and only a degradation rewrites it.
func TestCheckpointNotRewrittenPerPiece(t *testing.T) {
	r := newStepRig(t, 8, DownloadOpts{sequential: true})
	r.c.ckptDir = t.TempDir()
	r.c.saveCheckpoint(r.d) // as DownloadWith does when the download starts
	path := r.c.checkpointPath(r.d.oid)
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	started := stat()
	for i := 0; i < 5; i++ {
		if got := r.d.takeEdgePiece(); got != i {
			t.Fatalf("edge took %d, want %d", got, i)
		}
		r.edgeDeliver(i)
	}
	if !os.SameFile(started, stat()) {
		t.Fatal("verified pieces rewrote the checkpoint")
	}
	r.d.disableP2P("stall")
	if os.SameFile(started, stat()) {
		t.Fatal("degradation to edge-only was not checkpointed")
	}
}

func TestStreamingWindowFollowsClockWithoutTicker(t *testing.T) {
	// 512-byte pieces at 40,960 bit/s play for 100 ms each.
	r := newStepRig(t, 10, DownloadOpts{Streaming: &streaming.Config{
		BitrateBps: 40_960, StartupPieces: 1, WindowPieces: 2}})
	for i := 0; i < 3; i++ {
		if got := r.d.takeEdgePiece(); got != i {
			t.Fatalf("edge took %d, want %d", got, i)
		}
		r.edgeDeliver(i)
	}
	// Nothing touches the session for 250 ms: pieces 0, 1 and 2 have begun
	// playing by then, so the urgent window must be anchored at piece 3.
	r.clock.advance(250 * time.Millisecond)
	if got := r.d.takeEdgePiece(); got != 3 {
		t.Fatalf("edge took %d, want 3", got)
	}
	if lo, hi := r.d.play.Window(); lo != 3 || hi != 5 {
		t.Fatalf("playback window [%d,%d), want [3,5)", lo, hi)
	}
	if !r.d.edgeUrgent[3] {
		t.Fatal("piece 3 was fetched inside the urgent window but not marked as an edge rescue")
	}
	sc := r.connUp(id.RandGUID(r.rng))
	r.clock.advance(200 * time.Millisecond)
	r.d.kickScheduler(sc)
	if lo, _ := r.d.play.Window(); lo != 3 || sc.req.piece != 4 {
		t.Fatalf("swarm request %d with the window at %d, want 4 and 3 (stalled on piece 3)", sc.req.piece, lo)
	}
	if m := r.d.StreamMetrics(); m.RebufferCount != 1 {
		t.Fatalf("rebuffers = %d, want the stall on piece 3 observed", m.RebufferCount)
	}
}

// TestFailedRequestSendLeavesNoBookkeeping: a request whose send fails after
// the connection was already torn down must not leave in-flight state behind.
func TestFailedRequestSendLeavesNoBookkeeping(t *testing.T) {
	r := newStepRig(t, 4, DownloadOpts{})
	sc := r.connUp(id.RandGUID(r.rng))
	sc.conn.(*fakeConn).onWrite = func() error {
		sc.close() // the reader saw the connection die first
		return errors.New("broken pipe")
	}
	r.d.kickScheduler(sc)
	if len(r.d.inflight) != 0 || len(r.d.conns) != 0 || !sc.req.at.IsZero() {
		t.Fatalf("after a failed send on a closed connection: inflight=%v conns=%d request at %v",
			r.d.inflight, len(r.d.conns), sc.req.at)
	}
}

// TestStepSeededSchedules feeds random event sequences to a download and
// checks after every event that no verified piece is requested, that every
// in-flight count is owned by a piece source's pending request — a live
// connection's or the edge fetcher's — and on completion that the bytes add
// up to the object.
func TestStepSeededSchedules(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		runSeededSchedule(t, seed)
	}
}

func runSeededSchedule(t *testing.T, seed int64) {
	r := newStepRig(t, 24, DownloadOpts{sequential: seed%2 == 0})
	r.rng = rand.New(rand.NewSource(seed))
	r.c.cfg.StallWindow = time.Duration(2+seed%4*6) * time.Second // the short ones degrade
	rng, d := r.rng, r.d
	var conns []*swarmConn
	lastPending := map[*request]time.Time{}

	check := func(event string) {
		t.Helper()
		d.mu.Lock()
		defer d.mu.Unlock()
		owned := map[int]int{}
		own := func(req *request) {
			owned[req.piece]++
			if !req.at.Equal(lastPending[req]) && d.have.Has(req.piece) {
				t.Fatalf("seed %d after %s: requested verified piece %d", seed, event, req.piece)
			}
			lastPending[req] = req.at
		}
		if !d.edge.at.IsZero() {
			own(&d.edge)
		}
		for _, sc := range conns {
			if sc.req.at.IsZero() {
				continue
			}
			if !d.conns[sc] {
				t.Fatalf("seed %d after %s: detached connection still has piece %d pending", seed, event, sc.req.piece)
			}
			own(&sc.req)
		}
		if len(owned) != len(d.inflight) {
			t.Fatalf("seed %d after %s: inflight %v, owners %v", seed, event, d.inflight, owned)
		}
		for i, n := range owned {
			if d.inflight[i] != n {
				t.Fatalf("seed %d after %s: inflight %v, owners %v", seed, event, d.inflight, owned)
			}
		}
		if d.dialing < 0 {
			t.Fatalf("seed %d after %s: dialing = %d", seed, event, d.dialing)
		}
		if d.state == stateRunning && d.edgeParked && len(d.edgeWake) == 0 {
			for _, i := range d.have.Missing(0) {
				if d.inflight[i] == 0 {
					t.Fatalf("seed %d after %s: edge parked with piece %d free and no wake pending", seed, event, i)
				}
			}
		}
	}
	live := func() []*swarmConn {
		var out []*swarmConn
		for _, sc := range conns {
			if d.conns[sc] {
				out = append(out, sc)
			}
		}
		return out
	}
	// edgeTake is one turn of edgeFetcher's loop without its fetch: a
	// fetcher with no request takes a piece unless it is parked and nothing
	// unparked it.
	edgeTake := func() {
		if _, busy := r.edgeRequest(); busy {
			return
		}
		select {
		case <-d.edgeWake:
		default:
			d.mu.Lock()
			parked := d.edgeParked
			d.mu.Unlock()
			if parked {
				return
			}
		}
		d.takeEdgePiece()
	}
	// act performs what drive does with step's verdict.
	act := func(a actions) {
		for _, p := range a.dial {
			// What connect does: the dial resolves, then the slot is settled.
			ok := rng.Intn(4) > 0
			if ok {
				conns = append(conns, r.connUp(p.GUID))
			}
			d.mu.Lock()
			d.dialing--
			if !ok {
				delete(d.dialed, p.GUID)
			}
			d.mu.Unlock()
		}
		if a.query {
			switch rng.Intn(4) {
			case 0: // unanswered
			case 1:
				d.onQueryResult(nil)
			default:
				d.onQueryResult(&protocol.QueryResult{Object: d.oid, Peers: r.peers(rng.Intn(4))})
			}
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
	}
	for n := 0; n < 400 && !r.done(); n++ {
		event := "tick"
		switch k := rng.Intn(20); {
		case k < 4:
			r.clock.advance(time.Duration(rng.Intn(1500)) * time.Millisecond)
			act(r.step())
		case k < 7:
			event = "edge take"
			edgeTake()
		case k < 9:
			event = "edge deliver"
			if i, ok := r.edgeRequest(); ok {
				if rng.Intn(5) == 0 { // the fetch failed
					r.edgeFail(i)
				} else {
					r.edgeDeliver(i)
				}
			}
		case k < 12:
			event = "kick"
			if l := live(); len(l) > 0 {
				d.kickScheduler(l[rng.Intn(len(l))])
			}
		case k < 16:
			event = "peer piece"
			var waiting []*swarmConn
			for _, sc := range live() {
				if !sc.req.at.IsZero() {
					waiting = append(waiting, sc)
				}
			}
			if len(waiting) > 0 {
				sc := waiting[rng.Intn(len(waiting))]
				data := r.piece(sc.req.piece)
				if rng.Intn(10) == 0 {
					data[0] ^= 0xff
				}
				d.onPiece(sc, sc.req.piece, data)
			}
		case k < 17:
			event = "conn lost"
			if l := live(); len(l) > 0 {
				l[rng.Intn(len(l))].close()
			}
		case k < 18:
			event = "pause"
			d.Pause()
		case k < 19:
			event = "resume"
			d.Resume()
		default:
			event = "candidate"
			d.addCandidate(r.peers(1)[0])
		}
		check(event)
	}
	// The swarm delivers nothing more. The edge fetches what it is given,
	// and the driver sleeps until step's next instant and acts on it: a
	// rescue or a degradation gives the edge the pieces the swarm holds.
	d.Resume()
	for n := 0; !r.done(); n++ {
		if n > 1000 {
			t.Fatalf("seed %d: the edge and the driver did not finish the download", seed)
		}
		edgeTake()
		if i, ok := r.edgeRequest(); ok {
			r.edgeDeliver(i)
		} else {
			next := r.step().next
			if next.IsZero() {
				t.Fatalf("seed %d: edge parked and the driver has nothing timed", seed)
			}
			r.clock.t = next.Add(time.Millisecond)
			act(r.step())
		}
		check("edge drain")
	}
	if i, ok := r.edgeRequest(); ok {
		r.edgeDeliver(i) // a fetch the swarm overtook lands after the end
	}
	res := d.result()
	if res.Outcome != protocol.OutcomeCompleted || res.BytesInfra+res.BytesPeers != d.manifest.Object.Size {
		t.Fatalf("seed %d: outcome %v, infra %d + peers %d != size %d", seed, res.Outcome,
			res.BytesInfra, res.BytesPeers, d.manifest.Object.Size)
	}
	if len(d.inflight) != 0 || len(d.conns) != 0 {
		t.Fatalf("seed %d: finished with inflight %v and %d connections", seed, d.inflight, len(d.conns))
	}
}
