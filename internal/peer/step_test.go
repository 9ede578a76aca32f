package peer

import (
	"errors"
	"math/rand"
	"net"
	"os"
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
	stored, _ := r.d.put(i, r.piece(i))
	r.d.mu.Lock()
	r.d.releaseLocked(i)
	r.d.mu.Unlock()
	if stored {
		r.d.accept(i, id.GUID{}, true)
	}
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

func TestEdgeDuplicatesInflightPieceAfterIdle(t *testing.T) {
	r := newStepRig(t, 2, DownloadOpts{sequential: true})
	r.d.lastQuery = r.clock.now()
	if got := r.d.takeEdgePiece(); got != 0 {
		t.Fatalf("edge took piece %d first", got)
	}
	sc := r.connUp(id.RandGUID(r.rng))
	r.d.kickScheduler(sc)
	if sc.reqAt.IsZero() || sc.req != 1 {
		t.Fatalf("swarm request: req=%d at=%v", sc.req, sc.reqAt)
	}
	r.edgeDeliver(0)

	idle := r.clock.now()
	if got := r.d.takeEdgePiece(); got != -1 {
		t.Fatalf("edge took %d while the only missing piece is in flight", got)
	}
	if a := r.step(); a.edgeDup || !a.next.Equal(idle.Add(edgeDupAfter)) {
		t.Fatalf("edge just went idle: edgeDup=%v next=%v", a.edgeDup, a.next.Sub(idle))
	}
	r.clock.advance(edgeDupAfter - time.Millisecond)
	if got := r.d.takeEdgePiece(); got != -1 {
		t.Fatalf("edge duplicated piece %d after %v", got, r.clock.now().Sub(idle))
	}
	r.clock.advance(time.Millisecond)
	if a := r.step(); !a.edgeDup {
		t.Fatal("edge idle for edgeDupAfter, step does not unpark it")
	}
	if got := r.d.takeEdgePiece(); got != 1 {
		t.Fatalf("edge took %d, want the in-flight piece 1", got)
	}
	if r.d.inflight[1] != 2 {
		t.Fatalf("piece 1 in flight %d times, want swarm + edge", r.d.inflight[1])
	}
	r.edgeDeliver(1)
	if !r.done() {
		t.Fatal("download not finished after the last piece")
	}
	res := r.d.result()
	if res.BytesInfra+res.BytesPeers != r.d.manifest.Object.Size || len(r.d.inflight) != 0 {
		t.Fatalf("infra %d + peers %d != size %d, or inflight left: %v",
			res.BytesInfra, res.BytesPeers, r.d.manifest.Object.Size, r.d.inflight)
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
	if lo, _ := r.d.play.Window(); lo != 3 || sc.req != 4 {
		t.Fatalf("swarm request %d with the window at %d, want 4 and 3 (stalled on piece 3)", sc.req, lo)
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
	if len(r.d.inflight) != 0 || len(r.d.conns) != 0 || !sc.reqAt.IsZero() {
		t.Fatalf("after a failed send on a closed connection: inflight=%v conns=%d reqAt=%v",
			r.d.inflight, len(r.d.conns), sc.reqAt)
	}
}

// TestStepSeededSchedules feeds random event sequences to a download and
// checks after every event that no verified piece is requested, that every
// in-flight count is owned by a live connection's pending request or by the
// edge fetch, and on completion that the bytes add up to the object.
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
	edge := -1 // the piece the edge fetcher is fetching
	var conns []*swarmConn
	lastPending := map[*swarmConn]time.Time{}

	check := func(event string) {
		t.Helper()
		d.mu.Lock()
		defer d.mu.Unlock()
		owned := map[int]int{}
		if edge >= 0 {
			owned[edge]++
		}
		for _, sc := range conns {
			if sc.reqAt.IsZero() {
				continue
			}
			if !d.conns[sc] {
				t.Fatalf("seed %d after %s: detached connection still has piece %d pending", seed, event, sc.req)
			}
			owned[sc.req]++
			if !sc.reqAt.Equal(lastPending[sc]) && d.have.Has(sc.req) {
				t.Fatalf("seed %d after %s: requested verified piece %d", seed, event, sc.req)
			}
			lastPending[sc] = sc.reqAt
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
	tick := func() {
		r.clock.advance(time.Duration(rng.Intn(1500)) * time.Millisecond)
		a := r.step()
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
	}
	for n := 0; n < 400 && !r.done(); n++ {
		event := "tick"
		switch k := rng.Intn(20); {
		case k < 4:
			tick()
		case k < 7:
			event = "edge take"
			if edge < 0 {
				edge = d.takeEdgePiece()
			}
		case k < 9:
			event = "edge deliver"
			if edge >= 0 {
				i := edge
				edge = -1
				if rng.Intn(5) == 0 { // the fetch failed
					d.mu.Lock()
					d.releaseLocked(i)
					d.mu.Unlock()
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
				if !sc.reqAt.IsZero() {
					waiting = append(waiting, sc)
				}
			}
			if len(waiting) > 0 {
				sc := waiting[rng.Intn(len(waiting))]
				data := r.piece(sc.req)
				if rng.Intn(10) == 0 {
					data[0] ^= 0xff
				}
				d.onPiece(sc, sc.req, data)
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
	// Whatever the swarm did, the edge finishes the object.
	d.Resume()
	for n := 0; !r.done(); n++ {
		if n > 1000 {
			t.Fatalf("seed %d: edge alone did not finish the download", seed)
		}
		if edge < 0 {
			r.clock.advance(edgeDupAfter)
			edge = d.takeEdgePiece()
		}
		if edge >= 0 {
			i := edge
			edge = -1
			r.edgeDeliver(i)
		}
		check("edge drain")
	}
	if edge >= 0 {
		r.edgeDeliver(edge) // a fetch the swarm overtook lands after the end
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
