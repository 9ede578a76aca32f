package peer

import (
	"bytes"
	"context"
	"io"
	"maps"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"netsession/internal/content"
	"netsession/internal/id"
	"netsession/internal/protocol"
)

// slowEdge is how late the edge answers in the tests below: long enough
// that a leecher holds its swarm connection, and has read the remote's
// bitfield, well before the edge lands its first piece. A piece verified
// while the remote's holdings are still unknown gets a HAVE regardless, so
// the HAVE counts are exact only without that window.
const slowEdge = 200 * time.Millisecond

// rawPeer is a raw-protocol swarm server holding some pieces of an object.
// It answers a handshake with its HandshakeAck, its bitfield and any extra
// frames in one Write, serves the pieces it holds with their true bytes,
// and counts every frame it receives by type and every HAVE and REQUEST by
// index.
type rawPeer struct {
	ln    net.Listener
	guid  id.GUID
	obj   *content.Object
	has   *content.Bitfield
	extra []protocol.Message
	// pace, when set, decides the answer to a session's n-th piece request
	// (from 1): sent after delay, or never when answer is false.
	pace func(n int) (delay time.Duration, answer bool)
	// ended gets one value per finished session; its buffer exceeds the
	// sessions any test opens, so a session never waits for the test.
	ended chan struct{}

	mu       sync.Mutex
	counts   map[protocol.MsgType]int
	haves    []int
	requests []int
}

func startRawPeer(t *testing.T, obj *content.Object, holds func(i int) bool, extra ...protocol.Message) *rawPeer {
	t.Helper()
	return startPacedRawPeer(t, obj, holds, nil, extra...)
}

// startPacedRawPeer is startRawPeer with a pace for its answers.
func startPacedRawPeer(t *testing.T, obj *content.Object, holds func(i int) bool,
	pace func(n int) (time.Duration, bool), extra ...protocol.Message) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{
		ln: ln, guid: id.NewGUID(), obj: obj, has: content.NewBitfield(obj.NumPieces()),
		extra: extra, pace: pace, ended: make(chan struct{}, 16), counts: make(map[protocol.MsgType]int),
	}
	for i := 0; i < obj.NumPieces(); i++ {
		if holds(i) {
			p.has.Set(i)
		}
	}
	go p.serve()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *rawPeer) serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.handle(conn)
	}
}

func (p *rawPeer) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		p.ended <- struct{}{}
	}()
	if msg, err := protocol.ReadMessage(conn); err != nil {
		return
	} else if _, ok := msg.(*protocol.Handshake); !ok {
		return
	}
	hello := append([]protocol.Message{
		&protocol.HandshakeAck{OK: true, NumPieces: uint32(p.obj.NumPieces())},
		&protocol.BitfieldMsg{Bits: p.has.MarshalBinary()},
	}, p.extra...)
	if _, err := conn.Write(encodeFrames(hello...)); err != nil {
		return
	}
	for n := 0; ; {
		msg, err := protocol.ReadMessage(conn)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.counts[msg.Type()]++
		switch m := msg.(type) {
		case *protocol.Have:
			p.haves = append(p.haves, int(m.Index))
		case *protocol.Request:
			p.requests = append(p.requests, int(m.Index))
		}
		p.mu.Unlock()
		switch m := msg.(type) {
		case *protocol.Request:
			n++
			if p.pace != nil {
				delay, answer := p.pace(n)
				if !answer {
					continue
				}
				time.Sleep(delay)
			}
			if p.has.Has(int(m.Index)) {
				piece := &protocol.Piece{Index: m.Index, Data: pieceBytes(p.obj, int(m.Index))}
				if protocol.WriteMessage(conn, piece) != nil {
					return
				}
			}
		case *protocol.Goodbye:
			return
		}
	}
}

// waitEnded waits for one session to end.
func (p *rawPeer) waitEnded(t *testing.T) {
	t.Helper()
	select {
	case <-p.ended:
	case <-time.After(10 * time.Second):
		t.Fatal("the swarm session with the raw peer never ended")
	}
}

// received returns the frame counts by type and the HAVE indices, sorted.
func (p *rawPeer) received() (map[protocol.MsgType]int, []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	haves := slices.Clone(p.haves)
	slices.Sort(haves)
	return maps.Clone(p.counts), haves
}

// requested returns the indices of the REQUESTs received, in arrival order.
func (p *rawPeer) requested() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.requests)
}

// encodeFrames frames msgs back to back, to be sent in one Write.
func encodeFrames(msgs ...protocol.Message) []byte {
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := protocol.WriteMessage(&buf, m); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// pieceBytes is piece i of a synthetic object.
func pieceBytes(obj *content.Object, i int) []byte {
	data := make([]byte, obj.PieceLength(i))
	content.SyntheticBody(obj.ID, obj.PieceOffset(i), data)
	return data
}

// leech downloads obj on a fresh uploads-off peer in the US and checks that
// it completed verified.
func leech(t *testing.T, d *deployment, obj *content.Object) *Result {
	t.Helper()
	_, res := leechOn(t, d, obj)
	return res
}

// leechOn is leech that also returns the leecher.
func leechOn(t *testing.T, d *deployment, obj *content.Object) (*Client, *Result) {
	t.Helper()
	cl := d.spawnPeer("US", false, protocol.NATNone)
	dl, err := cl.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil || res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("leecher: res=%+v err=%v", res, err)
	}
	verifyStored(t, cl, obj)
	return cl, res
}

// answerLate is a raw seeder's pace that answers its first request after
// first, every later one at once, and request number swallow (from 1; 0
// for none) never. The download then times a slow piece before its end
// game, and a healthy request, answered at once, stays far younger than
// any rescue threshold.
func answerLate(first time.Duration, swallow int) func(n int) (time.Duration, bool) {
	return func(n int) (time.Duration, bool) {
		if n == 1 {
			return first, n != swallow
		}
		return 0, n != swallow
	}
}

// TestEndGameNoDuplicatesWithHealthySeeders: with two healthy seeders and
// an edge whose pieces take less than the slowest swarm piece, the end game
// issues no duplicate — no piece index is requested twice and no piece is
// received twice or after the download ended.
func TestEndGameNoDuplicatesWithHealthySeeders(t *testing.T) {
	obj := e2eObject(t, 16*16<<10, true)
	d := startDeployment(t, 1, slowEdge, nil, []*content.Object{obj})
	all := func(int) bool { return true }
	seeders := []*rawPeer{
		startPacedRawPeer(t, obj, all, answerLate(250*time.Millisecond, 0)),
		startPacedRawPeer(t, obj, all, answerLate(250*time.Millisecond, 0)),
	}
	for _, s := range seeders {
		registerRaw(t, d, s.guid, "US", s.ln.Addr().String(), obj.ID)
	}

	cl, res := leechOn(t, d, obj)
	seen := map[int]bool{}
	for _, s := range seeders {
		s.waitEnded(t)
		reqs := s.requested()
		if len(reqs) == 0 || res.FromPeers[s.guid] == 0 {
			t.Errorf("a seeder served nothing (%d requests): the swarm path was not exercised", len(reqs))
		}
		for _, i := range reqs {
			if seen[i] {
				t.Errorf("piece %d requested twice", i)
			}
			seen[i] = true
		}
	}
	if n := cl.metrics.dupPieces.Value(); n != 0 {
		t.Errorf("%d duplicate pieces received", n)
	}
}

// TestEndGameRescuesSwallowedRequest: a seeder that never answers its last
// request does not hold the download up for the stall window. Once that
// request is twice as old as the slowest piece received, the other seeder
// is asked for the piece and the download completes; the silent seeder is
// not blamed. The edge answers a second late, so its first piece turns slow
// too and the seeders rescue it the same way: the edge delivers nothing.
func TestEndGameRescuesSwallowedRequest(t *testing.T) {
	obj := e2eObject(t, 16*16<<10, true)
	d := startDeployment(t, 1, time.Second, nil, []*content.Object{obj})
	all := func(int) bool { return true }
	swallower := startPacedRawPeer(t, obj, all, answerLate(150*time.Millisecond, 3))
	healthy := startPacedRawPeer(t, obj, all, answerLate(150*time.Millisecond, 0))
	registerRaw(t, d, swallower.guid, "US", swallower.ln.Addr().String(), obj.ID)
	registerRaw(t, d, healthy.guid, "US", healthy.ln.Addr().String(), obj.ID)

	cl, res := leechOn(t, d, obj)
	swallower.waitEnded(t)
	healthy.waitEnded(t)
	reqs := swallower.requested()
	if len(reqs) != 3 {
		t.Fatalf("the swallowing seeder got %d requests, want 3: its last one stays pending", len(reqs))
	}
	if !slices.Contains(healthy.requested(), reqs[2]) {
		t.Errorf("swallowed piece %d was not requested from the healthy seeder (it asked for %v)",
			reqs[2], healthy.requested())
	}
	if limit := cl.cfg.StallWindow / 5; res.Duration > limit {
		t.Errorf("download took %v, want well inside the %v stall window", res.Duration, cl.cfg.StallWindow)
	}
	if res.BytesInfra != 0 {
		t.Errorf("the edge delivered %d bytes; its slow piece was not rescued", res.BytesInfra)
	}
	if res.FromPeers[swallower.guid] != int64(2*obj.PieceSize) {
		t.Errorf("swallowing seeder credited %d bytes, want its two answered pieces", res.FromPeers[swallower.guid])
	}
	if cl.peerBlacklisted(swallower.guid) || cl.metrics.corruptPieces.Value() != 0 || cl.metrics.degradeStall.Value() != 0 {
		t.Error("the swallowing seeder was blamed: blacklisted, a corrupt piece, or a stall degradation")
	}
}

// TestNoHaveToCompleteSeeder: a seeder that announced every piece is never
// told about one, over a whole download.
func TestNoHaveToCompleteSeeder(t *testing.T) {
	obj := e2eObject(t, 1_000_000, true)
	d := startDeployment(t, 1, slowEdge, nil, []*content.Object{obj})
	seeder := startRawPeer(t, obj, func(int) bool { return true })
	registerRaw(t, d, seeder.guid, "US", seeder.ln.Addr().String(), obj.ID)

	res := leech(t, d, obj)
	seeder.waitEnded(t)
	counts, _ := seeder.received()
	if counts[protocol.THave] != 0 {
		t.Errorf("the complete seeder received %d HAVEs", counts[protocol.THave])
	}
	if counts[protocol.TRequest] == 0 || res.FromPeers[seeder.guid] == 0 {
		t.Errorf("the seeder served nothing (%d requests, %d bytes): the swarm path was not exercised",
			counts[protocol.TRequest], res.FromPeers[seeder.guid])
	}
}

// TestHaveOnlyForMissingPieces: a partial peer holding the even pieces is
// told about each odd piece exactly once, and about no even one.
func TestHaveOnlyForMissingPieces(t *testing.T) {
	obj := e2eObject(t, 16*16<<10, true)
	d := startDeployment(t, 1, slowEdge, nil, []*content.Object{obj})
	partial := startRawPeer(t, obj, func(i int) bool { return i%2 == 0 })
	registerRaw(t, d, partial.guid, "US", partial.ln.Addr().String(), obj.ID)

	res := leech(t, d, obj)
	partial.waitEnded(t)
	_, haves := partial.received()
	var odd []int
	for i := 1; i < obj.NumPieces(); i += 2 {
		odd = append(odd, i)
	}
	if !slices.Equal(haves, odd) {
		t.Errorf("HAVEs for %v, want exactly the missing pieces %v", haves, odd)
	}
	if res.FromPeers[partial.guid] == 0 {
		t.Error("the partial peer served nothing: the swarm path was not exercised")
	}
}

// TestSwarmReaderKeepsBatchedFrames: a remote that writes several frames in
// one Write has every one of them dispatched, in each of the three places a
// swarm connection starts. A second reader on the same connection would
// strand the frames the first one buffered.
func TestSwarmReaderKeepsBatchedFrames(t *testing.T) {
	obj := e2eObject(t, 60_000, true) // four pieces, the last one short
	last := obj.NumPieces() - 1
	d := startDeployment(t, 1, slowEdge, nil, []*content.Object{obj})

	// Runs first: the remote must be the leecher's only peer.
	t.Run("dialSwarm", func(t *testing.T) {
		// HandshakeAck, an empty bitfield and an unrequested PIECE in one
		// Write. The remote announces no piece, so the leecher never
		// requests one: it credits the remote with that piece's bytes only
		// if the PIECE frame was read.
		raw := startRawPeer(t, obj, func(int) bool { return false },
			&protocol.Piece{Index: uint32(last), Data: pieceBytes(obj, last)})
		registerRaw(t, d, raw.guid, "US", raw.ln.Addr().String(), obj.ID)
		res := leech(t, d, obj)
		if got, want := res.FromPeers[raw.guid], int64(obj.PieceLength(last)); got != want {
			t.Errorf("credited %d bytes to the remote, want %d (its one batched piece)", got, want)
		}
	})

	seeder := d.seed("US", obj)
	want := func(t *testing.T, conn net.Conn, frames ...protocol.Message) {
		t.Helper()
		for _, w := range frames {
			got, err := protocol.ReadMessage(conn)
			if err != nil {
				t.Fatalf("reading %v: %v", w.Type(), err)
			}
			if got.Type() != w.Type() {
				t.Fatalf("got %v, want %v", got.Type(), w.Type())
			}
			if p, ok := w.(*protocol.Piece); ok {
				g := got.(*protocol.Piece)
				if g.Index != p.Index || !bytes.Equal(g.Data, p.Data) {
					t.Fatalf("got piece %d (%d bytes), want piece %d", g.Index, len(g.Data), p.Index)
				}
			}
		}
	}

	t.Run("dialBack", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go seeder.uploads.dialBack(obj.ID, protocol.PeerInfo{GUID: id.NewGUID(), Addr: ln.Addr().String()})
		ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		want(t, conn, &protocol.Handshake{})
		// HandshakeAck, an empty bitfield, a stray PIECE (an upload
		// connection ignores it) and a REQUEST, in one Write: the answer to
		// the REQUEST shows every frame before it was read in order.
		conn.Write(encodeFrames(
			&protocol.HandshakeAck{OK: true, NumPieces: uint32(obj.NumPieces())},
			&protocol.BitfieldMsg{Bits: content.NewBitfield(obj.NumPieces()).MarshalBinary()},
			&protocol.Piece{Index: 0, Data: pieceBytes(obj, 0)},
			&protocol.Request{Index: uint32(last)},
		))
		want(t, conn, &protocol.BitfieldMsg{}, &protocol.Piece{Index: uint32(last), Data: pieceBytes(obj, last)})
	})

	t.Run("handleInbound", func(t *testing.T) {
		conn, err := net.Dial("tcp", seeder.swarmLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		conn.Write(encodeFrames(
			&protocol.Handshake{GUID: id.NewGUID(), Object: obj.ID, Token: []byte("token")},
			&protocol.Request{Index: 0},
			&protocol.Request{Index: uint32(last)},
		))
		want(t, conn, &protocol.HandshakeAck{}, &protocol.BitfieldMsg{},
			&protocol.Piece{Index: 0, Data: pieceBytes(obj, 0)},
			&protocol.Piece{Index: uint32(last), Data: pieceBytes(obj, last)})
	})
}

// TestCloseDuringDialBack: a Client.Close between a dial-back taking its
// upload slot and its dial returning neither panics nor races, and the
// connection that completes afterwards is closed rather than served.
func TestCloseDuringDialBack(t *testing.T) {
	obj := e2eObject(t, 60_000, true)
	d := newDeployment(t, 1, obj)
	reached, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s := d.spawnPeerWith("US", true, protocol.NATNone, func(cfg *Config) {
		cfg.holdDialBack = func() {
			once.Do(func() { close(reached) })
			<-release
		}
	})
	dl, err := s.Download(obj.ID) // caches the manifest a dial-back needs
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := dl.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()
	done := make(chan struct{})
	go func() {
		s.uploads.dialBack(obj.ID, protocol.PeerInfo{GUID: id.NewGUID(), Addr: ln.Addr().String()})
		close(done)
	}()
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("the dial-back never took its slot")
	}
	s.Close()
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the dial-back did not return after Close")
	}
	select {
	case conn := <-accepted:
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("the connection dialed after Close was served: read %d bytes, err %v", n, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the dial-back never connected")
	}
	if n := s.uploads.ActiveUploads(); n != 0 {
		t.Errorf("%d upload slots held after Close", n)
	}
}
