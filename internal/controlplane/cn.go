package controlplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"netsession/internal/accounting"
	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/logpipe"
	"netsession/internal/protocol"
	"netsession/internal/selection"
)

func wallNowMs() int64 { return time.Now().UnixMilli() }

// CN is a connection node: it terminates the persistent TCP control
// connections of its peers, answers their object queries via the local DN,
// relays connect-to instructions, and collects usage statistics (§3.6). In
// production "over 150,000 might be connected to one simultaneously".
type CN struct {
	cp *ControlPlane
	ln net.Listener

	mu       sync.Mutex
	closed   bool
	sessions map[*session]bool
}

// session is one peer's control connection.
type session struct {
	cn   *CN
	conn net.Conn

	guid   id.GUID
	rec    geo.Record
	region geo.NetworkRegion
	info   protocol.PeerInfo // swarm contact details
	// uploadsEnabled mirrors the peer's preference; registrations are only
	// accepted while it is set (§3.6).
	uploadsEnabled bool

	wmu sync.Mutex
}

// startCN starts a connection node of cp listening on addr.
func (cp *ControlPlane) startCN(addr string) (*CN, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("controlplane: CN listen: %w", err)
	}
	cn := &CN{cp: cp, ln: ln, sessions: make(map[*session]bool)}
	cp.mu.Lock()
	cp.cns = append(cp.cns, cn)
	cp.mu.Unlock()
	go cn.acceptLoop()
	return cn, nil
}

// Addr returns the CN's listen address.
func (cn *CN) Addr() string { return cn.ln.Addr().String() }

// Close stops the CN and drops its sessions; peers reconnect to another CN
// (§3.8: "If a CN goes down, the peers that are connected to that CN simply
// reconnect to another one").
func (cn *CN) Close() {
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		return
	}
	cn.closed = true
	sessions := make([]*session, 0, len(cn.sessions))
	for s := range cn.sessions {
		sessions = append(sessions, s)
	}
	cn.mu.Unlock()
	cn.ln.Close()
	for _, s := range sessions {
		s.closeConn()
	}
}

func (cn *CN) acceptLoop() {
	for {
		conn, err := cn.ln.Accept()
		if err != nil {
			return
		}
		if wrap := cn.cp.cfg.ConnWrap; wrap != nil {
			conn = wrap(conn)
		}
		go cn.serveConn(conn)
	}
}

// SessionCount returns the live sessions on this CN.
func (cn *CN) SessionCount() int {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return len(cn.sessions)
}

func (cn *CN) serveConn(conn net.Conn) {
	defer conn.Close()
	// The first frame must be a Login.
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	msg, err := protocol.ReadMessage(conn)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	login, ok := msg.(*protocol.Login)
	if !ok {
		return
	}

	s := &session{cn: cn, conn: conn}
	s.guid = login.GUID
	s.rec = cn.cp.locate(login.DeclaredIP)
	s.region = geo.RegionOf(s.rec)
	// Region ownership: in a multi-node control plane each region is served
	// by its ring owner. Logins for regions this node does not own are
	// bounced with the owner's CN address, so peers rebalance themselves
	// after every membership change.
	if redirect, owned := cn.cp.loginRoute(s.region); !owned {
		cn.cp.metrics.loginsRedirected.Inc()
		s.send(&protocol.LoginAck{OK: false, RetryAfterMs: 250, RedirectAddr: redirect})
		return
	}
	// Shed load when over capacity, telling the peer when to retry; this
	// is the rate-limited reconnection of §3.8.
	cn.mu.Lock()
	over := cn.cp.cfg.MaxSessionsPerCN > 0 && len(cn.sessions) >= cn.cp.cfg.MaxSessionsPerCN
	if !over && !cn.closed {
		cn.sessions[s] = true
	}
	cn.mu.Unlock()
	if over {
		cn.cp.metrics.loginsShed.Inc()
		s.send(&protocol.LoginAck{OK: false, RetryAfterMs: 5000})
		return
	}
	cn.cp.metrics.logins.Inc()
	defer func() {
		cn.mu.Lock()
		delete(cn.sessions, s)
		cn.mu.Unlock()
		cn.cp.unregister(s)
	}()

	s.uploadsEnabled = login.UploadsEnabled
	s.info = protocol.PeerInfo{
		GUID:     login.GUID,
		Addr:     login.SwarmAddr,
		NAT:      login.NAT,
		ASN:      uint32(s.rec.ASN),
		Location: uint32(s.rec.Location),
	}
	cn.cp.register(s)
	cn.cp.Collector().AddLogin(accounting.LoginRecord{
		TimeMs:          cn.cp.now(),
		GUID:            login.GUID,
		IP:              s.rec.IP,
		SoftwareVersion: login.SoftwareVersion,
		UploadsEnabled:  login.UploadsEnabled,
		Secondaries:     login.Secondaries,
	})
	cc := cn.cp.cfg.ClientConfig
	s.send(&protocol.LoginAck{OK: true, ConfigEpoch: 1})
	s.send(&protocol.ConfigUpdate{
		Epoch:              1,
		MaxUploadConns:     uint16(cc.MaxUploadConns),
		PerObjectUploadCap: uint16(cc.PerObjectUploadCap),
		UploadRateBps:      uint64(cc.UploadRateBps),
		CacheTTLSec:        uint32(cc.CacheTTLSec),
		TargetVersion:      cc.TargetVersion,
	})
	// A region mid-rebuild (DN loss or ring handoff) asks every arriving
	// peer to RE-ADD right away: peers rebalancing from a dead node
	// repopulate the new owner's directory without waiting for another
	// failure event (§3.8).
	if cn.dn(s).Rebuilding(cn.cp.now()) {
		s.send(&protocol.ReAdd{})
	}

	for {
		// Healthy clients ping every 30s; a five-minute silence means the
		// peer is gone and the session's soft state should be released.
		conn.SetReadDeadline(time.Now().Add(5 * time.Minute))
		msg, err := protocol.ReadMessage(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				// Protocol violation or abrupt drop; either way the
				// session ends and soft state covers the rest.
				return
			}
			return
		}
		cn.handle(s, msg)
	}
}

func (cn *CN) handle(s *session, msg protocol.Message) {
	switch m := msg.(type) {
	case *protocol.Query:
		cn.handleQuery(s, m)
	case *protocol.Register:
		cn.handleRegister(s, m)
	case *protocol.Unregister:
		cn.cp.metrics.unregisters.Inc()
		cn.dn(s).Directory().Unregister(m.Object, s.guid)
	case *protocol.ReAddReply:
		cn.cp.metrics.readds.Inc()
		for _, e := range m.Entries {
			cn.handleRegister(s, &protocol.Register{
				Object: e.Object, NumPieces: e.NumPieces,
				HaveCount: e.HaveCount, Complete: e.Complete,
			})
		}
	case *protocol.UsageLog:
		// The record is booked to this session's GUID, never to the GUID the
		// entry names: a peer reports only its own downloads. An undecodable
		// entry is dropped; verification failures are dropped here too, and
		// the collector counts them.
		if e, err := logpipe.DecodeEntry(m.Entry); err == nil {
			_ = cn.cp.ingestEntry(s.guid, e)
		}
	case *protocol.Ping:
		s.send(&protocol.Pong{Nonce: m.Nonce})
	default:
		// Unknown-but-valid frames are ignored for forward compatibility.
	}
}

func (cn *CN) dn(s *session) *DN { return cn.cp.DN(s.region) }

func (cn *CN) handleQuery(s *session, q *protocol.Query) {
	cn.cp.metrics.queries.Inc()
	// The search token was minted by an edge server at authorization time;
	// an invalid or non-p2p token cannot search for peers (§3.5).
	claims, err := cn.cp.cfg.Minter.Verify(q.Token, cn.cp.now())
	if err != nil || claims.Object != q.Object || claims.GUID != s.guid || !claims.P2P {
		cn.cp.metrics.queriesRejected.Inc()
		s.send(&protocol.QueryResult{Object: q.Object, Err: "unauthorized"})
		return
	}
	dn := cn.dn(s)
	if dn.Rebuilding(cn.cp.now()) {
		// The region's directory is rebuilding from RE-ADDs; answering from
		// a partial view would steer whole swarms at the few peers that
		// re-announced first. Answer edge-only — the client's edge loop
		// guarantees progress regardless (§3.3).
		s.send(&protocol.QueryResult{Object: q.Object})
		return
	}
	selectStart := time.Now()
	dir := dn.Directory()
	peers := dir.Select(cn.cp.policy, selection.Query{
		Object:        q.Object,
		Requester:     s.rec,
		RequesterGUID: s.guid,
		RequesterNAT:  s.info.NAT,
		NowMs:         cn.cp.now(),
		Max:           int(q.MaxPeers),
		Rand:          newSelectionRand(s.guid, q.Object),
	})
	cn.cp.metrics.queryDurMs.Observe(float64(time.Since(selectStart)) / float64(time.Millisecond))
	s.send(&protocol.QueryResult{Object: q.Object, Peers: peers})
	// Instruct the chosen peers to initiate connections to the querier as
	// well, which is what lets NAT hole punching succeed (§3.7).
	for _, p := range peers {
		if up := cn.cp.lookupSession(p.GUID); up != nil {
			up.send(&protocol.ConnectTo{Object: q.Object, Peer: s.info})
		}
	}
}

func (cn *CN) handleRegister(s *session, m *protocol.Register) {
	if !s.uploadsEnabled {
		return // peers appear in the database only with uploads enabled (§3.6)
	}
	if !cn.cp.OwnsRegion(s.region) {
		// The region moved to another node between this session's login and
		// now; its registrations belong to the new owner's rebuild. The
		// session is about to be dropped by releaseRegion anyway.
		return
	}
	cn.cp.metrics.registers.Inc()
	if cn.dn(s).Rebuilding(cn.cp.now()) {
		cn.cp.metrics.rebuildAnnounces[int(s.region)].Inc()
	}
	cn.dn(s).Register(m.Object, selection.Entry{
		Info:         s.info,
		Rec:          s.rec,
		Complete:     m.Complete,
		RegisteredMs: cn.cp.now(),
	}, cn.cp.now())
}

func (s *session) send(m protocol.Message) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if err := protocol.WriteMessage(s.conn, m); err != nil {
		s.conn.Close()
	}
}

func (s *session) closeConn() { s.conn.Close() }

// newSelectionRand derives a deterministic randomness source for one query,
// so diversity picks are reproducible given (peer, object) — useful both for
// debugging and for the deterministic simulator.
func newSelectionRand(g id.GUID, obj content.ObjectID) *rand.Rand {
	seed := int64(binary.BigEndian.Uint64(g[:8]) ^ binary.BigEndian.Uint64(obj[:8]))
	return rand.New(rand.NewSource(seed))
}
