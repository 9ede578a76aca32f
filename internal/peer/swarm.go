package peer

import (
	"context"
	"net"
	"sync"
	"time"

	"netsession/internal/content"
	"netsession/internal/id"
	"netsession/internal/nat"
	"netsession/internal/protocol"
	"netsession/internal/telemetry"
)

// swarmConn is one established swarm connection, scoped to one object as in
// the handshake. Connections are symmetric after the handshake: either side
// may request pieces the other has; NetSession has no choking and no
// tit-for-tat (§3.4).
type swarmConn struct {
	c        *Client
	conn     net.Conn
	remote   id.GUID
	oid      content.ObjectID
	manifest *content.Manifest

	// download is non-nil when the local side is downloading this object.
	download *Download
	// req is the piece requested on this connection and reqAt when; a zero
	// reqAt means no request is outstanding. Both are guarded by
	// download.mu: they are part of the download's in-flight bookkeeping.
	req   int
	reqAt time.Time
	// uploadSlot is true when this connection holds an upload-manager slot.
	uploadSlot bool

	mu         sync.Mutex
	remoteHave *content.Bitfield
	corrupt    int // verification failures from this remote
	closed     bool

	wmu sync.Mutex
}

func (sc *swarmConn) send(m protocol.Message) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	return protocol.WriteMessage(sc.conn, m)
}

func (sc *swarmConn) close() {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	sc.closed = true
	sc.mu.Unlock()
	sc.conn.Close()
	if sc.uploadSlot {
		sc.c.uploads.release(sc)
	}
	if sc.download != nil {
		sc.download.removeConn(sc)
	}
}

// sendLocalBitfield announces what we hold.
func (sc *swarmConn) sendLocalBitfield() {
	bf := sc.c.store.Have(sc.oid)
	if bf == nil {
		bf = content.NewBitfield(sc.manifest.Object.NumPieces())
	}
	sc.send(&protocol.BitfieldMsg{Bits: bf.MarshalBinary()})
}

// acceptSwarmLoop serves the peer's swarm listener.
func (c *Client) acceptSwarmLoop() {
	for {
		conn, err := c.swarmLn.Accept()
		if err != nil {
			return
		}
		go c.handleInbound(conn)
	}
}

// handleInbound processes one inbound swarm connection from handshake to
// close.
func (c *Client) handleInbound(conn net.Conn) {
	accepted := time.Now()
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	msg, err := protocol.ReadMessage(conn)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	hs, ok := msg.(*protocol.Handshake)
	if !ok {
		conn.Close()
		return
	}
	sc := &swarmConn{c: c, conn: conn, remote: hs.GUID, oid: hs.Object}

	// Case 1: we are downloading this object and the remote is an uploader
	// dialing back on the control plane's instruction.
	if d := c.activeDownload(hs.Object); d != nil {
		sc.download = d
		sc.manifest = d.manifest
		if err := sc.send(&protocol.HandshakeAck{OK: true, NumPieces: uint32(d.manifest.Object.NumPieces())}); err != nil {
			conn.Close()
			return
		}
		sc.sendLocalBitfield()
		if !d.attachConn(sc) {
			// The download degraded to edge-only while this uploader was
			// dialing back; it takes no new peers.
			sc.send(&protocol.Goodbye{Reason: "p2p disabled"})
			conn.Close()
			return
		}
		// An uploader dialing back on the control plane's instruction is
		// the NAT-traversal half of swarm establishment (§3.7); it counts
		// toward the download's swarm-connect stage like an outbound dial.
		d.trace.Observe(telemetry.StageSwarmConnect, time.Since(accepted))
		sc.loop()
		return
	}

	// Case 2: the remote wants to download from us. The token travels with
	// the handshake; peers got it from the edge at authorization time
	// (§3.5). Uploads require the preference on, a stored copy, and an
	// upload slot under the global and per-object limits.
	if len(hs.Token) == 0 || !c.prefs.UploadsEnabled() {
		sc.send(&protocol.HandshakeAck{OK: false, Reason: "uploads not available"})
		conn.Close()
		return
	}
	m := c.cachedManifest(hs.Object)
	bf := c.store.Have(hs.Object)
	if m == nil || bf == nil || bf.Count() == 0 {
		sc.send(&protocol.HandshakeAck{OK: false, Reason: "object not available"})
		conn.Close()
		return
	}
	if !c.uploads.tryAcquire(sc) {
		sc.send(&protocol.HandshakeAck{OK: false, Reason: "upload limit reached"})
		conn.Close()
		return
	}
	sc.manifest = m
	if err := sc.send(&protocol.HandshakeAck{OK: true, NumPieces: uint32(m.Object.NumPieces())}); err != nil {
		sc.close()
		return
	}
	sc.sendLocalBitfield()
	sc.loop()
}

// dialSwarm establishes an outbound swarm connection for a download; the
// caller runs the connection's loop.
func (c *Client) dialSwarm(ctx context.Context, d *Download, remote protocol.PeerInfo) (*swarmConn, error) {
	dialer := &nat.Dialer{Local: c.cfg.NAT, Timeout: 5 * time.Second}
	conn, err := dialer.Dial(ctx, remote)
	if err != nil {
		return nil, err
	}
	sc := &swarmConn{
		c: c, conn: conn, remote: remote.GUID, oid: d.oid,
		manifest: d.manifest, download: d,
	}
	if err := sc.send(&protocol.Handshake{GUID: c.cfg.GUID, Object: d.oid, Token: d.token}); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, err := protocol.ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Time{})
	ack, ok := msg.(*protocol.HandshakeAck)
	if !ok || !ack.OK {
		conn.Close()
		return nil, errHandshakeRejected
	}
	sc.sendLocalBitfield()
	if !d.attachConn(sc) {
		sc.send(&protocol.Goodbye{Reason: "p2p disabled"})
		conn.Close()
		return nil, errHandshakeRejected
	}
	return sc, nil
}

var errHandshakeRejected = &handshakeError{}

type handshakeError struct{}

func (*handshakeError) Error() string { return "peer: swarm handshake rejected" }

// loop services a swarm connection until it closes.
func (sc *swarmConn) loop() {
	defer sc.close()
	for {
		// Idle swarm connections are garbage; cap the read wait.
		sc.conn.SetReadDeadline(time.Now().Add(2 * time.Minute))
		msg, err := protocol.ReadMessage(sc.conn)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case *protocol.BitfieldMsg:
			bf, ok := content.UnmarshalBitfield(sc.manifest.Object.NumPieces(), m.Bits)
			if !ok {
				return // malformed bitfield: drop the peer
			}
			sc.mu.Lock()
			sc.remoteHave = bf
			sc.mu.Unlock()
			if sc.download != nil {
				sc.download.kickScheduler(sc)
			}
		case *protocol.Have:
			sc.mu.Lock()
			if sc.remoteHave != nil {
				sc.remoteHave.Set(int(m.Index))
			}
			sc.mu.Unlock()
			if sc.download != nil {
				sc.download.kickScheduler(sc)
			}
		case *protocol.Request:
			if !sc.serveRequest(int(m.Index)) {
				return
			}
		case *protocol.Piece:
			if sc.download != nil {
				sc.download.onPiece(sc, int(m.Index), m.Data)
			}
		case *protocol.Goodbye:
			return
		default:
			return // protocol violation on a swarm connection
		}
	}
}

// serveRequest answers one piece request, honouring the upload rate limit.
// It returns false when the connection should close.
func (sc *swarmConn) serveRequest(index int) bool {
	// Serving requires either an upload slot or an active mutual download
	// (mid-swarm peers exchange pieces both ways).
	if !sc.uploadSlot && sc.download == nil {
		return false
	}
	if !sc.c.prefs.UploadsEnabled() && sc.download == nil {
		// The user turned uploads off mid-connection; stop serving.
		sc.send(&protocol.Goodbye{Reason: "uploads disabled"})
		return false
	}
	data, ok := sc.c.store.Get(sc.oid, index)
	if !ok {
		// Not having the piece is not a protocol violation; the remote's
		// view was stale.
		return true
	}
	sc.c.uploads.throttle(len(data))
	if err := sc.send(&protocol.Piece{Index: uint32(index), Data: data}); err != nil {
		return false
	}
	sc.c.uploads.countBytes(len(data))
	sc.c.metrics.bytesUp.Add(int64(len(data)))
	return true
}

// remoteHasPiece reports whether the remote announced piece i.
func (sc *swarmConn) remoteHasPiece(i int) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.remoteHave != nil && sc.remoteHave.Has(i)
}

// remoteBitfield returns a snapshot clone, or nil.
func (sc *swarmConn) remoteBitfield() *content.Bitfield {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.remoteHave == nil {
		return nil
	}
	return sc.remoteHave.Clone()
}
