package peer

import (
	"context"
	"sync"
	"time"

	"netsession/internal/content"
	"netsession/internal/edge"
	"netsession/internal/nat"
	"netsession/internal/protocol"
)

// uploadManager enforces the client-side upload policy of §3.4/§3.9: a
// globally configurable limit on simultaneous upload connections, a cap on
// how many times any one object is uploaded, and an aggregate upload rate
// limit so background serving never crowds out the user's own traffic.
type uploadManager struct {
	c *Client

	mu        sync.Mutex
	cfg       edge.ClientConfig
	active    map[*swarmConn]bool
	perObject map[content.ObjectID]int // serving sessions granted, ever
	bytesOut  int64
	// closed is set by closeAll: the client is shutting down and grants no
	// more slots.
	closed bool

	// nextFree implements a leaky-bucket rate limit over upload bytes.
	nextFree time.Time
}

func newUploadManager(c *Client) *uploadManager {
	return &uploadManager{
		c:         c,
		cfg:       edge.DefaultClientConfig(),
		active:    make(map[*swarmConn]bool),
		perObject: make(map[content.ObjectID]int),
	}
}

func (u *uploadManager) applyConfig(cfg edge.ClientConfig) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.cfg = cfg
}

// tryAcquire grants an upload slot for the connection, enforcing both the
// global connection limit and the per-object upload cap ("peers upload each
// object at most a limited number of times", §3.9).
func (u *uploadManager) tryAcquire(sc *swarmConn) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return false
	}
	if u.cfg.MaxUploadConns > 0 && len(u.active) >= u.cfg.MaxUploadConns {
		return false
	}
	if u.cfg.PerObjectUploadCap > 0 && u.perObject[sc.oid] >= u.cfg.PerObjectUploadCap {
		return false
	}
	u.active[sc] = true
	u.perObject[sc.oid]++
	sc.uploadSlot = true
	return true
}

func (u *uploadManager) release(sc *swarmConn) {
	u.mu.Lock()
	defer u.mu.Unlock()
	delete(u.active, sc)
}

// ActiveUploads returns the number of live upload connections.
func (u *uploadManager) ActiveUploads() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.active)
}

// UploadedBytes returns the total content bytes served to peers.
func (u *uploadManager) UploadedBytes() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.bytesOut
}

func (u *uploadManager) countBytes(n int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.bytesOut += int64(n)
}

// throttle blocks long enough that aggregate upload bandwidth stays under
// the configured rate. Zero rate means unlimited (peers then rely on the
// idle-link backoff the paper describes, which live mode does not need on
// loopback).
func (u *uploadManager) throttle(n int) {
	u.mu.Lock()
	rate := u.cfg.UploadRateBps
	if rate <= 0 {
		u.mu.Unlock()
		return
	}
	now := time.Now()
	if u.nextFree.Before(now) {
		u.nextFree = now
	}
	wait := u.nextFree.Sub(now)
	u.nextFree = u.nextFree.Add(time.Duration(float64(n*8) / float64(rate) * float64(time.Second)))
	u.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// dialBack connects to a downloader on the control plane's instruction so
// that both endpoints initiate (§3.7). The connection consumes an upload
// slot like any inbound upload, taken before the dial. A Client.Close during
// the dial closes the slot's swarmConn; the dialed connection is then closed
// here instead of served.
func (u *uploadManager) dialBack(oid content.ObjectID, remote protocol.PeerInfo) {
	m := u.c.cachedManifest(oid)
	if m == nil {
		return
	}
	sc := &swarmConn{c: u.c, oid: oid, remote: remote.GUID, manifest: m}
	if !u.tryAcquire(sc) {
		return
	}
	if hold := u.c.cfg.holdDialBack; hold != nil {
		hold()
	}
	dialer := &nat.Dialer{Local: u.c.cfg.NAT, Timeout: 5 * time.Second}
	conn, err := dialer.Dial(context.Background(), remote)
	if err != nil {
		sc.close()
		return
	}
	if !sc.attach(conn) {
		conn.Close()
		return
	}
	// Dial-back handshakes carry no token: the uploader is not requesting
	// anything; the downloader accepts because it has an active download.
	if err := sc.send(&protocol.Handshake{GUID: u.c.cfg.GUID, Object: oid}); err != nil {
		sc.close()
		return
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, err := protocol.ReadMessage(sc.br)
	if err != nil {
		sc.close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if ack, ok := msg.(*protocol.HandshakeAck); !ok || !ack.OK {
		sc.close()
		return
	}
	sc.sendLocalBitfield()
	sc.loop()
}

// closeAll closes every active upload connection and refuses new ones.
func (u *uploadManager) closeAll() {
	u.mu.Lock()
	u.closed = true
	conns := make([]*swarmConn, 0, len(u.active))
	for sc := range u.active {
		conns = append(conns, sc)
	}
	u.mu.Unlock()
	for _, sc := range conns {
		sc.close()
	}
}
