package peer

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"netsession/internal/id"
	"netsession/internal/protocol"
	"netsession/internal/retry"
)

// controlConn maintains the persistent TCP connection to the control plane:
// "Whenever the NetSession Interface is active and the peer is online, it
// maintains a TCP connection to the control plane" (§3.4). It reconnects
// with jittered backoff and honours the control plane's retry-after during
// large-scale recovery (§3.8).
type controlConn struct {
	c *Client

	mu      sync.Mutex
	conn    net.Conn
	connUp  bool
	sawUp   bool // the current session reached connUp at least once
	stopped bool
	// lastGoodAddr is the CN address of the most recent accepted login. It
	// is tried first on reconnect (the peer sticks to its CN until the CN
	// fails, §3.4) and may be a redirect target outside the configured list.
	lastGoodAddr string
	// retryAfter is the server-directed minimum reconnect delay from a
	// rejected login ("reconnections can be rate-limited", §3.8).
	retryAfter time.Duration

	stopCh chan struct{}
	wg     sync.WaitGroup
}

func newControlConn(c *Client) *controlConn {
	return &controlConn{c: c, stopCh: make(chan struct{})}
}

// start dials the control plane once synchronously (so callers get a fast
// failure on misconfiguration) and then keeps the session alive in the
// background. A control plane that is up but shedding load is not a
// misconfiguration: the client starts anyway and retries in the background,
// honouring the server's retry-after.
func (cc *controlConn) start() error {
	conn, err := cc.dialAndLogin()
	if err != nil {
		var shed *shedError
		if !errors.As(err, &shed) {
			return fmt.Errorf("%w: %v", ErrControlUnavailable, err)
		}
		conn = nil
	}
	cc.wg.Add(1)
	go cc.run(conn)
	return nil
}

func (cc *controlConn) stop() {
	cc.mu.Lock()
	if cc.stopped {
		cc.mu.Unlock()
		return
	}
	cc.stopped = true
	conn := cc.conn
	cc.mu.Unlock()
	close(cc.stopCh)
	if conn != nil {
		conn.Close()
	}
	cc.wg.Wait()
}

func (cc *controlConn) connected() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.connUp
}

// ErrControlUnavailable wraps connect failures where no configured control
// plane address produced a session. Launchers can match it with errors.Is to
// keep retrying startup while a cluster comes up.
var ErrControlUnavailable = errors.New("peer: control plane unavailable")

// shedError is a login the control plane rejected to rate-limit recovery
// ("reconnections can be rate-limited", §3.8). It aborts the dial round —
// hopping to the next CN would just shift the stampede sideways.
type shedError struct{ retryAfter time.Duration }

func (e *shedError) Error() string {
	return fmt.Sprintf("peer: control plane shedding load (retry after %v)", e.retryAfter)
}

// maxLoginRedirects bounds redirect chases during a handoff, when two nodes
// may transiently each believe the other owns the region.
const maxLoginRedirects = 4

// dialAndLogin opens a session with any configured CN, starting from the
// address that last accepted us — "simply reconnects to another one" (§3.8)
// — and following login redirects to a region's current owner.
func (cc *controlConn) dialAndLogin() (net.Conn, error) {
	cc.mu.Lock()
	last := cc.lastGoodAddr
	cc.mu.Unlock()
	addrs := make([]string, 0, len(cc.c.cfg.ControlAddrs)+1)
	if last != "" {
		addrs = append(addrs, last)
	}
	for _, a := range cc.c.cfg.ControlAddrs {
		if a != last {
			addrs = append(addrs, a)
		}
	}
	var lastErr error
	for _, addr := range addrs {
		conn, err := cc.loginAt(addr, 0)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		var shed *shedError
		if errors.As(err, &shed) {
			return nil, err
		}
	}
	if lastErr == nil {
		lastErr = errors.New("no control plane addresses")
	}
	return nil, fmt.Errorf("peer: control connect: %w", lastErr)
}

// loginAt dials one CN and completes the login handshake synchronously, so
// the caller knows whether this address actually accepted the session before
// committing to it. A rejected login with a RedirectAddr is chased to the
// region's owner; a rejection without one records the server's retry-after
// and aborts the round via shedError.
func (cc *controlConn) loginAt(addr string, hops int) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cc.c.secMu.Lock()
	secs := cc.c.secondaries.Window
	cc.c.secMu.Unlock()
	login := &protocol.Login{
		GUID:            cc.c.cfg.GUID,
		Secondaries:     secs,
		SoftwareVersion: cc.c.SoftwareVersion(),
		UploadsEnabled:  cc.c.prefs.UploadsEnabled(),
		SwarmAddr:       cc.c.SwarmAddr(),
		NAT:             cc.c.cfg.NAT,
		DeclaredIP:      cc.c.cfg.DeclaredIP,
	}
	if err := protocol.WriteMessage(conn, login); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, err := protocol.ReadMessage(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, err
	}
	ack, ok := msg.(*protocol.LoginAck)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("peer: unexpected %T before login ack", msg)
	}
	if !ack.OK {
		conn.Close()
		if ack.RedirectAddr != "" && ack.RedirectAddr != addr && hops < maxLoginRedirects {
			return cc.loginAt(ack.RedirectAddr, hops+1)
		}
		shed := &shedError{retryAfter: time.Duration(ack.RetryAfterMs) * time.Millisecond}
		cc.mu.Lock()
		cc.retryAfter = shed.retryAfter
		cc.mu.Unlock()
		return nil, shed
	}
	cc.mu.Lock()
	if cc.stopped {
		cc.mu.Unlock()
		conn.Close()
		return nil, errors.New("peer: client closed")
	}
	cc.conn = conn
	cc.connUp = true
	cc.sawUp = true
	prev := cc.lastGoodAddr
	cc.lastGoodAddr = addr
	cc.mu.Unlock()
	if prev != "" && prev != addr {
		cc.c.metrics.cpFailovers.Inc()
	}
	// Re-announce local content after every (re)login; the directory is
	// soft state.
	go cc.c.registerStoredObjects()
	return conn, nil
}

// run services one session at a time, reconnecting until stopped. A peer
// whose CN goes down "simply reconnects to another one" (§3.8); reconnect
// delays grow with jittered exponential backoff — so mass disconnections
// decorrelate instead of stampeding the CNs — and honour the server's
// retry-after, resetting after any session that logged in successfully.
func (cc *controlConn) run(conn net.Conn) {
	defer cc.wg.Done()
	stopPing := cc.startKeepalive()
	defer stopPing()
	bo := &retry.Backoff{Base: 200 * time.Millisecond, Max: 15 * time.Second}
	for {
		cc.readLoop(conn)
		cc.mu.Lock()
		cc.connUp = false
		cc.conn = nil
		sawUp := cc.sawUp
		cc.sawUp = false
		stopped := cc.stopped
		retryAfter := cc.retryAfter
		cc.retryAfter = 0
		cc.mu.Unlock()
		cc.c.failQueries()
		if stopped {
			return
		}
		if sawUp {
			// A healthy session existed; this is a fresh outage, not a
			// continuation of the last one.
			bo.Reset()
		}
		wait := bo.Next()
		if retryAfter > wait {
			wait = retryAfter
		}
		select {
		case <-cc.stopCh:
			return
		case <-time.After(wait):
		}
		cc.c.metrics.retriesControl.Inc()
		var err error
		conn, err = cc.dialAndLogin()
		if err != nil {
			cc.c.logf("control reconnect failed: %v", err)
			// A nil conn makes readLoop return immediately, so the loop
			// comes straight back here with a longer backoff.
			conn = nil
		}
	}
}

// startKeepalive pings the control plane periodically so half-dead TCP
// sessions are detected instead of lingering silently.
func (cc *controlConn) startKeepalive() (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(30 * time.Second)
		defer t.Stop()
		var nonce uint64
		for {
			select {
			case <-done:
				return
			case <-cc.stopCh:
				return
			case <-t.C:
				nonce++
				cc.send(&protocol.Ping{Nonce: nonce})
			}
		}
	}()
	return func() { close(done) }
}

func (cc *controlConn) readLoop(conn net.Conn) {
	if conn == nil {
		return
	}
	for {
		// The keepalive guarantees traffic at least every 30s on a healthy
		// session; a silent two-minute gap means the session is dead.
		conn.SetReadDeadline(time.Now().Add(2 * time.Minute))
		msg, err := protocol.ReadMessage(conn)
		if err != nil {
			conn.Close()
			return
		}
		switch m := msg.(type) {
		case *protocol.LoginAck:
			// The handshake is completed synchronously in loginAt; a
			// LoginAck here is the server revoking the session mid-stream
			// (e.g. shedding after a mass reconnect).
			if !m.OK {
				cc.mu.Lock()
				cc.retryAfter = time.Duration(m.RetryAfterMs) * time.Millisecond
				cc.mu.Unlock()
				conn.Close()
				return
			}
		case *protocol.ConfigUpdate:
			cc.c.applyConfig(m)
		case *protocol.QueryResult:
			if d := cc.c.activeDownload(m.Object); d != nil {
				d.onQueryResult(m)
			}
		case *protocol.ConnectTo:
			cc.c.handleConnectTo(m)
		case *protocol.ReAdd:
			cc.c.registerStoredObjects()
		case *protocol.Ping:
			cc.send(&protocol.Pong{Nonce: m.Nonce})
		default:
			// Tolerate unknown messages.
		}
	}
}

// send writes a message on the current session; messages sent while
// disconnected are dropped (the state they carry is soft and re-announced
// on reconnect).
func (cc *controlConn) send(m protocol.Message) {
	cc.mu.Lock()
	conn := cc.conn
	cc.mu.Unlock()
	if conn == nil {
		return
	}
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := protocol.WriteMessage(conn, m); err != nil {
		conn.Close()
	}
}

// failQueries tells every running download that the control session dropped,
// so a peer query it was waiting on will not be answered.
func (c *Client) failQueries() {
	c.mu.Lock()
	dls := c.downloadsLocked()
	c.mu.Unlock()
	for _, d := range dls {
		d.onQueryResult(nil)
	}
}

// applyConfig installs pushed client policy and triggers a background
// self-upgrade when the fleet target version is ahead of ours: "the ability
// to perform fast software upgrades without user interaction can help to
// respond quickly to security or performance incidents" (§3.8).
func (c *Client) applyConfig(m *protocol.ConfigUpdate) {
	c.mu.Lock()
	c.clientCfg.MaxUploadConns = int(m.MaxUploadConns)
	c.clientCfg.PerObjectUploadCap = int(m.PerObjectUploadCap)
	c.clientCfg.UploadRateBps = int64(m.UploadRateBps)
	c.clientCfg.CacheTTLSec = int(m.CacheTTLSec)
	c.uploads.applyConfig(c.clientCfg)
	needsUpgrade := m.TargetVersion != "" && m.TargetVersion != c.version
	c.mu.Unlock()
	if needsUpgrade {
		go c.selfUpgrade(m.TargetVersion)
	}
}

// selfUpgrade installs the new version (here: adopts the version string — a
// real client would swap binaries), restarts the process-equivalent state
// (a fresh secondary GUID, like any restart), and re-logs-in so the control
// plane sees the upgraded version.
func (c *Client) selfUpgrade(version string) {
	c.mu.Lock()
	if c.closed || c.version == version {
		c.mu.Unlock()
		return
	}
	c.version = version
	c.mu.Unlock()
	c.logf("self-upgrading to %s", version)
	c.secMu.Lock()
	c.secondaries.Push(id.NewSecondary())
	c.secMu.Unlock()
	// Drop the control session; the reconnect logic logs in with the new
	// version.
	c.control.mu.Lock()
	conn := c.control.conn
	c.control.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// handleConnectTo reacts to the control plane's instruction to connect to
// another peer. If we are downloading the object, the peer is an extra
// candidate; if we hold the object and serve uploads, we dial back so both
// sides initiate (the hole-punch choreography of §3.7).
func (c *Client) handleConnectTo(m *protocol.ConnectTo) {
	if d := c.activeDownload(m.Object); d != nil {
		d.addCandidate(m.Peer)
		return
	}
	if !c.prefs.UploadsEnabled() {
		return
	}
	if bf := c.store.Have(m.Object); bf != nil && bf.Count() > 0 {
		go c.uploads.dialBack(m.Object, m.Peer)
	}
}
