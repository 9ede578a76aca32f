package nat

import (
	"context"
	"fmt"
	"net"
	"time"

	"netsession/internal/protocol"
)

// Dialer establishes swarm connections between peers, honouring the NAT
// model. In a live localhost/LAN deployment there is no real middlebox, so
// the Dialer enforces the compatibility matrix explicitly: a dial between
// incompatible NAT classes fails exactly as the punch would fail in the
// wild. This keeps live-mode behaviour faithful to the deployed system
// without requiring root to build real NAT namespaces.
type Dialer struct {
	// Local is this peer's NAT class as discovered via STUN.
	Local protocol.NATClass
	// Timeout bounds each connection attempt.
	Timeout time.Duration
}

// ErrIncompatibleNAT is returned when the matrix predicts traversal failure.
type ErrIncompatibleNAT struct {
	Local, Remote protocol.NATClass
}

func (e *ErrIncompatibleNAT) Error() string {
	return fmt.Sprintf("nat: hole punch infeasible between %v and %v", e.Local, e.Remote)
}

// Dial connects to a remote peer's swarm listener. The remote's NAT class
// comes from the PeerInfo the control plane returned; the control plane's
// selector normally filters incompatible pairs already (§3.7), so hitting
// ErrIncompatibleNAT means the directory entry was stale.
func (d *Dialer) Dial(ctx context.Context, remote protocol.PeerInfo) (net.Conn, error) {
	if !CanConnect(d.Local, remote.NAT) {
		return nil, &ErrIncompatibleNAT{Local: d.Local, Remote: remote.NAT}
	}
	timeout := d.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	nd := net.Dialer{Timeout: timeout}
	conn, err := nd.DialContext(ctx, "tcp", remote.Addr)
	if err != nil {
		return nil, fmt.Errorf("nat: dial %s: %w", remote.Addr, err)
	}
	return conn, nil
}
