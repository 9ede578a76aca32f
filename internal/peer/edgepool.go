package peer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"netsession/internal/content"
	"netsession/internal/edge"
	"netsession/internal/id"
	"netsession/internal/retry"
)

// edgePool fronts one or more edge servers with failover. Akamai's edge is
// a fleet; the client's DNS-selected server can fail mid-download, and the
// DLM simply continues against another one (§3.3). Each server carries a
// circuit breaker for per-server health: a server that keeps failing is
// quarantined for a cooldown instead of being retried blindly, then
// half-open-probed for recovery. The pool stays sticky to the server that
// last succeeded.
type edgeServer struct {
	client  *edge.Client
	breaker *retry.Breaker
}

type edgePool struct {
	servers []*edgeServer

	mu sync.Mutex
	// current is the preferred index.
	current int
}

func newEdgePool(urls []string, m *clientMetrics) (*edgePool, error) {
	p := &edgePool{}
	for _, u := range urls {
		if u == "" {
			continue
		}
		p.servers = append(p.servers, &edgeServer{
			client: &edge.Client{BaseURL: u},
			breaker: retry.NewBreaker(retry.BreakerConfig{
				Threshold:   3,
				Cooldown:    time.Second,
				MaxCooldown: 15 * time.Second,
				OnTrip:      func() { m.breakerTripsEdge.Inc() },
			}),
		})
	}
	if len(p.servers) == 0 {
		return nil, errors.New("peer: no edge URLs configured")
	}
	return p, nil
}

// breakerTrips sums the trips across the pool's per-server breakers.
func (p *edgePool) breakerTrips() int64 {
	var n int64
	for _, s := range p.servers {
		n += s.breaker.Trips()
	}
	return n
}

// do runs op against edge servers starting from the preferred one, skipping
// quarantined servers, until one succeeds or every server has failed or is
// quarantined. Outcomes feed each server's breaker, so repeated failures
// open it and recovery is detected by the half-open probe.
func (p *edgePool) do(op func(*edge.Client) error) error {
	p.mu.Lock()
	start := p.current
	p.mu.Unlock()
	n := len(p.servers)
	var lastErr error
	tried := 0
	for k := 0; k < n; k++ {
		ix := (start + k) % n
		s := p.servers[ix]
		if !s.breaker.Allow() {
			continue // quarantined; its cooldown has not elapsed
		}
		tried++
		err := op(s.client)
		if err == nil {
			s.breaker.Success()
			p.mu.Lock()
			p.current = ix
			p.mu.Unlock()
			return nil
		}
		s.breaker.Failure()
		lastErr = err
	}
	if tried == 0 {
		return fmt.Errorf("peer: all %d edge servers quarantined", n)
	}
	return fmt.Errorf("peer: all %d edge servers failed: %w", n, lastErr)
}

// Authorize obtains a download authorization with failover.
func (p *edgePool) Authorize(g id.GUID, oid content.ObjectID) (*edge.Authorization, error) {
	var out *edge.Authorization
	err := p.do(func(c *edge.Client) error {
		a, err := c.Authorize(g, oid)
		if err != nil {
			return err
		}
		out = a
		return nil
	})
	return out, err
}

// FetchManifest downloads a manifest with failover.
func (p *edgePool) FetchManifest(oid content.ObjectID) (*content.Manifest, error) {
	var out *content.Manifest
	err := p.do(func(c *edge.Client) error {
		m, err := c.FetchManifest(oid)
		if err != nil {
			return err
		}
		out = m
		return nil
	})
	return out, err
}

// FetchPiece downloads one piece with failover and hands it to put, which
// verifies and stores it. A piece put refuses is that server's failure like
// any other bad response: it feeds the server's breaker and the next server
// is tried.
func (p *edgePool) FetchPiece(m *content.Manifest, token []byte, index int, put func([]byte) error) error {
	return p.do(func(c *edge.Client) error {
		data, err := c.FetchPiece(m, token, index)
		if err != nil {
			return err
		}
		return put(data)
	})
}
