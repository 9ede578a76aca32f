package peer

import (
	"sync"
	"testing"
	"time"

	"netsession/internal/content"
	"netsession/internal/edge"
	"netsession/internal/id"
)

func startEdgeServer(t *testing.T, cat *edge.Catalog, addr string) *edge.Server {
	t.Helper()
	minter := edge.NewTokenMinter([]byte("pool-key"))
	ledger := edge.NewLedger()
	s := edge.NewServer(cat, minter, ledger, edge.DefaultClientConfig())
	if err := s.Start(addr); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEdgePoolRequiresURL(t *testing.T) {
	m := newClientMetrics()
	if _, err := newEdgePool([]string{"", ""}, m); err == nil {
		t.Fatal("empty pool accepted")
	}
	p, err := newEdgePool([]string{"", "http://a", ""}, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.servers) != 1 {
		t.Fatalf("pool kept %d servers", len(p.servers))
	}
}

func TestEdgePoolFailoverAndStickiness(t *testing.T) {
	obj, err := content.NewObject(1, "pool", 1, 40_000, 8192, false)
	if err != nil {
		t.Fatal(err)
	}
	cat := edge.NewCatalog()
	if err := cat.PublishSynthetic(obj); err != nil {
		t.Fatal(err)
	}
	good := startEdgeServer(t, cat, "127.0.0.1:0")
	defer good.Close()

	// First URL is dead; the pool must fail over and then stick to the
	// working server.
	pool, err := newEdgePool([]string{"http://127.0.0.1:1", "http://" + good.Addr()}, newClientMetrics())
	if err != nil {
		t.Fatal(err)
	}
	auth, err := pool.Authorize(id.NewGUID(), obj.ID)
	if err != nil {
		t.Fatalf("authorize via failover: %v", err)
	}
	if pool.current != 1 {
		t.Errorf("pool did not stick to the working server (current=%d)", pool.current)
	}
	m, err := pool.FetchManifest(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	store := content.NewMemStore()
	if err := pool.FetchPiece(m, auth.Token, 0, func(data []byte) error { return store.Put(m, 0, data) }); err != nil {
		t.Fatal(err)
	}

	// All servers down: the error names the failure count.
	good.Close()
	if _, err := pool.FetchManifest(obj.ID); err == nil {
		t.Fatal("fetch succeeded with every edge server down")
	}
}

// TestEdgePoolConcurrentFailover exercises the pool under parallel load
// during an outage of the preferred server: every call must fail over to
// the surviving server, the pool must restick, the dead server's breaker
// must trip, and once the dead server comes back (and the survivor goes
// away) the half-open probe must rediscover it.
func TestEdgePoolConcurrentFailover(t *testing.T) {
	obj, err := content.NewObject(1, "pool-conc", 1, 40_000, 8192, false)
	if err != nil {
		t.Fatal(err)
	}
	cat := edge.NewCatalog()
	if err := cat.PublishSynthetic(obj); err != nil {
		t.Fatal(err)
	}
	srvA := startEdgeServer(t, cat, "127.0.0.1:0")
	addrA := srvA.Addr()
	srvB := startEdgeServer(t, cat, "127.0.0.1:0")
	defer srvB.Close()

	metrics := newClientMetrics()
	pool, err := newEdgePool([]string{"http://" + addrA, "http://" + srvB.Addr()}, metrics)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.FetchManifest(obj.ID); err != nil {
		t.Fatal(err)
	}
	if pool.current != 0 {
		t.Fatalf("pool must start preferring server 0, got %d", pool.current)
	}

	// Outage of the preferred server under parallel load.
	srvA.Close()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = pool.FetchManifest(obj.ID)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent fetch %d failed during failover: %v", i, err)
		}
	}
	pool.mu.Lock()
	cur := pool.current
	pool.mu.Unlock()
	if cur != 1 {
		t.Fatalf("pool must restick to the surviving server, current=%d", cur)
	}

	// The dead server keeps failing until its breaker quarantines it.
	for i := 0; i < 10 && pool.breakerTrips() == 0; i++ {
		pool.FetchManifest(obj.ID)
	}
	if pool.breakerTrips() == 0 {
		t.Fatal("outage did not trip the dead server's breaker")
	}
	if got := metrics.breakerTripsEdge.Value(); got == 0 {
		t.Fatal("breaker trip not counted in telemetry")
	}

	// Recovery: server A returns on its old address, server B goes away.
	// The half-open probe (cooldown 1s) must rediscover A.
	srvA2 := startEdgeServer(t, cat, addrA)
	defer srvA2.Close()
	srvB.Close()
	waitUntil(t, 10*time.Second, func() bool {
		_, err := pool.FetchManifest(obj.ID)
		return err == nil
	}, "pool never recovered the restarted server")
	pool.mu.Lock()
	cur = pool.current
	pool.mu.Unlock()
	if cur != 0 {
		t.Fatalf("pool must restick to the recovered server, current=%d", cur)
	}
}
