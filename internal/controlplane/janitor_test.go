package controlplane

import (
	"sync/atomic"
	"testing"
	"time"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/protocol"
)

func TestJanitorExpiresSoftState(t *testing.T) {
	// Inject a controllable clock.
	var nowMs atomic.Int64
	h := newHarness(t, func(c *Config) {
		c.nowMs = func() int64 { return nowMs.Load() }
	})
	oid := content.NewObjectID(9, "stale", 1)
	p := h.dialPeer("US", true)
	expect[*protocol.LoginAck](p)
	p.send(&protocol.Register{Object: oid, NumPieces: 1, HaveCount: 1, Complete: true})
	region := geo.RegionOf(p.rec)
	waitFor(t, "registration", func() bool { return h.cp.DN(region).Copies(oid) == 1 })

	stop := h.cp.startJanitor(20*time.Millisecond, 1000)
	defer stop()

	// Within TTL the entry stays: watch several janitor ticks and fail the
	// moment the entry disappears (instead of sleeping and hoping the purge
	// would have happened by now).
	nowMs.Store(500)
	if eventually(100*time.Millisecond, func() bool { return h.cp.DN(region).Copies(oid) == 0 }) {
		t.Fatal("fresh entry expired")
	}
	// Past TTL the janitor purges it.
	nowMs.Store(5000)
	waitFor(t, "expiry", func() bool { return h.cp.DN(region).Copies(oid) == 0 })
	// Stop is idempotent.
	stop()
}
