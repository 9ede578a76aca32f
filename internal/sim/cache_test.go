package sim

import (
	"testing"

	"netsession/internal/content"
	"netsession/internal/id"
	"netsession/internal/trace"
)

// cacheShard is one shard with a single interned object and no peers,
// driven by hand through its engine.
func cacheShard(t *testing.T) (*shard, content.ObjectID) {
	t.Helper()
	cfg := SmallScenario()
	sh := newShard(&cfg, 0, nil, nil)
	oid := content.NewObjectID(1, "cached", 1)
	sh.objID = []content.ObjectID{oid}
	return sh, oid
}

// onlineSeeder adds an online, upload-enabled peer to the shard.
func onlineSeeder(sh *shard, g byte) *simPeer {
	p := sh.addPeer(&trace.PeerSpec{GUID: id.GUID{g}})
	p.online, p.uploadsEnabled = true, true
	return p
}

// TestRecompletedCacheEntryExpires: a peer that downloads an object again
// extends its cache entry, and the directory entry leaves once the extended
// TTL has passed, while the peer stays online throughout.
func TestRecompletedCacheEntryExpires(t *testing.T) {
	sh, oid := cacheShard(t)
	p := onlineSeeder(sh, 1)
	ttl := int64(cacheTTLHours * 3_600_000)
	sh.completeCache(p, 0)
	sh.eng.At(ttl/2, func(uint64) { sh.completeCache(p, 0) }, 0)

	sh.eng.Run(ttl + 1)
	if got := sh.dir.Copies(oid); got != 1 {
		t.Fatalf("Copies=%d past the first TTL, want 1: the re-completion extended it", got)
	}
	sh.eng.Run(ttl/2 + ttl + 1)
	if got := sh.dir.Copies(oid); got != 0 {
		t.Fatalf("Copies=%d past the extended TTL, want 0", got)
	}
	if len(p.cache) != 0 {
		t.Fatalf("cache holds %d entries past the extended TTL, want 0", len(p.cache))
	}
}

// TestDirClearReAddsOnlineCaches: a DN failure empties the directory, and
// the online peers' RE-ADD restores their cached objects at once; an
// offline peer's objects stay out until it reconnects.
func TestDirClearReAddsOnlineCaches(t *testing.T) {
	sh, oid := cacheShard(t)
	online, offline := onlineSeeder(sh, 1), onlineSeeder(sh, 2)
	sh.completeCache(online, 0)
	sh.completeCache(offline, 0)
	sh.setOffline(offline)

	sh.handleDirClear(0)
	if got := sh.dir.Copies(oid); got != 1 {
		t.Fatalf("Copies=%d after the DN failure, want the online peer's 1", got)
	}
	sh.setOnline(offline)
	if got := sh.dir.Copies(oid); got != 2 {
		t.Fatalf("Copies=%d after the offline peer reconnected, want 2", got)
	}
}
