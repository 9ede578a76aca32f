package controlplane

import (
	"net/http"

	"netsession/internal/cluster"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/logpipe"
)

// ApplyRingView reacts to a cluster membership change: regions the ring now
// assigns to this node are taken over (directory cleared, soft-state rebuild
// window opened, connected peers asked to RE-ADD), regions assigned away are
// released (directory cleared, their sessions dropped so the peers reconnect
// and get redirected to the new owner). The very first view only records the
// assignment — booting into a region is not a handoff.
//
// It runs on the membership's probe goroutine; each node applies its own
// observations independently, which is safe because the directory is soft
// state: a transiently split view costs at most a rebuild window, never
// correctness (§3.8).
func (cp *ControlPlane) ApplyRingView(v cluster.View) {
	cp.ringView.Store(&v)
	cp.metrics.ringNodes.Set(float64(len(v.Nodes)))
	var gained, lost []geo.NetworkRegion
	cp.ownMu.Lock()
	first := !cp.ringApplied
	cp.ringApplied = true
	// A node booting a fresh cluster applies its first view silently —
	// booting into a region is not a handoff. A node joining an existing
	// cluster must not: peers in its assigned regions are attached to other
	// nodes, so those regions go through the real takeover path.
	silent := first && !cp.cfg.JoinExisting
	for r := 0; r < geo.NumRegions; r++ {
		region := geo.NetworkRegion(r)
		owner, ok := v.Owner(region.String())
		mine := ok && owner.ID == cp.cfg.NodeID
		if !mine && ok && len(owner.CNAddrs) > 0 {
			cp.ownerCN[r] = owner.CNAddrs[0]
		} else {
			cp.ownerCN[r] = ""
		}
		flipped := mine != cp.owned[r]
		cp.owned[r] = mine
		if silent {
			continue
		}
		// On a joining node's first view, even regions that were nominally
		// "owned" at boot (everything starts owned) count as gained.
		if mine && (flipped || (first && cp.cfg.JoinExisting)) {
			gained = append(gained, region)
		} else if !mine && flipped {
			lost = append(lost, region)
		}
	}
	// Propagate ownership to the directories even on the first view, so
	// Select never answers from an unowned region.
	for r := 0; r < geo.NumRegions; r++ {
		cp.dns[r].dir.SetOwned(cp.owned[r])
	}
	cp.ownMu.Unlock()

	for _, region := range lost {
		cp.releaseRegion(region)
	}
	for _, region := range gained {
		cp.takeoverRegion(region)
	}
}

// transferValidityMs bounds how long a pushed directory snapshot counts as
// fresh. A takeover arriving later than this (the drain stalled, or the
// marker is left over from an earlier drain) falls back to the rebuild
// path rather than trusting stale entries.
const transferValidityMs = 60_000

// takeoverRegion makes this node the region's directory authority. When a
// draining node pushed us its directory snapshot moments ago, the takeover
// is seamless: the directory is already populated, so no rebuild window
// opens and no peer is asked to RE-ADD. Otherwise (a crash, or a stale
// snapshot) whatever entries survived from a previous ownership are cleared
// and the rebuild window opens so peers re-register their holdings before
// the directory answers queries — the same recovery path a DN crash
// takes.
func (cp *ControlPlane) takeoverRegion(r geo.NetworkRegion) {
	cp.metrics.regionHandoffs[int(r)].Inc()
	now := cp.now()
	cp.ownMu.Lock()
	transferred := cp.transferMs[int(r)] != 0 && now-cp.transferMs[int(r)] <= transferValidityMs
	cp.transferMs[int(r)] = 0
	cp.ownMu.Unlock()
	if transferred {
		return
	}
	cp.FailDN(r)
}

// releaseRegion drops a region this node no longer owns: the directory is
// cleared (its contents belong to the new owner's rebuild, not to us) and
// the region's control sessions are closed, which sends each peer through
// its reconnect path — rotation plus login redirect lands it on the owner.
func (cp *ControlPlane) releaseRegion(r geo.NetworkRegion) {
	cp.dns[int(r)].dir.Clear()
	cp.mu.Lock()
	var toDrop []*session
	for _, s := range cp.sessions {
		if s.region == r {
			toDrop = append(toDrop, s)
		}
	}
	cp.mu.Unlock()
	for _, s := range toDrop {
		s.closeConn()
	}
}

// OwnsRegion reports whether this node currently owns a region on the ring.
func (cp *ControlPlane) OwnsRegion(r geo.NetworkRegion) bool {
	cp.ownMu.Lock()
	defer cp.ownMu.Unlock()
	return cp.owned[int(r)]
}

// loginRoute decides what to do with a login from a region: serve it (owned
// is true), or reject it with the owner's CN address for the peer to
// reconnect to. The redirect may be empty when the owner's CN addresses are
// not yet known; the peer then falls back to its retry-after pacing.
func (cp *ControlPlane) loginRoute(r geo.NetworkRegion) (redirect string, owned bool) {
	cp.ownMu.Lock()
	defer cp.ownMu.Unlock()
	if cp.owned[int(r)] {
		return "", true
	}
	return cp.ownerCN[int(r)], false
}

// serveBatch is POST BatchPath. A log batch is booked only by the ring owner
// of its uploader's GUID, so every copy of a batch meets the same in-flight
// claim and ack window: another node answers 307 to the owner. A GUID that
// does not parse falls through to ingest, which refuses it, and a node with
// no ring view yet serves every batch. Batches are refused with 503 until
// StartNode's first probe round, whose anti-entropy pulls bring in the acks
// of the GUIDs this node owns, and from the start of a drain, which waits
// out batchesIn before it flushes the ack window.
func (cp *ControlPlane) serveBatch(w http.ResponseWriter, r *http.Request) {
	cp.drainMu.Lock()
	open := cp.batchesOpen && !cp.drained
	if open {
		cp.batchesIn.Add(1)
	}
	cp.drainMu.Unlock()
	if !open {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "node is not serving log batches; retry later", http.StatusServiceUnavailable)
		return
	}
	defer cp.batchesIn.Done()
	guid, err := id.ParseGUID(r.Header.Get(logpipe.HeaderGUID))
	if v := cp.ringView.Load(); v != nil && err == nil {
		if owner, ok := v.Owner(guid.String()); ok && owner.ID != cp.cfg.NodeID && owner.StatusURL != "" {
			cp.metrics.batchesRedirected.Inc()
			http.Redirect(w, r, owner.StatusURL+logpipe.BatchPath, http.StatusTemporaryRedirect)
			return
		}
	}
	cp.ingest.Handler().ServeHTTP(w, r)
}
