// Package selection implements the database-node directory of file
// locations and the locality-aware peer-selection strategy of §3.7.
//
// Selection is two-level. The first level is region-based: each directory
// instance serves one control-plane network region, and connection nodes
// query only their local directory ("long-term experimentation has shown
// that using only local DNs in searches does not negatively impact
// performance"). The second level is geolocation-based: within a directory,
// each peer belongs to nested locality sets (AS ⊂ country ⊂ continent ⊂
// World), and "selection begins with peers from the most specific set that
// the querying peer belongs to, and proceeds to less specific sets until
// enough suitable peers are found", with occasional diversity picks from
// less specific sets, fairness rotation, and NAT-compatibility filtering.
package selection

import (
	"sync"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/protocol"
)

// Entry is one peer's registration for one object.
type Entry struct {
	Info protocol.PeerInfo
	Rec  geo.Record
	// Complete reports whether the peer holds every piece; partial holders
	// are still useful uploaders mid-swarm.
	Complete bool
	// RegisteredMs is read by nothing: an entry lives as long as its peer's
	// session. It stays only because benchmark/probes.go sets it.
	RegisteredMs int64
}

// Directory is the DN database for one network region: "a database of which
// objects are currently available on which peers, as well as details about
// the connectivity of these peers" (§3.6). It is safe for concurrent use.
type Directory struct {
	region geo.NetworkRegion

	mu      sync.Mutex
	objects map[content.ObjectID]*objectEntry
	// peerObjects tracks, per peer, which objects it has registered, so a
	// peer's departure can be cleaned up in one call.
	peerObjects map[id.GUID]map[content.ObjectID]bool
	// owned reports whether the local control-plane node currently owns this
	// region on the cluster ring. A directory that lost ownership answers
	// Select with no candidates, so stale state left from before a handoff
	// can never steer a swarm. Single-node deployments stay owned forever.
	owned bool
}

// dirEntry is one peer's registration plus the directory's bookkeeping for
// it: which locality lists currently carry its GUID, and whether it has been
// tombstoned. Unregistering only sets the tombstone — the GUID stays in the
// fairness lists until a lazy compaction sweeps it out — so churn-heavy
// workloads don't pay an O(set size) list removal per departure.
type dirEntry struct {
	e Entry
	// listed are the locality sets whose bySet lists contain this GUID —
	// derived from the geo record at (re-)registration time.
	listed [4]geo.SetKey
	dead   bool
}

type objectEntry struct {
	// entries holds the registration per peer, including tombstones.
	entries map[id.GUID]*dirEntry
	// bySet keeps a fairness-ordered list of GUIDs per locality set: a
	// selected peer moves to the tail ("when a peer is selected, it is
	// placed at the end of a peer selection list for fairness"). Lists may
	// carry tombstoned GUIDs; readers must check the entry's dead flag.
	bySet map[geo.SetKey][]id.GUID
	// dead counts tombstoned entries still present in entries/bySet.
	dead int
}

func (oe *objectEntry) live() int { return len(oe.entries) - oe.dead }

// compact removes every tombstoned GUID from the fairness lists and the
// entry map. Relative order of surviving GUIDs is preserved, so fairness
// rotation state carries across compactions.
func (oe *objectEntry) compact() {
	for key, list := range oe.bySet {
		keep := list[:0]
		for _, g := range list {
			if de := oe.entries[g]; de != nil && !de.dead {
				keep = append(keep, g)
			}
		}
		if len(keep) == 0 {
			delete(oe.bySet, key)
		} else {
			oe.bySet[key] = keep
		}
	}
	for g, de := range oe.entries {
		if de.dead {
			delete(oe.entries, g)
		}
	}
	oe.dead = 0
}

// NewDirectory creates an empty directory for a region.
func NewDirectory(region geo.NetworkRegion) *Directory {
	return &Directory{
		region:      region,
		objects:     make(map[content.ObjectID]*objectEntry),
		peerObjects: make(map[id.GUID]map[content.ObjectID]bool),
		owned:       true,
	}
}

// Region returns the network region this directory serves.
func (d *Directory) Region() geo.NetworkRegion { return d.region }

// SetOwned flips whether the local node owns this directory's region.
func (d *Directory) SetOwned(owned bool) {
	d.mu.Lock()
	d.owned = owned
	d.mu.Unlock()
}

// Owned reports whether the local node owns this directory's region.
func (d *Directory) Owned() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.owned
}

// Register adds or refreshes a peer's registration for an object. Peers
// appear here only when uploads are enabled and they hold content (§3.6);
// enforcing that is the caller's (CN's) job.
//
// A re-registration with a changed geo record — a mobile peer that logged in
// from a different network (§6) — moves the peer's locality membership:
// its GUID leaves the lists of the old sets and joins the new ones.
func (d *Directory) Register(obj content.ObjectID, e Entry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	oe := d.objects[obj]
	if oe == nil {
		oe = &objectEntry{
			entries: make(map[id.GUID]*dirEntry),
			bySet:   make(map[geo.SetKey][]id.GUID),
		}
		d.objects[obj] = oe
	}
	g := e.Info.GUID
	sets := geo.SetsFor(e.Rec)
	de := oe.entries[g]
	switch {
	case de == nil:
		de = &dirEntry{listed: sets}
		oe.entries[g] = de
		for _, key := range sets {
			oe.bySet[key] = append(oe.bySet[key], g)
		}
	default:
		if de.dead {
			de.dead = false
			oe.dead--
		}
		if de.listed != sets {
			// The peer moved: re-home its GUID eagerly so selection from
			// the old locality never offers it again.
			for _, key := range de.listed {
				oe.bySet[key] = removeGUID(oe.bySet[key], g)
			}
			for _, key := range sets {
				oe.bySet[key] = append(oe.bySet[key], g)
			}
			de.listed = sets
		}
	}
	de.e = e
	if d.peerObjects[g] == nil {
		d.peerObjects[g] = make(map[content.ObjectID]bool)
	}
	d.peerObjects[g][obj] = true
}

// Unregister removes one (peer, object) registration.
func (d *Directory) Unregister(obj content.ObjectID, g id.GUID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.unregisterLocked(obj, g)
}

// unregisterLocked tombstones a registration. The GUID is left in the
// fairness lists (selection skips tombstones); once tombstones outnumber
// live entries the object is compacted in one linear sweep, keeping the
// amortized cost of a departure O(1) instead of O(set size).
func (d *Directory) unregisterLocked(obj content.ObjectID, g id.GUID) {
	oe := d.objects[obj]
	if oe == nil {
		return
	}
	de := oe.entries[g]
	if de == nil || de.dead {
		return
	}
	de.dead = true
	oe.dead++
	if po := d.peerObjects[g]; po != nil {
		delete(po, obj)
		if len(po) == 0 {
			delete(d.peerObjects, g)
		}
	}
	switch live := oe.live(); {
	case live == 0:
		delete(d.objects, obj)
	case oe.dead > live:
		oe.compact()
	}
}

// DropPeer removes every registration of a departing peer (its control
// connection closed, or it disabled uploads).
func (d *Directory) DropPeer(g id.GUID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for obj := range d.peerObjects[g] {
		d.unregisterLocked(obj, g)
	}
}

// ExportEntry is one live registration as surfaced by Export.
type ExportEntry struct {
	Object content.ObjectID
	Entry  Entry
}

// Export snapshots every live registration — what a draining control-plane
// node pushes to a region's new owner, so the takeover starts with the full
// directory instead of an empty one waiting out a rebuild window.
func (d *Directory) Export() []ExportEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []ExportEntry
	for obj, oe := range d.objects {
		for _, de := range oe.entries {
			if !de.dead {
				out = append(out, ExportEntry{Object: obj, Entry: de.e})
			}
		}
	}
	return out
}

// Copies returns how many peers currently register the object — the
// quantity on the x-axis of Figure 5.
func (d *Directory) Copies(obj content.ObjectID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	oe := d.objects[obj]
	if oe == nil {
		return 0
	}
	return oe.live()
}

// Objects returns the number of distinct objects with at least one
// registration.
func (d *Directory) Objects() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.objects)
}

// Clear drops the whole database, simulating a DN failure; the control
// plane then re-populates it via RE-ADD (§3.8).
func (d *Directory) Clear() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.objects = make(map[content.ObjectID]*objectEntry)
	d.peerObjects = make(map[id.GUID]map[content.ObjectID]bool)
}

func removeGUID(list []id.GUID, g id.GUID) []id.GUID {
	for i, x := range list {
		if x == g {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}
