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
	// peerObjects lists, per peer, its live registrations, so a peer's
	// departure is cleaned up in one call without a lookup per object.
	peerObjects map[id.GUID][]*dirEntry
	// spareObjects, spareEntries and spareLists hold emptied object
	// entries, registrations and per-peer lists for reuse: a churning
	// population frees and re-creates them at the rate peers come and go.
	spareObjects spares[*objectEntry]
	spareEntries spares[*dirEntry]
	spareLists   spares[[]*dirEntry]
	// owned reports whether the local control-plane node currently owns this
	// region on the cluster ring. A directory that lost ownership answers
	// Select with no candidates, so stale state left from before a handoff
	// can never steer a swarm. Single-node deployments stay owned forever.
	owned bool
}

// dirEntry is one peer's registration plus the directory's bookkeeping for
// it: its object, which locality lists currently carry its GUID, and whether
// it has been tombstoned. Unregistering only sets the tombstone — the GUID
// stays in the fairness lists until a lazy compaction sweeps it out — so
// churn-heavy workloads don't pay an O(set size) list removal per departure.
type dirEntry struct {
	e  Entry
	oe *objectEntry
	// listed are the locality sets whose lists contain this GUID — derived
	// from the geo record at (re-)registration time.
	listed [4]geo.SetKey
	dead   bool
}

type objectEntry struct {
	id content.ObjectID
	// entries holds the registration per peer, including tombstones.
	entries map[id.GUID]*dirEntry
	// lists keeps a fairness-ordered list of GUIDs per locality set, and
	// index locates a set's list: a selected peer moves to the tail ("when
	// a peer is selected, it is placed at the end of a peer selection list
	// for fairness"). Lists may carry tombstoned GUIDs; readers must check
	// the entry's dead flag. A list past the end of lists is a spare
	// backing array, reused by the next set that needs one.
	lists []setList
	index map[geo.SetKey]int32
	// dead counts tombstoned entries still present in entries and lists.
	dead int
}

type setList struct {
	key   geo.SetKey
	guids []id.GUID
}

func (oe *objectEntry) live() int { return len(oe.entries) - oe.dead }

// list returns the set's fairness list, or nil if the object has none.
func (oe *objectEntry) list(key geo.SetKey) []id.GUID {
	if i, ok := oe.index[key]; ok {
		return oe.lists[i].guids
	}
	return nil
}

// appendTo adds g at the tail of the set's list, creating the list if the
// set has none.
func (oe *objectEntry) appendTo(key geo.SetKey, g id.GUID) {
	i, ok := oe.index[key]
	if !ok {
		i = int32(len(oe.lists))
		oe.index[key] = i
		if int(i) < cap(oe.lists) {
			oe.lists = oe.lists[:i+1]
			oe.lists[i] = setList{key: key, guids: oe.lists[i].guids[:0]}
		} else {
			oe.lists = append(oe.lists, setList{key: key})
		}
	}
	l := &oe.lists[i]
	l.guids = append(l.guids, g)
}

// dropList removes list i, moving the last list into its place and keeping
// its backing array past the end for reuse.
func (oe *objectEntry) dropList(i int) {
	last := len(oe.lists) - 1
	delete(oe.index, oe.lists[i].key)
	if i != last {
		oe.lists[i], oe.lists[last] = oe.lists[last], oe.lists[i]
		oe.index[oe.lists[i].key] = int32(i)
	}
	oe.lists = oe.lists[:last]
}

// compact removes every tombstoned GUID from the fairness lists and the
// entry map. Relative order of surviving GUIDs is preserved, so fairness
// rotation state carries across compactions. The swept registrations go to
// spare.
func (oe *objectEntry) compact(spare *spares[*dirEntry]) {
	for i := 0; i < len(oe.lists); {
		l := &oe.lists[i]
		keep := l.guids[:0]
		for _, g := range l.guids {
			if de := oe.entries[g]; de != nil && !de.dead {
				keep = append(keep, g)
			}
		}
		l.guids = keep
		if len(keep) == 0 {
			oe.dropList(i)
			continue
		}
		i++
	}
	for g, de := range oe.entries {
		if de.dead {
			delete(oe.entries, g)
			spare.put(de)
		}
	}
	oe.dead = 0
}

// NewDirectory creates an empty directory for a region.
func NewDirectory(region geo.NetworkRegion) *Directory {
	return &Directory{
		region:      region,
		objects:     make(map[content.ObjectID]*objectEntry),
		peerObjects: make(map[id.GUID][]*dirEntry),
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
		oe = d.newObject(obj)
		d.objects[obj] = oe
	}
	g := e.Info.GUID
	sets := geo.SetsFor(e.Rec)
	de := oe.entries[g]
	switch {
	case de == nil:
		de, _ = d.spareEntries.get()
		if de == nil {
			de = new(dirEntry)
		}
		*de = dirEntry{oe: oe, listed: sets}
		oe.entries[g] = de
		for _, key := range sets {
			oe.appendTo(key, g)
		}
		d.addPeerEntry(g, de)
	case de.dead:
		de.dead = false
		oe.dead--
		d.addPeerEntry(g, de)
	}
	if de.listed != sets {
		// The peer moved: re-home its GUID eagerly so selection from the
		// old locality never offers it again.
		for _, key := range de.listed {
			if i, ok := oe.index[key]; ok {
				oe.lists[i].guids = removeGUID(oe.lists[i].guids, g)
			}
		}
		for _, key := range sets {
			oe.appendTo(key, g)
		}
		de.listed = sets
	}
	de.e = e
}

// newObject returns an empty object entry, a spare one if there is one.
func (d *Directory) newObject(obj content.ObjectID) *objectEntry {
	oe, ok := d.spareObjects.get()
	if !ok {
		oe = &objectEntry{
			entries: make(map[id.GUID]*dirEntry),
			index:   make(map[geo.SetKey]int32),
		}
	}
	oe.id = obj
	return oe
}

// addPeerEntry records a registration that just became live in its peer's
// list.
func (d *Directory) addPeerEntry(g id.GUID, de *dirEntry) {
	list, ok := d.peerObjects[g]
	if !ok {
		list, _ = d.spareLists.get()
	}
	d.peerObjects[g] = append(list, de)
}

// Unregister removes one (peer, object) registration.
func (d *Directory) Unregister(obj content.ObjectID, g id.GUID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	oe := d.objects[obj]
	if oe == nil {
		return
	}
	de := oe.entries[g]
	if de == nil || de.dead {
		return
	}
	list := d.peerObjects[g]
	for i, x := range list {
		if x == de {
			last := len(list) - 1
			list[i] = list[last]
			list[last] = nil
			list = list[:last]
			break
		}
	}
	if len(list) == 0 {
		delete(d.peerObjects, g)
		d.putList(list)
	} else {
		d.peerObjects[g] = list
	}
	d.tombstone(de)
}

// DropPeer removes every registration of a departing peer (its control
// connection closed, or it disabled uploads).
func (d *Directory) DropPeer(g id.GUID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	list, ok := d.peerObjects[g]
	if !ok {
		return
	}
	delete(d.peerObjects, g)
	for i, de := range list {
		list[i] = nil
		d.tombstone(de)
	}
	d.putList(list[:0])
}

// putList keeps an emptied per-peer list for reuse unless it grew large.
func (d *Directory) putList(list []*dirEntry) {
	if cap(list) <= spareSizeMax {
		d.spareLists.put(list)
	}
}

// tombstone marks a live registration dead. The GUID is left in the
// fairness lists (selection skips tombstones); once tombstones outnumber
// live entries the object is compacted in one linear sweep, keeping the
// amortized cost of a departure O(1) instead of O(set size). An object
// with no live registration left is deleted.
func (d *Directory) tombstone(de *dirEntry) {
	oe := de.oe
	de.dead = true
	oe.dead++
	switch live := oe.live(); {
	case live == 0:
		delete(d.objects, oe.id)
		d.recycle(oe)
	case oe.dead > live:
		oe.compact(&d.spareEntries)
	}
}

// recycle empties a deleted object entry into the spares. An entry whose
// lists ever grew large is left to the GC, so the spares never pin a
// popular object's memory; the world list holds every registration, so its
// capacity is the object's high-water mark.
func (d *Directory) recycle(oe *objectEntry) {
	if cap(oe.lists) > spareSizeMax {
		return
	}
	for _, l := range oe.lists[:cap(oe.lists)] {
		if cap(l.guids) > spareSizeMax {
			return
		}
	}
	for _, de := range oe.entries {
		d.spareEntries.put(de)
	}
	clear(oe.entries)
	clear(oe.index)
	oe.lists = oe.lists[:0]
	oe.dead = 0
	d.spareObjects.put(oe)
}

// spareMax bounds each stack of spares, and spareSizeMax the capacity of a
// list kept for reuse.
const (
	spareMax     = 1024
	spareSizeMax = 16
)

// spares is a bounded LIFO of values kept for reuse.
type spares[T any] struct{ s []T }

func (p *spares[T]) get() (v T, ok bool) {
	n := len(p.s)
	if n == 0 {
		return v, false
	}
	v = p.s[n-1]
	var zero T
	p.s[n-1] = zero
	p.s = p.s[:n-1]
	return v, true
}

func (p *spares[T]) put(v T) {
	if len(p.s) < spareMax {
		p.s = append(p.s, v)
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
	d.peerObjects = make(map[id.GUID][]*dirEntry)
}

func removeGUID(list []id.GUID, g id.GUID) []id.GUID {
	for i, x := range list {
		if x == g {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}
