package selection

import (
	"math/rand"
	"sync"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/nat"
	"netsession/internal/protocol"
)

// Policy holds the configurable knobs of the selection process ("the
// selection process can be modified with a set of configurable policies",
// §3.7).
type Policy struct {
	// MaxPeers bounds how many peers one query returns ("by default, up to
	// 40 peers are returned").
	MaxPeers int
	// DiversityProb scales the chance of an out-of-turn pick from a less
	// specific set; the pick probability is DiversityProb multiplied by
	// the candidate set's specificity.
	DiversityProb float64
	// RequireNATCompat filters candidates the requester's NAT cannot punch
	// with.
	RequireNATCompat bool
	// LocalityAware switches between the paper's strategy and the random
	// baseline used by the ablation benches.
	LocalityAware bool
}

// DefaultPolicy returns the production-like policy.
func DefaultPolicy() Policy {
	return Policy{
		MaxPeers:         40,
		DiversityProb:    0.10,
		RequireNATCompat: true,
		LocalityAware:    true,
	}
}

// Query describes one peer-selection request arriving at the directory.
type Query struct {
	Object    content.ObjectID
	Requester geo.Record
	// RequesterGUID is excluded from results.
	RequesterGUID id.GUID
	RequesterNAT  protocol.NATClass
	// NowMs is read by nothing; it stays only because benchmark/probes.go
	// sets it.
	NowMs int64
	// Max overrides Policy.MaxPeers when positive.
	Max int
	// Rand drives the diversity mechanism; required. It is only used
	// outside the directory's lock, so a per-caller Rand needs no extra
	// synchronization.
	Rand *rand.Rand
}

// rotation records one fairness move (taken peer → tail of its level's
// list), applied in one batch after the walk.
type rotation struct {
	level int8
	g     id.GUID
}

// levelState is one locality level's lazily materialized view: the GUID
// list is copied whole on first touch (a flat memcpy), but entries are
// resolved into candidates in chunks, on demand — a walk that fills its
// quota from the head of a 10k-peer world set never pays for the tail.
type levelState struct {
	guids []id.GUID
	// cands are copies of live registrations' contact details: directory
	// entries are mutated in place by re-registration, so the walk works on
	// copies, never on shared pointers.
	cands []protocol.PeerInfo
	// next is the first unresolved index into guids.
	next  int
	haveG bool
}

// snapshotChunk is how many GUIDs one locked section resolves; large enough
// that a typical query locks each touched level once or twice, small enough
// that a full miss over a big set stays incremental.
const snapshotChunk = 64

// selScratch is the reusable working set of one Select call. Pooled so the
// steady-state cost of a query is one allocation (the returned slice).
type selScratch struct {
	levels [4]levelState
	chosen []id.GUID
	rots   []rotation
	out    []protocol.PeerInfo
}

var selPool = sync.Pool{New: func() any { return new(selScratch) }}

func (sc *selScratch) release() {
	for i := range sc.levels {
		lv := &sc.levels[i]
		lv.guids = lv.guids[:0]
		lv.cands = lv.cands[:0]
		lv.next = 0
		lv.haveG = false
	}
	sc.chosen = sc.chosen[:0]
	sc.rots = sc.rots[:0]
	sc.out = sc.out[:0]
	selPool.Put(sc)
}

// Select returns up to Max suitable peers for the query under the given
// policy. The result order is the order peers should be tried in.
//
// The directory lock is held only for candidate snapshotting (GUID-list
// copies and chunked entry resolution) and for the final batch of fairness
// rotations; the walk itself — filtering, diversity draws from q.Rand —
// runs unlocked on the snapshots, so a slow or randomness-heavy query never
// serializes the directory's writers.
func (d *Directory) Select(p Policy, q Query) []protocol.PeerInfo {
	max := p.MaxPeers
	if q.Max > 0 && q.Max < max {
		max = q.Max
	}
	if max <= 0 {
		return nil
	}
	if !d.Owned() {
		// Ownership moved to another node; whatever entries remain here are
		// stale and must not steer swarms.
		return nil
	}
	sc := selPool.Get().(*selScratch)
	sets := geo.SetsFor(q.Requester)
	if p.LocalityAware {
		d.selectLocality(sc, p, q, max, sets)
	} else {
		d.selectRandom(sc, p, q, max, sets[3])
	}
	var out []protocol.PeerInfo
	if len(sc.out) > 0 {
		out = append(out, sc.out...)
	}
	sc.release()
	return out
}

// selectLocality walks the nested locality sets most specific first,
// spilling to wider sets until the quota is met, with the paper's
// probabilistic diversity picks from less specific sets.
func (d *Directory) selectLocality(sc *selScratch, p Policy, q Query, max int, sets [4]geo.SetKey) {
	take := func(c protocol.PeerInfo, level int) bool {
		g := c.GUID
		if g == q.RequesterGUID {
			return false
		}
		for _, ch := range sc.chosen {
			if ch == g {
				return false
			}
		}
		if p.RequireNATCompat && !nat.CanConnect(q.RequesterNAT, c.NAT) {
			return false
		}
		sc.chosen = append(sc.chosen, g)
		sc.out = append(sc.out, c)
		sc.rots = append(sc.rots, rotation{level: int8(level), g: g})
		return true
	}

	for li := 0; li < len(sets) && len(sc.out) < max; li++ {
		for idx := 0; len(sc.out) < max; idx++ {
			list := d.fillLevel(sc, q.Object, sets[li], li, idx+1)
			if idx >= len(list) {
				break
			}
			if !take(list[idx], li) {
				continue
			}
			// Diversity: occasionally add one pick from a less specific
			// set, with probability proportional to its specificity.
			for wi := li + 1; wi < len(sets); wi++ {
				if len(sc.out) >= max {
					break
				}
				if q.Rand.Float64() < p.DiversityProb*sets[wi].Level.Specificity() {
					for widx := 0; ; widx++ {
						wlist := d.fillLevel(sc, q.Object, sets[wi], wi, widx+1)
						if widx >= len(wlist) {
							break
						}
						if take(wlist[widx], wi) {
							break
						}
					}
				}
			}
		}
	}
	d.applyRotations(q.Object, sets, sc.rots)
}

// selectRandom is the baseline selector: a uniformly random subset of
// compatible holders, ignoring locality. Used to quantify how much the
// locality-aware strategy matters (ablation benches; cf. the discussion of
// locality-aware selection reducing cross-ISP traffic in §7).
func (d *Directory) selectRandom(sc *selScratch, p Policy, q Query, max int, world geo.SetKey) {
	// A uniform draw needs the whole candidate set materialized.
	list := d.fillLevel(sc, q.Object, world, 3, int(^uint(0)>>1))
	q.Rand.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	for _, c := range list {
		if c.GUID == q.RequesterGUID {
			continue
		}
		if p.RequireNATCompat && !nat.CanConnect(q.RequesterNAT, c.NAT) {
			continue
		}
		sc.out = append(sc.out, c)
		if len(sc.out) >= max {
			break
		}
	}
}

// fillLevel materializes candidates for one locality level until at least
// `want` are available or the level is exhausted, and returns the resolved
// prefix. The first locked section copies the level's GUID list (so one
// query sees one consistent fairness order); each locked section resolves at
// most snapshotChunk entries, skipping tombstones and GUIDs unregistered
// since the copy. An object that vanishes mid-query just exhausts the level.
func (d *Directory) fillLevel(sc *selScratch, obj content.ObjectID, key geo.SetKey, li, want int) []protocol.PeerInfo {
	lv := &sc.levels[li]
	for len(lv.cands) < want {
		if lv.haveG && lv.next >= len(lv.guids) {
			break
		}
		d.mu.Lock()
		oe := d.objects[obj]
		if oe == nil {
			lv.haveG = true
			lv.next = len(lv.guids)
			d.mu.Unlock()
			break
		}
		if !lv.haveG {
			lv.guids = append(lv.guids[:0], oe.list(key)...)
			lv.haveG = true
		}
		end := lv.next + snapshotChunk
		if end > len(lv.guids) {
			end = len(lv.guids)
		}
		for ; lv.next < end; lv.next++ {
			if de := oe.entries[lv.guids[lv.next]]; de != nil && !de.dead {
				lv.cands = append(lv.cands, de.e.Info)
			}
		}
		d.mu.Unlock()
	}
	return lv.cands
}

// applyRotations moves every taken peer to the tail of the level list it was
// taken from — the paper's fairness rule — in one short locked batch after
// the walk. Peers that vanished between snapshot and apply are skipped by
// rotateToTail's no-op.
func (d *Directory) applyRotations(obj content.ObjectID, sets [4]geo.SetKey, rots []rotation) {
	if len(rots) == 0 {
		return
	}
	d.mu.Lock()
	if oe := d.objects[obj]; oe != nil {
		for _, r := range rots {
			rotateToTail(oe.list(sets[r.level]), r.g)
		}
	}
	d.mu.Unlock()
}

// rotateToTail moves g, if listed, to the tail of list in place.
func rotateToTail(list []id.GUID, g id.GUID) {
	for i, x := range list {
		if x == g {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = g
			return
		}
	}
}
