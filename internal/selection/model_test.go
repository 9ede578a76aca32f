package selection

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/nat"
	"netsession/internal/protocol"
)

// refDir is a naive reference model of the directory's semantics, built
// from slices and linear scans only: per object, its registrations
// (tombstones included) and one fairness list per locality set, in the
// order the lists are first created. TestDirectoryMatchesModel runs it in
// lockstep with the real Directory.
type refDir struct {
	objects []*refObject
	owned   bool
}

type refObject struct {
	obj     content.ObjectID
	entries []*refEntry
	lists   []refList
	dead    int
}

type refEntry struct {
	e      Entry
	listed [4]geo.SetKey
	dead   bool
}

type refList struct {
	key   geo.SetKey
	guids []id.GUID
}

func (m *refDir) object(obj content.ObjectID) (int, *refObject) {
	for i, o := range m.objects {
		if o.obj == obj {
			return i, o
		}
	}
	return -1, nil
}

func (o *refObject) entry(g id.GUID) *refEntry {
	for _, re := range o.entries {
		if re.e.Info.GUID == g {
			return re
		}
	}
	return nil
}

func (o *refObject) list(key geo.SetKey) *refList {
	for i := range o.lists {
		if o.lists[i].key == key {
			return &o.lists[i]
		}
	}
	return nil
}

func (o *refObject) appendTo(key geo.SetKey, g id.GUID) {
	l := o.list(key)
	if l == nil {
		o.lists = append(o.lists, refList{key: key})
		l = &o.lists[len(o.lists)-1]
	}
	l.guids = append(l.guids, g)
}

func (o *refObject) live() int { return len(o.entries) - o.dead }

func (m *refDir) register(obj content.ObjectID, e Entry) {
	_, o := m.object(obj)
	if o == nil {
		o = &refObject{obj: obj}
		m.objects = append(m.objects, o)
	}
	g := e.Info.GUID
	sets := geo.SetsFor(e.Rec)
	re := o.entry(g)
	if re == nil {
		re = &refEntry{listed: sets}
		o.entries = append(o.entries, re)
		for _, key := range sets {
			o.appendTo(key, g)
		}
	} else if re.dead {
		re.dead = false
		o.dead--
	}
	if re.listed != sets {
		for _, key := range re.listed {
			if l := o.list(key); l != nil {
				for i, x := range l.guids {
					if x == g {
						l.guids = append(l.guids[:i], l.guids[i+1:]...)
						break
					}
				}
			}
		}
		for _, key := range sets {
			o.appendTo(key, g)
		}
		re.listed = sets
	}
	re.e = e
}

func (m *refDir) unregister(obj content.ObjectID, g id.GUID) {
	i, o := m.object(obj)
	if o == nil {
		return
	}
	re := o.entry(g)
	if re == nil || re.dead {
		return
	}
	re.dead = true
	o.dead++
	switch live := o.live(); {
	case live == 0:
		m.objects = append(m.objects[:i], m.objects[i+1:]...)
	case o.dead > live:
		var lists []refList
		for _, l := range o.lists {
			var keep []id.GUID
			for _, x := range l.guids {
				if xe := o.entry(x); xe != nil && !xe.dead {
					keep = append(keep, x)
				}
			}
			if len(keep) > 0 {
				lists = append(lists, refList{key: l.key, guids: keep})
			}
		}
		var entries []*refEntry
		for _, xe := range o.entries {
			if !xe.dead {
				entries = append(entries, xe)
			}
		}
		o.lists, o.entries, o.dead = lists, entries, 0
	}
}

func (m *refDir) dropPeer(g id.GUID) {
	objs := make([]content.ObjectID, len(m.objects))
	for i, o := range m.objects {
		objs[i] = o.obj
	}
	for _, obj := range objs {
		m.unregister(obj, g)
	}
}

// candidates returns the live registrations on a set's list, in order.
func (o *refObject) candidates(key geo.SetKey) []protocol.PeerInfo {
	var out []protocol.PeerInfo
	if l := o.list(key); l != nil {
		for _, g := range l.guids {
			if re := o.entry(g); re != nil && !re.dead {
				out = append(out, re.e.Info)
			}
		}
	}
	return out
}

func (m *refDir) selectPeers(p Policy, q Query) []protocol.PeerInfo {
	max := p.MaxPeers
	if q.Max > 0 && q.Max < max {
		max = q.Max
	}
	if max <= 0 || !m.owned {
		return nil
	}
	_, o := m.object(q.Object)
	if o == nil {
		o = &refObject{}
	}
	sets := geo.SetsFor(q.Requester)
	var out []protocol.PeerInfo
	usable := func(c protocol.PeerInfo) bool {
		return c.GUID != q.RequesterGUID && (!p.RequireNATCompat || nat.CanConnect(q.RequesterNAT, c.NAT))
	}
	if !p.LocalityAware {
		list := o.candidates(sets[3])
		q.Rand.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		for _, c := range list {
			if usable(c) && len(out) < max {
				out = append(out, c)
			}
		}
		return out
	}
	var cands [4][]protocol.PeerInfo
	for li, key := range sets {
		cands[li] = o.candidates(key)
	}
	type taken struct {
		level int
		g     id.GUID
	}
	var rots []taken
	take := func(c protocol.PeerInfo, level int) bool {
		if !usable(c) {
			return false
		}
		for _, x := range out {
			if x.GUID == c.GUID {
				return false
			}
		}
		out = append(out, c)
		rots = append(rots, taken{level, c.GUID})
		return true
	}
	for li := range sets {
		for _, c := range cands[li] {
			if len(out) >= max {
				break
			}
			if !take(c, li) {
				continue
			}
			for wi := li + 1; wi < len(sets) && len(out) < max; wi++ {
				if q.Rand.Float64() < p.DiversityProb*sets[wi].Level.Specificity() {
					for _, w := range cands[wi] {
						if take(w, wi) {
							break
						}
					}
				}
			}
		}
	}
	for _, r := range rots {
		if l := o.list(sets[r.level]); l != nil {
			for i, x := range l.guids {
				if x == r.g {
					l.guids = append(append(l.guids[:i:i], l.guids[i+1:]...), x)
					break
				}
			}
		}
	}
	return out
}

// modelWorld is a small geography with colliding ASes and countries, plus
// the zero record the live control plane falls back to.
func modelWorld(t *testing.T) []geo.Record {
	t.Helper()
	atlas := geo.GenerateAtlas(geo.DefaultAtlasConfig())
	scape := geo.NewEdgeScape(atlas)
	recs := []geo.Record{{}}
	for _, code := range []geo.CountryCode{"US", "DE", "FR"} {
		c, ok := atlas.Country(code)
		if !ok {
			t.Fatalf("atlas has no %s", code)
		}
		for _, asn := range c.ASNs[:2] {
			for _, loc := range c.Locations[:2] {
				ip, err := scape.AllocateIP(asn, loc)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, scape.MustLookup(ip))
			}
		}
	}
	return recs
}

// TestDirectoryMatchesModel runs seeded random sequences of Register (geo
// moves included), Unregister, DropPeer, Select, Clear and SetOwned against
// the Directory and the reference model in lockstep. After every step the
// two must agree on each object's registrations, tombstones and fairness
// lists, and every Select must return the same peers in the same order:
// fairness rotation, tombstones, compaction and locality order all show.
func TestDirectoryMatchesModel(t *testing.T) {
	recs := modelWorld(t)
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			if err := runModel(seed, recs, 1000); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

func runModel(seed int64, recs []geo.Record, steps int) error {
	r := rand.New(rand.NewSource(seed))
	dir := NewDirectory(0)
	ref := &refDir{owned: true}
	objs := make([]content.ObjectID, 3)
	for i := range objs {
		objs[i] = content.NewObjectID(1, "model", uint32(i))
	}
	peers := make([]Entry, 24)
	for i := range peers {
		rec := recs[r.Intn(len(recs))]
		peers[i] = Entry{Info: protocol.PeerInfo{
			GUID: id.RandGUID(r), Addr: fmt.Sprintf("p%d:1", i),
			NAT: protocol.NATClass(r.Intn(5)), ASN: uint32(rec.ASN),
		}, Rec: rec, Complete: true}
	}
	for step := 0; step < steps; step++ {
		obj := objs[r.Intn(len(objs))]
		pi := r.Intn(len(peers))
		var op string
		switch k := r.Intn(100); {
		case k < 40:
			op = "register"
			if r.Intn(5) == 0 { // a geo move
				rec := recs[r.Intn(len(recs))]
				peers[pi].Rec, peers[pi].Info.ASN = rec, uint32(rec.ASN)
			}
			peers[pi].Complete = r.Intn(2) == 0
			dir.Register(obj, peers[pi])
			ref.register(obj, peers[pi])
		case k < 58:
			op = "unregister"
			dir.Unregister(obj, peers[pi].Info.GUID)
			ref.unregister(obj, peers[pi].Info.GUID)
		case k < 66:
			op = "drop"
			dir.DropPeer(peers[pi].Info.GUID)
			ref.dropPeer(peers[pi].Info.GUID)
		case k < 97:
			op = "select"
			pol := DefaultPolicy()
			pol.DiversityProb = []float64{0, 0.1, 1}[r.Intn(3)]
			pol.RequireNATCompat = r.Intn(4) != 0
			pol.LocalityAware = r.Intn(6) != 0
			q := Query{
				Object: obj, Requester: recs[r.Intn(len(recs))],
				RequesterNAT: protocol.NATClass(r.Intn(5)), Max: r.Intn(12),
			}
			if r.Intn(3) == 0 {
				q.RequesterGUID = peers[pi].Info.GUID
			}
			qseed := r.Int63()
			q.Rand = rand.New(rand.NewSource(qseed))
			got := dir.Select(pol, q)
			q.Rand = rand.New(rand.NewSource(qseed))
			want := ref.selectPeers(pol, q)
			if !slices.Equal(got, want) {
				return fmt.Errorf("step %d select: got %v, want %v", step, guids(got), guids(want))
			}
		case k < 98:
			op = "clear"
			dir.Clear()
			ref.objects = nil
		default:
			op = "owned"
			owned := r.Intn(3) != 0
			dir.SetOwned(owned)
			ref.owned = owned
		}
		if err := sameState(dir, ref); err != nil {
			return fmt.Errorf("step %d after %s: %v", step, op, err)
		}
	}
	return nil
}

func guids(ps []protocol.PeerInfo) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.GUID.Short()
	}
	return out
}

// sameState compares the directory's internals with the model's: objects,
// registrations with their tombstones, each set's fairness list in order,
// each peer's live registrations, and the public counters.
func sameState(d *Directory, m *refDir) error {
	if len(d.objects) != len(m.objects) || d.Objects() != len(m.objects) {
		return fmt.Errorf("%d objects, model has %d", len(d.objects), len(m.objects))
	}
	live := make(map[id.GUID]int)
	for _, o := range m.objects {
		oe := d.objects[o.obj]
		if oe == nil {
			return fmt.Errorf("object %v missing", o.obj)
		}
		if oe.id != o.obj || oe.dead != o.dead || len(oe.entries) != len(o.entries) || d.Copies(o.obj) != o.live() {
			return fmt.Errorf("object %v: %d entries, %d dead; model %d, %d", o.obj, len(oe.entries), oe.dead, len(o.entries), o.dead)
		}
		for _, re := range o.entries {
			de := oe.entries[re.e.Info.GUID]
			if de == nil || de.dead != re.dead || de.e != re.e || de.listed != re.listed || de.oe != oe {
				return fmt.Errorf("object %v: registration of %v differs", o.obj, re.e.Info.GUID.Short())
			}
			if !re.dead {
				live[re.e.Info.GUID]++
			}
		}
		if len(oe.lists) != len(o.lists) || len(oe.index) != len(o.lists) {
			return fmt.Errorf("object %v: %d lists, model has %d", o.obj, len(oe.lists), len(o.lists))
		}
		for _, l := range o.lists {
			if got := oe.list(l.key); !slices.Equal(got, l.guids) {
				return fmt.Errorf("object %v: list %v is %d GUIDs, model %d, or in another order", o.obj, l.key, len(got), len(l.guids))
			}
		}
	}
	if len(d.peerObjects) != len(live) {
		return fmt.Errorf("%d peers with registrations, model has %d", len(d.peerObjects), len(live))
	}
	for g, n := range live {
		list := d.peerObjects[g]
		if len(list) != n {
			return fmt.Errorf("peer %v lists %d registrations, model has %d", g.Short(), len(list), n)
		}
		for _, de := range list {
			if de.dead || de.e.Info.GUID != g || d.objects[de.oe.id] != de.oe {
				return fmt.Errorf("peer %v lists a dead or foreign registration", g.Short())
			}
		}
	}
	n := 0
	for _, c := range live {
		n += c
	}
	if exp := d.Export(); len(exp) != n {
		return fmt.Errorf("Export lists %d registrations, model has %d live", len(exp), n)
	}
	return nil
}
