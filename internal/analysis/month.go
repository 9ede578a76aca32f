package analysis

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"sync"

	"netsession/internal/accounting"
	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/protocol"
	"netsession/internal/trace"
)

// Source is a month of records as two independent streams, which Analyze
// folds concurrently:
//   - ReplayLogins hands every login to add. Each installation's logins
//     arrive in time order; different installations' logins may arrive in
//     any order relative to each other.
//   - ReplayDownloads hands every download to addDownload, then every
//     registration to addRegistration.
//
// A callback must not keep a record pointer past the call: a streamed
// source reuses the record.
type Source interface {
	ReplayLogins(add func(*accounting.LoginRecord))
	ReplayDownloads(addDownload func(*accounting.DownloadRecord), addRegistration func(*accounting.RegistrationRecord))
}

// Input bundles everything the analyses read: the month's records plus the
// geography and population context (the paper's analyses likewise join the
// control-plane logs with EdgeScape data, §4.1).
type Input struct {
	// Records replays the month into the fold: an *accounting.Log, or a
	// simulator result that generates its logins as it replays them.
	Records Source
	Pop     *trace.Population
	Catalog *trace.Catalog
	Atlas   *geo.Atlas
	Scape   *geo.EdgeScape
	// ControlPlaneServers is reported in Table 1 (197 in the paper); the
	// simulator models one DN per region.
	ControlPlaneServers int
}

// Month is one analysed month: a fold over its login, download and
// registration records, one at a time, keeping what every table, figure and
// headline of the evaluation groups or sums. The views — Table1 … Figure12,
// ASTraffic, Mobility, Headlines and Report — read this state, never the
// records.
type Month struct {
	in        *Input
	traceDays int

	logins, downloads, registrations int // records folded

	// Tally is the download fold the offline analyzer and /v1/analytics share;
	// Figures 3a, 3b and 7, the streaming figure and the download headlines
	// are its views. Every download record reaches it converted exactly as
	// the log exporters convert it.
	Tally *Tally

	// installs is the one record per installation, keyed by GUID. The
	// download fold only collects its GUIDs in downloaders, and Finish gives
	// each one the login log does not name an empty record.
	installs    map[id.GUID]*install
	downloaders map[id.GUID]struct{}
	// places resolves each distinct logged IP once, so it holds every IP
	// the records name.
	places *placeSet
	srcs   []*place // a download's contributor places, reused across records

	regionDownloads map[cpRegion]int                  // resolved downloads (Table 2)
	f3c             Figure3c                          // bytes served per hour
	perAS           map[geo.ASN]*asDownloads          // by downloader AS (Figure 4)
	objects         map[content.ObjectID]*objectTally // by object (Figure 5)
	byPeers         map[int][]float64                 // efficiency % by peers returned (Figure 6)
	countryBytes    map[cpCountry][2]int64            // completed infra, peer bytes (Figure 8)
	ast             *ASTraffic
}

// install is what the login walk keeps per installation.
type install struct {
	// logins is 0 for a GUID seen only in the download log.
	logins          int
	firstUp, lastUp bool // upload setting at the first and last login
	changes         int  // setting changes between consecutive logins
	// located: some login's IP resolved; firstLoc is the first such login's
	// location, ases and coords the distinct ASes and coordinates of all.
	located  bool
	firstLoc geo.LocationID
	ases     []geo.ASN
	coords   []geo.Coordinates
	graph    secGraph
}

// place is one logged IP, resolved through EdgeScape.
type place struct {
	rec geo.Record
	tag GeoTag
	ok  bool // EdgeScape knows the IP
	// peer: a resolved downloader that received bytes from peers, or a
	// resolved uploader to one (Figure 9c).
	peer bool
}

type cpRegion struct {
	cp     content.CPCode
	region geo.ReportRegion
}

type cpCountry struct {
	cp      content.CPCode
	country geo.CountryCode
}

type asDownloads struct {
	n     int
	speed [2][]float64 // Mbps by §5.2 speed class, indexed like Tally.speed
}

type objectTally struct {
	copies int     // DN registrations
	effSum float64 // peer efficiency %, over p2p downloads with bytes
	effN   int
}

// Analyze folds the month in.Records replays and returns the state every
// view reads. traceDays sets the length of Figure 3c's hourly series and the
// login-churn headline.
//
// The two streams share no fold state but installs and places, so they are
// folded on two goroutines into two months that share one placeSet, and the
// login month's installs are merged into the download month once before
// Finish.
func Analyze(in *Input, traceDays int) *Month {
	m := NewMonth(in, traceDays)
	logins := NewMonth(in, traceDays)
	logins.places = m.places
	done := make(chan struct{})
	go func() {
		defer close(done)
		in.Records.ReplayLogins(logins.AddLogin)
	}()
	in.Records.ReplayDownloads(m.AddDownload, m.AddRegistration)
	<-done
	m.merge(logins)
	m.Finish()
	return m
}

// merge takes the login fold l into m, a fold of downloads and
// registrations only that shares l's places. AddLogin writes nothing but
// logins, installs and places, and AddDownload writes no installs, so m
// takes l's installs whole; Finish then adds the download-only GUIDs. l is
// consumed.
func (m *Month) merge(l *Month) {
	m.logins += l.logins
	m.installs = l.installs
}

// NewMonth returns an empty fold over in's world; in.Records is not read.
// Feed it with AddLogin, AddDownload and AddRegistration, then call Finish
// once before reading any view.
func NewMonth(in *Input, traceDays int) *Month {
	m := &Month{
		in: in, traceDays: traceDays,
		Tally:           NewTally(),
		installs:        make(map[id.GUID]*install),
		downloaders:     make(map[id.GUID]struct{}),
		places:          newPlaceSet(in.Scape),
		regionDownloads: make(map[cpRegion]int),
		f3c:             Figure3c{GMT: make([]float64, traceDays*24)},
		perAS:           make(map[geo.ASN]*asDownloads),
		objects:         make(map[content.ObjectID]*objectTally),
		byPeers:         make(map[int][]float64),
		countryBytes:    make(map[cpCountry][2]int64),
		ast: &ASTraffic{
			Up:    make(map[geo.ASN]int64),
			Down:  make(map[geo.ASN]int64),
			Pair:  make(map[geo.ASN]map[geo.ASN]int64),
			IPs:   make(map[geo.ASN]int),
			Heavy: make(map[geo.ASN]bool),
		},
	}
	return m
}

// Finish completes the fold after its last record: an empty install for
// each downloader that never logged in, the per-AS peer IP counts and the
// heavy-uploader cut.
func (m *Month) Finish() {
	for g := range m.downloaders {
		m.install(g)
	}
	m.downloaders = nil
	m.places.each(func(p *place) {
		if p.peer {
			m.ast.IPs[p.rec.ASN]++
		}
	})
	m.ast.ASesWithPeers = len(m.ast.IPs)
	heavy, _, _ := heavyCut(m.ast.Up)
	for _, as := range heavy {
		m.ast.Heavy[as] = true
	}
}

// A placeSet stripes its addresses over 1<<placeShardBits locks.
const placeShardBits = 6

// placeSet resolves each distinct valid logged IP through EdgeScape once
// and keeps it. Analyze's two folds share one, so it is locked, and the
// lock is striped by address: behind one mutex, Analyze on the default
// month took 0.71–0.77 s where two unshared folds took 0.50–0.58 s (2 CPUs).
// A place's resolution never changes after get returns it; only the
// download fold writes its peer flag.
type placeSet struct {
	scape  *geo.EdgeScape
	shards [1 << placeShardBits]struct {
		mu sync.Mutex
		m  map[netip.Addr]*place
		_  [48]byte // one shard per cache line
	}
}

func newPlaceSet(scape *geo.EdgeScape) *placeSet {
	s := &placeSet{scape: scape}
	for i := range s.shards {
		s.shards[i].m = make(map[netip.Addr]*place)
	}
	return s
}

// get resolves ip, once per distinct valid address.
func (s *placeSet) get(ip netip.Addr) *place {
	// A multiplicative hash mixes upward, so the shard is its top bits.
	a := ip.As16()
	h := (binary.LittleEndian.Uint64(a[:8]) ^ binary.LittleEndian.Uint64(a[8:])) * 0x9e3779b97f4a7c15
	sh := &s.shards[h>>(64-placeShardBits)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p := sh.m[ip]; p != nil {
		return p
	}
	p := &place{}
	if s.scape != nil {
		p.rec, p.ok = s.scape.Lookup(ip)
	}
	if p.ok {
		p.tag = tagOf(p.rec)
	}
	if ip.IsValid() {
		sh.m[ip] = p
	}
	return p
}

// each calls fn on every place; no fold may run concurrently.
func (s *placeSet) each(fn func(*place)) {
	for i := range s.shards {
		for _, p := range s.shards[i].m {
			fn(p)
		}
	}
}

// len returns the number of distinct valid addresses resolved.
func (s *placeSet) len() int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].m)
	}
	return n
}

func (m *Month) install(g id.GUID) *install {
	inst := m.installs[g]
	if inst == nil {
		inst = &install{}
		m.installs[g] = inst
	}
	return inst
}

func (m *Month) object(o content.ObjectID) *objectTally {
	t := m.objects[o]
	if t == nil {
		t = &objectTally{}
		m.objects[o] = t
	}
	return t
}

// AddLogin folds one login. The per-installation state needs each
// installation's logins in time order and nothing more, so logins of
// different installations may arrive in any order.
func (m *Month) AddLogin(l *accounting.LoginRecord) {
	m.logins++
	inst := m.install(l.GUID)
	if inst.logins == 0 {
		inst.firstUp = l.UploadsEnabled
	} else if l.UploadsEnabled != inst.lastUp {
		inst.changes++
	}
	inst.lastUp = l.UploadsEnabled
	inst.logins++
	if p := m.places.get(l.IP); p.ok {
		if !inst.located {
			inst.located, inst.firstLoc = true, p.rec.Location
		}
		inst.ases = appendNew(inst.ases, p.rec.ASN)
		inst.coords = appendNew(inst.coords, p.rec.Coord)
	}
	inst.graph.add(&l.Secondaries)
}

func appendNew[T comparable](s []T, v T) []T {
	if slices.Contains(s, v) {
		return s
	}
	return append(s, v)
}

// AddRegistration folds one DN registration: a new copy of its object.
func (m *Month) AddRegistration(r *accounting.RegistrationRecord) {
	m.registrations++
	m.object(r.Object).copies++
}

// AddDownload folds one download record, converted for the Tally exactly as
// the log exporters convert it. Each of its IPs is resolved once.
func (m *Month) AddDownload(d *accounting.DownloadRecord) {
	m.downloads++
	dst := m.places.get(d.IP)
	off := offlineDownload(d, dst.tag)
	srcs := m.srcs[:0]
	for i := range d.FromPeers {
		pc := &d.FromPeers[i]
		src := m.places.get(pc.IP)
		srcs = append(srcs, src)
		off.FromPeers = append(off.FromPeers, offlineContribution(pc, src.tag))
	}
	m.srcs = srcs
	m.Tally.Add(&off)
	m.downloaders[d.GUID] = struct{}{}

	total := d.TotalBytes()
	if d.P2PEnabled && total > 0 {
		eff := 100 * d.PeerEfficiency()
		o := m.object(d.Object)
		o.effSum += eff
		o.effN++
		m.byPeers[d.PeersReturned] = append(m.byPeers[d.PeersReturned], eff)
	}
	h := int(d.StartMs / 3_600_000)
	inTrace := h >= 0 && h < len(m.f3c.GMT)
	if inTrace {
		m.f3c.GMT[h] += float64(total)
	}

	if !dst.ok {
		return
	}
	if inTrace {
		m.f3c.LocalHourOfDay[((h+dst.rec.TZOffset)%24+24)%24] += float64(total)
	}
	region := geo.ReportRegionOf(m.in.Atlas.Location(dst.rec.Location))
	m.regionDownloads[cpRegion{d.CP, region}]++
	as := m.perAS[dst.rec.ASN]
	if as == nil {
		as = &asDownloads{}
		m.perAS[dst.rec.ASN] = as
	}
	as.n++
	if mbps, c, ok := speedClass(&off); ok {
		as.speed[c] = append(as.speed[c], mbps)
	}
	if d.Outcome == protocol.OutcomeCompleted {
		k := cpCountry{d.CP, dst.rec.Country}
		b := m.countryBytes[k]
		m.countryBytes[k] = [2]int64{b[0] + d.BytesInfra, b[1] + d.BytesPeers}
	}

	// A place is shared with the login fold, which reads it from the other
	// core: set the flag once rather than store to its line on every record.
	if len(d.FromPeers) > 0 && !dst.peer {
		dst.peer = true
	}
	for i, src := range srcs {
		if src.ok {
			if !src.peer {
				src.peer = true
			}
			m.ast.add(src.rec.ASN, dst.rec.ASN, d.FromPeers[i].Bytes)
		}
	}
}
