package analysis

import (
	"net/netip"
	"slices"

	"netsession/internal/accounting"
	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/protocol"
	"netsession/internal/trace"
)

// Source is a month of records that replays itself into a sink (a Month):
// every login, then every download, then every registration. Each
// installation's logins arrive in time order; different installations'
// logins may arrive in any order relative to each other.
type Source interface {
	Replay(accounting.Sink)
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

	// installs is the one record per installation, keyed by the GUIDs of the
	// login and download logs.
	installs map[id.GUID]*install
	// places resolves each distinct logged IP once; lookup converts a
	// download's IPs through it, so places holds every IP the records name.
	places map[netip.Addr]*place
	lookup GeoLookup

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
func Analyze(in *Input, traceDays int) *Month {
	m := NewMonth(in, traceDays)
	in.Records.Replay(m)
	m.Finish()
	return m
}

// NewMonth returns an empty fold over in's world; in.Records is not read.
// Feed it with AddLogin, AddDownload and AddRegistration, then call Finish
// once before reading any view.
func NewMonth(in *Input, traceDays int) *Month {
	m := &Month{
		in: in, traceDays: traceDays,
		Tally:           NewTally(),
		installs:        make(map[id.GUID]*install),
		places:          make(map[netip.Addr]*place),
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
	m.lookup = func(ip netip.Addr) GeoTag { return m.place(ip).tag }
	return m
}

// Finish completes the fold after its last record: the per-AS peer IP
// counts and the heavy-uploader cut.
func (m *Month) Finish() {
	for _, p := range m.places {
		if p.peer {
			m.ast.IPs[p.rec.ASN]++
		}
	}
	m.ast.ASesWithPeers = len(m.ast.IPs)
	heavy, _, _ := heavyCut(m.ast.Up)
	for _, as := range heavy {
		m.ast.Heavy[as] = true
	}
}

// place resolves ip, once per distinct valid address.
func (m *Month) place(ip netip.Addr) *place {
	if p := m.places[ip]; p != nil {
		return p
	}
	p := &place{}
	if m.in.Scape != nil {
		p.rec, p.ok = m.in.Scape.Lookup(ip)
	}
	if p.ok {
		p.tag = tagOf(p.rec)
	}
	if ip.IsValid() {
		m.places[ip] = p
	}
	return p
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
	if p := m.place(l.IP); p.ok {
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
// the log exporters convert it.
func (m *Month) AddDownload(d *accounting.DownloadRecord) {
	m.downloads++
	off := OfflineFromRecord(d, m.lookup)
	m.Tally.Add(&off)
	m.install(d.GUID)

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

	dst := m.place(d.IP)
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

	if len(d.FromPeers) > 0 {
		dst.peer = true
	}
	for i := range d.FromPeers {
		pc := &d.FromPeers[i]
		if src := m.place(pc.IP); src.ok {
			src.peer = true
			m.ast.add(src.rec.ASN, dst.rec.ASN, pc.Bytes)
		}
	}
}
