package analysis

import (
	"math"
	"sort"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/protocol"
)

// Figure2Bubble is one bubble of the peer-location map (paper Figure 2).
type Figure2Bubble struct {
	Location geo.LocationID
	City     string
	Country  geo.CountryCode
	Coord    geo.Coordinates
	Peers    int
}

// ComputeFigure2 counts peers per first-connection location.
func ComputeFigure2(in *Input) []Figure2Bubble {
	first := make(map[id.GUID]geo.LocationID)
	for i := range in.Log.Logins {
		l := &in.Log.Logins[i]
		if _, seen := first[l.GUID]; seen {
			continue
		}
		if rec, ok := in.lookup(l.IP); ok {
			first[l.GUID] = rec.Location
		}
	}
	counts := make(map[geo.LocationID]int)
	for _, loc := range first {
		counts[loc]++
	}
	out := make([]Figure2Bubble, 0, len(counts))
	for locID, n := range counts {
		loc := in.Atlas.Location(locID)
		out = append(out, Figure2Bubble{
			Location: locID, City: loc.City, Country: loc.Country,
			Coord: loc.Coord, Peers: n,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Peers != out[j].Peers {
			return out[i].Peers > out[j].Peers
		}
		return out[i].Location < out[j].Location // ties must not follow map order
	})
	return out
}

// Figure3a is the request CDF by object size for the three download
// classes.
type Figure3a struct {
	InfraOnly    []Point // x: object size in GB, y: CDF %
	All          []Point
	PeerAssisted []Point
	// PctPeerAssistedOver500MB is the §4.4 headline: 82% in the paper.
	PctPeerAssistedOver500MB float64
}

// ComputeFigure3a builds the size CDFs from the download log.
func ComputeFigure3a(in *Input) Figure3a { return TallyInput(in).Figure3a() }

// Figure3b is content popularity: downloads per object, by rank.
type Figure3b struct {
	// Counts[i] is the number of downloads of the rank-(i+1) object.
	Counts []int
}

// ComputeFigure3b ranks objects by download count (paper Figure 3b shows
// the "nearly ubiquitous power law").
func ComputeFigure3b(in *Input) Figure3b { return TallyInput(in).Figure3b() }

// PowerLawSlope fits log(count) ~ alpha*log(rank) over the head of the
// distribution and returns -alpha (≈ the Zipf exponent).
func (f Figure3b) PowerLawSlope() float64 {
	n := len(f.Counts)
	if n > 1000 {
		n = 1000
	}
	if n < 10 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	m := 0
	for i := 0; i < n; i++ {
		if f.Counts[i] <= 0 {
			break
		}
		x := math.Log(float64(i + 1))
		y := math.Log(float64(f.Counts[i]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		m++
	}
	if m < 2 {
		return 0
	}
	fm := float64(m)
	return -(fm*sxy - sx*sy) / (fm*sxx - sx*sx)
}

// Figure3c is bytes served per hour across the trace, in GMT and in the
// requesters' local time.
type Figure3c struct {
	// GMT[h] is bytes served in trace hour h.
	GMT []float64
	// LocalHourOfDay[h] is total bytes attributed to local hour-of-day h
	// (0..23); its peak-to-trough ratio shows the diurnal cycle.
	LocalHourOfDay [24]float64
}

// ComputeFigure3c aggregates served bytes over time.
func ComputeFigure3c(in *Input, days int) Figure3c {
	out := Figure3c{GMT: make([]float64, days*24)}
	for i := range in.Log.Downloads {
		d := &in.Log.Downloads[i]
		h := int(d.StartMs / 3_600_000)
		if h < 0 || h >= len(out.GMT) {
			continue
		}
		bytes := float64(d.TotalBytes())
		out.GMT[h] += bytes
		if rec, ok := in.lookup(d.IP); ok {
			lh := ((h+rec.TZOffset)%24 + 24) % 24
			out.LocalHourOfDay[lh] += bytes
		}
	}
	return out
}

// Figure4 compares download-speed CDFs in the two networks with the most
// downloads: edge-only versus mostly-peer-assisted.
type Figure4 struct {
	ASX Figure4AS
	ASY Figure4AS
}

// Figure4AS is one AS panel.
type Figure4AS struct {
	ASN      geo.ASN
	EdgeOnly []Point // x: Mbps, y: CDF %
	P2PHeavy []Point
	// Medians, for the headline comparison.
	MedianEdgeMbps float64
	MedianP2PMbps  float64
}

// ComputeFigure4 finds the two largest ASes by downloads and builds the
// speed CDFs: "either a) all the bytes came from the edge servers, or b) at
// least 50% of the bytes came from peers" (§5.2).
func ComputeFigure4(in *Input) Figure4 {
	perAS := make(map[geo.ASN]int)
	for i := range in.Log.Downloads {
		if rec, ok := in.lookup(in.Log.Downloads[i].IP); ok {
			perAS[rec.ASN]++
		}
	}
	type kv struct {
		as geo.ASN
		n  int
	}
	var order []kv
	for as, n := range perAS {
		order = append(order, kv{as, n})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].n > order[j].n })
	var out Figure4
	panels := []*Figure4AS{&out.ASX, &out.ASY}
	for pi := range panels {
		if pi >= len(order) {
			break
		}
		panels[pi].ASN = order[pi].as
	}
	xs := LogSpace(0.1, 100, 25)
	for _, panel := range panels {
		var edge, p2p []float64
		for i := range in.Log.Downloads {
			d := &in.Log.Downloads[i]
			if d.Outcome != protocol.OutcomeCompleted || d.TotalBytes() == 0 {
				continue
			}
			rec, ok := in.lookup(d.IP)
			if !ok || rec.ASN != panel.ASN {
				continue
			}
			mbps := d.SpeedBps() / 1e6
			switch {
			case d.BytesPeers == 0:
				edge = append(edge, mbps)
			case float64(d.BytesPeers) >= 0.5*float64(d.TotalBytes()):
				p2p = append(p2p, mbps)
			}
		}
		ec, pc := NewCDF(edge), NewCDF(p2p)
		panel.EdgeOnly = ec.Points(xs)
		panel.P2PHeavy = pc.Points(xs)
		panel.MedianEdgeMbps = ec.Quantile(0.5)
		panel.MedianP2PMbps = pc.Quantile(0.5)
	}
	return out
}

// Figure5 relates registered file copies to average peer efficiency.
type Figure5 struct {
	Buckets []Bucket // X: copies, Mean/P20/P80: efficiency %
}

// ComputeFigure5 counts DN registrations per file and the per-file average
// peer efficiency, bucketed by copy count.
func ComputeFigure5(in *Input) Figure5 {
	copies := make(map[content.ObjectID]int)
	for i := range in.Log.Registrations {
		copies[in.Log.Registrations[i].Object]++
	}
	effSum := make(map[content.ObjectID]float64)
	effN := make(map[content.ObjectID]int)
	for i := range in.Log.Downloads {
		d := &in.Log.Downloads[i]
		if !d.P2PEnabled || d.TotalBytes() == 0 {
			continue
		}
		effSum[d.Object] += 100 * d.PeerEfficiency()
		effN[d.Object]++
	}
	var xs, ys []float64
	maxCopies := 1.0
	for obj, n := range effN {
		c := float64(copies[obj])
		if c < 1 {
			continue
		}
		xs = append(xs, c)
		ys = append(ys, effSum[obj]/float64(n))
		if c > maxCopies {
			maxCopies = c
		}
	}
	return Figure5{Buckets: BucketizeLog(xs, ys, 1, maxCopies+1, 12)}
}

// Figure6 relates the number of peers the control plane initially returned
// to peer efficiency.
type Figure6 struct {
	// ByPeers[k] aggregates downloads whose first query returned k peers.
	ByPeers []Bucket
}

// ComputeFigure6 groups downloads by PeersReturned.
func ComputeFigure6(in *Input) Figure6 {
	groups := make(map[int][]float64)
	maxK := 0
	for i := range in.Log.Downloads {
		d := &in.Log.Downloads[i]
		if !d.P2PEnabled || d.TotalBytes() == 0 {
			continue
		}
		k := d.PeersReturned
		groups[k] = append(groups[k], 100*d.PeerEfficiency())
		if k > maxK {
			maxK = k
		}
	}
	var out []Bucket
	for k := 0; k <= maxK; k++ {
		g := groups[k]
		if len(g) == 0 {
			continue
		}
		out = append(out, Bucket{
			X: float64(k), N: len(g), Mean: Mean(g),
			P20: Percentile(g, 20), P80: Percentile(g, 80),
		})
	}
	return Figure6{ByPeers: out}
}

// SizeClass is a Figure 7 file-size bucket.
type SizeClass int

// Figure 7 size classes.
const (
	SizeUnder10MB SizeClass = iota
	Size10to100MB
	Size100MBto1GB
	SizeOver1GB
	numSizeClasses
)

func (s SizeClass) String() string {
	switch s {
	case SizeUnder10MB:
		return "<10MB"
	case Size10to100MB:
		return "10-100MB"
	case Size100MBto1GB:
		return "100MB-1GB"
	case SizeOver1GB:
		return ">1GB"
	}
	return "?"
}

func classifySize(size int64) SizeClass {
	switch {
	case size < 10e6:
		return SizeUnder10MB
	case size < 100e6:
		return Size10to100MB
	case size < 1e9:
		return Size100MBto1GB
	default:
		return SizeOver1GB
	}
}

// Figure7 is the pause/termination rate per size class, for infra-only,
// peer-assisted, and all downloads.
type Figure7 struct {
	// PauseRatePct[class][0]=infra-only, [1]=peer-assisted, [2]=all.
	PauseRatePct [numSizeClasses][3]float64
	N            [numSizeClasses][3]int
}

// ComputeFigure7 measures how often downloads are aborted/paused and never
// resumed, by size.
func ComputeFigure7(in *Input) Figure7 { return TallyInput(in).Figure7() }

// CountryClass classifies a country by how much of one provider's bytes the
// peers served relative to the infrastructure (paper Figure 8).
type CountryClass int

// Figure 8 classes.
const (
	// InfraDominant: infrastructure served more than the peers.
	InfraDominant CountryClass = iota
	// PeersModerate: peers served 50–100% of what the infrastructure did…
	// i.e. infra serves between 50% and 100% of the peers' volume.
	PeersModerate
	// PeersDominant: infrastructure served less than 50% of the peers'
	// volume.
	PeersDominant
)

func (c CountryClass) String() string {
	switch c {
	case InfraDominant:
		return "infra>peers"
	case PeersModerate:
		return "infra 50-100% of peers"
	case PeersDominant:
		return "infra <50% of peers"
	}
	return "?"
}

// Figure8Country is one country's classification.
type Figure8Country struct {
	Country    geo.CountryCode
	BytesInfra int64
	BytesPeers int64
	Class      CountryClass
}

// Figure8 is the per-country contribution map for one provider.
type Figure8 struct {
	CP        content.CPCode
	Countries []Figure8Country
	ClassN    [3]int
}

// ComputeFigure8 aggregates completed downloads of one p2p-enabled provider
// per country.
func ComputeFigure8(in *Input, cp content.CPCode) Figure8 {
	type agg struct{ infra, peers int64 }
	per := make(map[geo.CountryCode]*agg)
	for i := range in.Log.Downloads {
		d := &in.Log.Downloads[i]
		if d.CP != cp || d.Outcome != protocol.OutcomeCompleted {
			continue
		}
		rec, ok := in.lookup(d.IP)
		if !ok {
			continue
		}
		a := per[rec.Country]
		if a == nil {
			a = &agg{}
			per[rec.Country] = a
		}
		a.infra += d.BytesInfra
		a.peers += d.BytesPeers
	}
	out := Figure8{CP: cp}
	for country, a := range per {
		c := Figure8Country{Country: country, BytesInfra: a.infra, BytesPeers: a.peers}
		switch {
		case a.peers == 0 || a.infra > a.peers:
			c.Class = InfraDominant
		case float64(a.infra) >= 0.5*float64(a.peers):
			c.Class = PeersModerate
		default:
			c.Class = PeersDominant
		}
		out.ClassN[c.Class]++
		out.Countries = append(out.Countries, c)
	}
	sort.Slice(out.Countries, func(i, j int) bool {
		return out.Countries[i].Country < out.Countries[j].Country
	})
	return out
}
