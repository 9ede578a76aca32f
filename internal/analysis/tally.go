package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Tally is the one fold over download records. Every download-derived
// quantity in the repo — the offline summary, the live /v1/analytics
// document, Figures 3a/3b/7, the streaming figure, the per-region table and
// the download part of the headlines — is a view of this state, so the
// definitions cannot drift apart.
//
// All byte and count state is int64. What differs between the offline
// analyzer and the control plane's live pass is fixed at construction:
//
//   - NewTally keeps exact GUID/URL sets plus the order-statistic samples
//     (a count per URL for the popularity ranking, one float per completed
//     download for the speed medians, one startup delay per stream) and the
//     count of stalled streams. State grows with the distinct GUIDs/URLs/ASes
//     and the completed downloads, never with record bytes.
//   - The sketched tally behind NewStreamingSummarizer tracks GUIDs and URLs
//     with HyperLogLog and keeps none of the exact-only state, so its memory
//     is bounded by the geography alone; medians, startup percentiles,
//     popularity head and Zipf fit read as empty.
//
// A Tally is not safe for concurrent use; ShardedTally is the concurrent
// front.
type Tally struct {
	exact     bool
	downloads int64

	// Per download class, indexed classInfra/classP2P.
	n, done, aborted, failedSys [2]int64
	sizes                       [2]sizeHist
	// Figure 7 tallies by size class and download class.
	sizeClassN, sizeClassAborted [numSizeClasses][2]int64
	// p2pLE05 counts peer-assisted requests of <= 0.5 GB, the complement of
	// the §4.4 ">500MB" headline (0.5 GB is not a CDF edge).
	p2pLE05 int64

	bytesInfra, bytesPeers       int64
	bytesP2PFiles, bytesPeersP2P int64
	// effSum is the only float accumulated per record: the sum of
	// per-download peer efficiencies, (100*peers)/total.
	effSum float64
	effN   int64

	intraAS, interAS int64
	perASUp          map[uint32]int64
	stream           streamSums

	countries   map[string]struct{}
	ases        map[uint32]struct{}
	regions     map[string]*regionTally
	matrix      map[string]map[string]int64 // uploader region -> downloader region -> bytes
	guids, urls distinct

	// Exact tallies only: one Mbps sample per completed download in a §5.2
	// speed class, indexed classInfra (edge-only) / classP2P (>=50% peers);
	// one startup delay per stream and the streams that stalled at least
	// once, for the streaming figure.
	speed    [2][]float64
	startups []int64
	stalled  int64
}

const (
	classInfra = 0
	classP2P   = 1
)

// RegionUnknown is the bucket for records without a region annotation
// (segments written before the region field existed, or IPs EdgeScape could
// not resolve).
const RegionUnknown = "unknown"

type regionTally struct {
	downloads, bytesInfra, bytesPeers, bytesUploaded int64
}

// streamSums are the streaming-delivery tallies over records that carry a
// stream sub-record.
type streamSums struct {
	n, startupMs, rebuffers, rebufferMs, misses, played, rescueBytes int64
}

func (s *streamSums) add(o streamSums) {
	s.n += o.n
	s.startupMs += o.startupMs
	s.rebuffers += o.rebuffers
	s.rebufferMs += o.rebufferMs
	s.misses += o.misses
	s.played += o.played
	s.rescueBytes += o.rescueBytes
}

// sizeEdges are the 25 log-spaced object sizes (GB) Figure 3a is drawn at.
var sizeEdges = LogSpace(0.01, 10, 25)

// sizeHist counts object sizes per Figure 3a edge. The figure is evaluated
// only at sizeEdges, so instead of retaining every sample a value v bumps
// the bucket of the smallest edge >= v (v <= edges[k] ⟺ bucket(v) <= k) and
// the CDF at edge k is a prefix sum over the total. That is integer
// arithmetic over the same multiset a sort-based CDF ranks, so the points
// are bit-identical to NewCDF(...).Points(sizeEdges), not approximate.
type sizeHist struct {
	le   [25]int64
	over int64 // above the last edge
}

func (h *sizeHist) add(o *sizeHist) {
	for i := range h.le {
		h.le[i] += o.le[i]
	}
	h.over += o.over
}

func (h *sizeHist) points() []Point {
	total := h.over
	for _, b := range h.le {
		total += b
	}
	out := make([]Point, len(sizeEdges))
	var cum int64
	for i, x := range sizeEdges {
		cum += h.le[i]
		y := 0.0
		if total > 0 {
			// Grouped exactly like 100*CDF.FractionBelow.
			y = 100 * (float64(cum) / float64(total))
		}
		out[i] = Point{X: x, Y: y}
	}
	return out
}

// distinct counts distinct strings: exactly for the offline pass, by sketch
// for the bounded live pass. Both sides of a union come from the same
// constructor.
type distinct interface {
	Add(s string)
	union(o distinct)
	Estimate() float64
	// Bytes is the mergeable wire form; nil for an exact set, which is
	// never shipped.
	Bytes() []byte
}

type exactSet map[string]struct{}

func (e exactSet) Add(s string) { e[s] = struct{}{} }
func (e exactSet) union(o distinct) {
	for k := range o.(exactSet) {
		e[k] = struct{}{}
	}
}
func (e exactSet) Estimate() float64 { return float64(len(e)) }
func (e exactSet) Bytes() []byte     { return nil }

// countSet is an exact set that also counts occurrences: the per-URL
// download counts of Figure 3b double as the distinct-URL set.
type countSet map[string]int

func (e countSet) Add(s string) { e[s]++ }
func (e countSet) union(o distinct) {
	for k, n := range o.(countSet) {
		e[k] += n
	}
}
func (e countSet) Estimate() float64 { return float64(len(e)) }
func (e countSet) Bytes() []byte     { return nil }

func (h *HLL) union(o distinct) { h.Merge(o.(*HLL)) }

func newDistinct(exact bool) distinct {
	if exact {
		return exactSet{}
	}
	return NewHLL()
}

// NewTally creates an empty exact tally: the offline analyzer's state.
func NewTally() *Tally { return newTally(true) }

func newTally(exact bool) *Tally {
	t := &Tally{
		exact:     exact,
		perASUp:   map[uint32]int64{},
		countries: map[string]struct{}{},
		ases:      map[uint32]struct{}{},
		regions:   map[string]*regionTally{},
		matrix:    map[string]map[string]int64{},
		guids:     newDistinct(exact),
	}
	if exact {
		t.urls = countSet{}
	} else {
		t.urls = NewHLL()
	}
	return t
}

func (t *Tally) region(name string) *regionTally {
	r := t.regions[name]
	if r == nil {
		r = &regionTally{}
		t.regions[name] = r
	}
	return r
}

func regionName(s string) string {
	if s == "" {
		return RegionUnknown
	}
	return s
}

// Add folds one download record in.
func (t *Tally) Add(d *OfflineDownload) {
	t.downloads++
	t.guids.Add(d.GUID)
	t.urls.Add(d.URLHash)
	t.countries[d.Country] = struct{}{}
	t.ases[d.ASN] = struct{}{}

	c := classInfra
	total := d.BytesInfra + d.BytesPeers
	t.bytesInfra += d.BytesInfra
	t.bytesPeers += d.BytesPeers
	if d.P2PEnabled {
		c = classP2P
		t.bytesP2PFiles += total
		t.bytesPeersP2P += d.BytesPeers
		if total > 0 {
			t.effSum += 100 * float64(d.BytesPeers) / float64(total)
			t.effN++
		}
	}
	t.n[c]++

	gb := float64(d.Size) / 1e9
	if k := sort.SearchFloat64s(sizeEdges, gb); k < len(sizeEdges) {
		t.sizes[c].le[k]++
	} else {
		t.sizes[c].over++
	}
	if d.P2PEnabled && gb <= 0.5 {
		t.p2pLE05++
	}
	sc := classifySize(d.Size)
	t.sizeClassN[sc][c]++

	switch d.Outcome {
	case "completed":
		t.done[c]++
	case "aborted":
		t.aborted[c]++
		t.sizeClassAborted[sc][c]++
	case "failed-system":
		t.failedSys[c]++
	}
	if mbps, k, ok := speedClass(d); ok && t.exact {
		t.speed[k] = append(t.speed[k], mbps)
	}

	if st := d.Stream; st != nil {
		t.stream.add(streamSums{1, st.StartupDelayMs, st.RebufferCount, st.RebufferMs,
			st.DeadlineMisses, st.PiecesPlayed, st.EdgeRescueBytes})
		if t.exact {
			t.startups = append(t.startups, st.StartupDelayMs)
			if st.RebufferCount > 0 {
				t.stalled++
			}
		}
	}

	to := regionName(d.Region)
	reg := t.region(to)
	reg.downloads++
	reg.bytesInfra += d.BytesInfra
	reg.bytesPeers += d.BytesPeers
	for i := range d.FromPeers {
		pc := &d.FromPeers[i]
		if pc.ASN == d.ASN {
			t.intraAS += pc.Bytes
		} else {
			t.interAS += pc.Bytes
			t.perASUp[pc.ASN] += pc.Bytes
		}
		from := regionName(pc.Region)
		t.region(from).bytesUploaded += pc.Bytes
		row := t.matrix[from]
		if row == nil {
			row = map[string]int64{}
			t.matrix[from] = row
		}
		row[to] += pc.Bytes
	}
}

// speedClass is the §5.2 speed rule of Figure 4 and the speed medians: a
// completed download whose bytes all came from the edge (classInfra) or at
// least half from peers (classP2P), at its average Mbps over its whole
// length. Downloads in neither class, and those without bytes or duration,
// give no sample.
func speedClass(d *OfflineDownload) (mbps float64, class int, ok bool) {
	total, dur := d.BytesInfra+d.BytesPeers, d.EndMs-d.StartMs
	if d.Outcome != "completed" || total <= 0 || dur <= 0 {
		return 0, 0, false
	}
	mbps = float64(total) * 8 * 1000 / float64(dur) / 1e6
	switch {
	case d.BytesPeers == 0:
		return mbps, classInfra, true
	case float64(d.BytesPeers) >= 0.5*float64(total):
		return mbps, classP2P, true
	}
	return 0, 0, false
}

// Merge folds another tally's state into this one, as if its records had
// been added here; both tallies must come from the same constructor. Every
// integer tally, every set- and sort-derived value (distinct counts,
// medians, heavy-uploader cut, Zipf fit, CDF points) and every sketch
// register is exactly what a single sequential fold produces, for any split
// of the records and any merge order: they depend only on the combined
// multiset. The one exception is effSum, a float sum whose last bits follow
// the addition order.
func (t *Tally) Merge(o *Tally) {
	t.downloads += o.downloads
	for c := range t.n {
		t.n[c] += o.n[c]
		t.done[c] += o.done[c]
		t.aborted[c] += o.aborted[c]
		t.failedSys[c] += o.failedSys[c]
		t.sizes[c].add(&o.sizes[c])
		for sc := range t.sizeClassN {
			t.sizeClassN[sc][c] += o.sizeClassN[sc][c]
			t.sizeClassAborted[sc][c] += o.sizeClassAborted[sc][c]
		}
	}
	t.p2pLE05 += o.p2pLE05
	t.bytesInfra += o.bytesInfra
	t.bytesPeers += o.bytesPeers
	t.bytesP2PFiles += o.bytesP2PFiles
	t.bytesPeersP2P += o.bytesPeersP2P
	t.effSum += o.effSum
	t.effN += o.effN
	t.intraAS += o.intraAS
	t.interAS += o.interAS
	for asn, b := range o.perASUp {
		t.perASUp[asn] += b
	}
	t.stream.add(o.stream)
	for c := range o.countries {
		t.countries[c] = struct{}{}
	}
	for asn := range o.ases {
		t.ases[asn] = struct{}{}
	}
	for name, r := range o.regions {
		dst := t.region(name)
		dst.downloads += r.downloads
		dst.bytesInfra += r.bytesInfra
		dst.bytesPeers += r.bytesPeers
		dst.bytesUploaded += r.bytesUploaded
	}
	for from, row := range o.matrix {
		dst := t.matrix[from]
		if dst == nil {
			dst = make(map[string]int64, len(row))
			t.matrix[from] = dst
		}
		for to, b := range row {
			dst[to] += b
		}
	}
	t.guids.union(o.guids)
	t.urls.union(o.urls)
	for c := range t.speed {
		t.speed[c] = append(t.speed[c], o.speed[c]...)
	}
	t.startups = append(t.startups, o.startups...)
	t.stalled += o.stalled
}

func pct(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// Summary derives the offline summary. It may be called repeatedly; Add may
// continue afterwards.
func (t *Tally) Summary() OfflineSummary {
	sf := t.StreamingFigure()
	s := OfflineSummary{
		Downloads:     int(t.downloads),
		DistinctGUIDs: int(math.Round(t.guids.Estimate())),
		DistinctURLs:  int(math.Round(t.urls.Estimate())),
		Countries:     len(t.countries),
		ASes:          len(t.ases),

		CompletionInfraPct: pct(t.done[classInfra], t.n[classInfra]),
		CompletionP2PPct:   pct(t.done[classP2P], t.n[classP2P]),
		AbortInfraPct:      pct(t.aborted[classInfra], t.n[classInfra]),
		AbortP2PPct:        pct(t.aborted[classP2P], t.n[classP2P]),

		PctBytesP2PFiles:           pct(t.bytesP2PFiles, t.bytesInfra+t.bytesPeers),
		AggregatePeerEfficiencyPct: pct(t.bytesPeersP2P, t.bytesP2PFiles),
		MedianSpeedEdgeMbps:        Percentile(t.speed[classInfra], 50),
		MedianSpeedP2PMbps:         Percentile(t.speed[classP2P], 50),
		IntraASPct:                 pct(t.intraAS, t.intraAS+t.interAS),

		StreamingDownloads:    sf.Sessions,
		StreamStartupMeanMs:   sf.StartupMeanMs,
		StreamRebufferEvents:  sf.RebufferEvents,
		StreamRebufferMs:      sf.RebufferMs,
		StreamDeadlineMissPct: sf.DeadlineMissPct,
		StreamEdgeRescueBytes: sf.EdgeRescueBytes,
	}
	if t.effN > 0 {
		s.MeanPeerEfficiencyPct = t.effSum / float64(t.effN)
	}
	heavy, carried, total := heavyCut(t.perASUp)
	s.HeavyASes, s.HeavySharePct = len(heavy), pct(carried, total)
	f3b := t.Figure3b()
	if len(f3b.Counts) > 0 {
		s.TopObjectCount = f3b.Counts[0]
	}
	s.ZipfExponent = f3b.PowerLawSlope()
	return s
}

// heavyCut is the paper's heavy-uploader cut (§6.1): the smallest set of top
// uploading ASes that covers 90% of inter-AS upload bytes, largest first and
// ties by ascending ASN, with the bytes they carry out of the total.
func heavyCut[AS ~uint32](up map[AS]int64) (heavy []AS, carried, total int64) {
	order := make([]AS, 0, len(up))
	for as, b := range up {
		order = append(order, as)
		total += b
	}
	sort.Slice(order, func(i, j int) bool {
		if bi, bj := up[order[i]], up[order[j]]; bi != bj {
			return bi > bj
		}
		return order[i] < order[j]
	})
	for _, as := range order {
		if total > 0 && float64(carried) >= 0.9*float64(total) {
			break
		}
		heavy = append(heavy, as)
		carried += up[as]
	}
	return heavy, carried, total
}

// Figure3a derives the size-CDF figure from the edge buckets.
func (t *Tally) Figure3a() Figure3a {
	all := t.sizes[classInfra]
	all.add(&t.sizes[classP2P])
	frac := 0.0
	if n := t.n[classP2P]; n > 0 {
		frac = float64(t.p2pLE05) / float64(n)
	}
	return Figure3a{
		InfraOnly:                t.sizes[classInfra].points(),
		All:                      all.points(),
		PeerAssisted:             t.sizes[classP2P].points(),
		PctPeerAssistedOver500MB: 100 * (1 - frac),
	}
}

// Figure3b derives the popularity ranking from the per-URL counts; a
// sketched tally has none and ranks nothing.
func (t *Tally) Figure3b() Figure3b {
	perURL, _ := t.urls.(countSet)
	counts := make([]int, 0, len(perURL))
	for _, c := range perURL {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	return Figure3b{Counts: counts}
}

// Figure7 derives the abort-rate table; column 2 (all downloads) is the sum
// of the two classes.
func (t *Tally) Figure7() Figure7 {
	var out Figure7
	for sc := range out.N {
		n, ab := t.sizeClassN[sc], t.sizeClassAborted[sc]
		ns := [3]int64{n[classInfra], n[classP2P], n[classInfra] + n[classP2P]}
		abs := [3]int64{ab[classInfra], ab[classP2P], ab[classInfra] + ab[classP2P]}
		for c := range ns {
			out.N[sc][c] = int(ns[c])
			out.PauseRatePct[sc][c] = pct(abs[c], ns[c])
		}
	}
	return out
}

// regionRows lists every region's tallies in name order.
func (t *Tally) regionRows() []RegionAnalytics {
	out := make([]RegionAnalytics, 0, len(t.regions))
	for name, r := range t.regions {
		out = append(out, RegionAnalytics{
			Region: name, Downloads: r.downloads,
			BytesInfra: r.bytesInfra, BytesPeers: r.bytesPeers,
			BytesUploaded: r.bytesUploaded,
			OffloadPct:    pct(r.bytesPeers, r.bytesInfra+r.bytesPeers),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}

// RegionOffload returns the per-region traffic table over the regions that
// downloaded anything, largest first.
func (t *Tally) RegionOffload() []RegionAnalytics {
	rows := t.regionRows()
	out := rows[:0]
	for _, r := range rows {
		if r.Downloads > 0 {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].BytesInfra+out[i].BytesPeers > out[j].BytesInfra+out[j].BytesPeers
	})
	return out
}

// RenderFigures prints the figure passes as text (netsession-analyze
// -figures).
func (t *Tally) RenderFigures() string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("figure 3a: %.1f%% of peer-assisted requests are for objects >500MB (paper: 82%%)",
		t.Figure3a().PctPeerAssistedOver500MB)
	f3b := t.Figure3b()
	top := 0
	if len(f3b.Counts) > 0 {
		top = f3b.Counts[0]
	}
	w("figure 3b: %d objects, top object %d downloads, Zipf exponent %.2f",
		len(f3b.Counts), top, f3b.PowerLawSlope())
	f7 := t.Figure7()
	w("figure 7 abort rate %% (infra / p2p / all):")
	for sc := SizeClass(0); sc < numSizeClasses; sc++ {
		w("  %-10s %6.2f / %6.2f / %6.2f  (n=%d)", sc,
			f7.PauseRatePct[sc][0], f7.PauseRatePct[sc][1], f7.PauseRatePct[sc][2], f7.N[sc][2])
	}
	w("per-region offload:")
	for _, row := range t.RegionOffload() {
		w("  %-14s %9d dls  infra %s  peers %s  offload %.1f%%", row.Region,
			row.Downloads, humanBytes(row.BytesInfra), humanBytes(row.BytesPeers), row.OffloadPct)
	}
	return b.String()
}

// ShardedTally is the concurrency-safe front of a Tally: records are routed
// to one of N independently locked tallies by GUID hash, so concurrent
// producers (a parallel segment pass, the control plane's CN session loops
// and ingest handler) aggregate without a global mutex. Routing by GUID —
// not by arrival order — makes the per-shard record multisets a pure
// function of the input set, so Merged is exactly the sequential fold (see
// Tally.Merge for the one float caveat).
type ShardedTally struct {
	exact  bool
	shards []tallyShard
}

type tallyShard struct {
	mu sync.Mutex
	t  *Tally
	// Pad to a cache line so neighboring shard locks don't false-share
	// under parallel Observe storms.
	_ [48]byte
}

// NewShardedTally creates an exact sharded tally (values below 1 select 1
// shard): the analyzer's one-shot pass.
func NewShardedTally(shards int) *ShardedTally { return newShardedTally(shards, true) }

// NewStreamingSummarizer creates a sketched sharded tally: the bounded
// live pass of the control plane, seeded from its store at startup.
func NewStreamingSummarizer(shards int) *ShardedTally { return newShardedTally(shards, false) }

func newShardedTally(shards int, exact bool) *ShardedTally {
	if shards < 1 {
		shards = 1
	}
	s := &ShardedTally{exact: exact, shards: make([]tallyShard, shards)}
	for i := range s.shards {
		s.shards[i].t = newTally(exact)
	}
	return s
}

// Observe folds one record in. Safe for concurrent use; records of the same
// GUID land on the same shard.
func (s *ShardedTally) Observe(d *OfflineDownload) {
	sh := &s.shards[fnv64a(d.GUID)%uint64(len(s.shards))]
	sh.mu.Lock()
	sh.t.Add(d)
	sh.mu.Unlock()
}

// Merged merges every shard into a fresh tally. The shard states are left
// intact, so observation may continue concurrently.
func (s *ShardedTally) Merged() *Tally {
	merged := newTally(s.exact)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		merged.Merge(sh.t)
		sh.mu.Unlock()
	}
	return merged
}

// Snapshot returns the merged live-analytics document.
func (s *ShardedTally) Snapshot() StreamingSummary { return s.Merged().document() }

// ActiveGUIDs returns the distinct-GUID population seen so far without
// merging the full tallies; the control plane's metrics gauge uses it.
func (s *ShardedTally) ActiveGUIDs() float64 {
	g := newDistinct(s.exact)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		g.union(sh.t.guids)
		sh.mu.Unlock()
	}
	return g.Estimate()
}
