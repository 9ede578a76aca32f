package analysis

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// The live-analytics document is the sketched Tally on the wire: the paper's
// headline measurements — peer-served fraction (§4's ~70–80% offload),
// per-region activity, intra-AS vs inter-AS byte splits (§5/§6) — computed
// incrementally in memory bounded by the *geography* (regions, countries,
// ASes) rather than by the number of log entries. The populations that
// cannot be bounded exactly (GUIDs, URLs) travel as HyperLogLog sketches,
// within ~1.6% of the exact count; the speed medians and Zipf fit need the
// full sample and stay with the exact tally.

// RegionAnalytics is one region's live aggregate.
type RegionAnalytics struct {
	Region        string  `json:"region"`
	Downloads     int64   `json:"downloads"`
	BytesInfra    int64   `json:"bytesInfra"`
	BytesPeers    int64   `json:"bytesPeers"`
	BytesUploaded int64   `json:"bytesUploaded"`
	OffloadPct    float64 `json:"offloadPct"`
}

// StreamingSummary is the bounded-memory live analytics document: the raw
// mergeable tallies (so fleet views combine exactly) plus the derived
// headline metrics. It is the JSON served on GET /v1/analytics.
type StreamingSummary struct {
	Downloads  int64 `json:"downloads"`
	NInfra     int64 `json:"nInfraOnly"`
	NP2P       int64 `json:"nP2P"`
	DoneInfra  int64 `json:"doneInfraOnly"`
	DoneP2P    int64 `json:"doneP2P"`
	AbortInfra int64 `json:"abortInfraOnly"`
	AbortP2P   int64 `json:"abortP2P"`

	BytesAll      int64 `json:"bytesAll"`
	BytesInfra    int64 `json:"bytesInfra"`
	BytesPeers    int64 `json:"bytesPeers"`
	BytesP2PFiles int64 `json:"bytesP2PFiles"`
	BytesPeersP2P int64 `json:"bytesPeersP2P"`

	EffSum float64 `json:"effSum"`
	EffN   int64   `json:"effN"`

	IntraASBytes   int64            `json:"intraASBytes"`
	InterASBytes   int64            `json:"interASBytes"`
	InterASUploads map[uint32]int64 `json:"interASUploads,omitempty"`

	// Streaming-delivery raw tallies (mergeable integer sums).
	StreamDownloads       int64 `json:"streamDownloads"`
	StreamStartupSumMs    int64 `json:"streamStartupSumMs"`
	StreamRebufferEvents  int64 `json:"streamRebufferEvents"`
	StreamRebufferMs      int64 `json:"streamRebufferMs"`
	StreamDeadlineMisses  int64 `json:"streamDeadlineMisses"`
	StreamPiecesPlayed    int64 `json:"streamPiecesPlayed"`
	StreamEdgeRescueBytes int64 `json:"streamEdgeRescueBytes"`

	CountrySet []string `json:"countrySet,omitempty"`
	ASSet      []uint32 `json:"asSet,omitempty"`

	Regions      []RegionAnalytics           `json:"regions,omitempty"`
	RegionMatrix map[string]map[string]int64 `json:"regionMatrix,omitempty"`

	GUIDSketch []byte `json:"guidSketch,omitempty"`
	URLSketch  []byte `json:"urlSketch,omitempty"`

	// Derived headline metrics (recomputed by Finalize after a Merge).
	ActiveGUIDs                float64 `json:"activeGUIDs"`
	DistinctURLs               float64 `json:"distinctURLs"`
	Countries                  int     `json:"countries"`
	ASes                       int     `json:"ases"`
	OffloadPct                 float64 `json:"offloadPct"`
	PctBytesP2PFiles           float64 `json:"pctBytesP2PFiles"`
	MeanPeerEfficiencyPct      float64 `json:"meanPeerEfficiencyPct"`
	AggregatePeerEfficiencyPct float64 `json:"aggregatePeerEfficiencyPct"`
	CompletionInfraPct         float64 `json:"completionInfraPct"`
	CompletionP2PPct           float64 `json:"completionP2PPct"`
	AbortInfraPct              float64 `json:"abortInfraPct"`
	AbortP2PPct                float64 `json:"abortP2PPct"`
	IntraASPct                 float64 `json:"intraASPct"`
	HeavyASes                  int     `json:"heavyASes"`
	HeavySharePct              float64 `json:"heavySharePct"`
	StreamStartupMeanMs        float64 `json:"streamStartupMeanMs"`
	StreamDeadlineMissPct      float64 `json:"streamDeadlineMissPct"`
}

// document renders the tally as the live-analytics document: the raw
// mergeable tallies plus the headline metrics derived from them. The document
// takes over the tally's maps rather than copying them, so callers render a
// tally nobody adds to afterwards: a Merged copy, a rebuilt document.
func (t *Tally) document() StreamingSummary {
	s := StreamingSummary{
		Downloads: t.downloads,
		NInfra:    t.n[classInfra], NP2P: t.n[classP2P],
		DoneInfra: t.done[classInfra], DoneP2P: t.done[classP2P],
		AbortInfra: t.aborted[classInfra], AbortP2P: t.aborted[classP2P],
		BytesAll: t.bytesInfra + t.bytesPeers, BytesInfra: t.bytesInfra, BytesPeers: t.bytesPeers,
		BytesP2PFiles: t.bytesP2PFiles, BytesPeersP2P: t.bytesPeersP2P,
		EffSum: t.effSum, EffN: t.effN,
		IntraASBytes: t.intraAS, InterASBytes: t.interAS, InterASUploads: t.perASUp,
		StreamDownloads:       t.stream.n,
		StreamStartupSumMs:    t.stream.startupMs,
		StreamRebufferEvents:  t.stream.rebuffers,
		StreamRebufferMs:      t.stream.rebufferMs,
		StreamDeadlineMisses:  t.stream.misses,
		StreamPiecesPlayed:    t.stream.played,
		StreamEdgeRescueBytes: t.stream.rescueBytes,
		Regions:               t.regionRows(),
		RegionMatrix:          t.matrix,
		GUIDSketch:            t.guids.Bytes(), URLSketch: t.urls.Bytes(),

		ActiveGUIDs:  t.guids.Estimate(),
		DistinctURLs: t.urls.Estimate(),
		Countries:    len(t.countries),
		ASes:         len(t.ases),
	}
	s.CountrySet = make([]string, 0, len(t.countries))
	for c := range t.countries {
		s.CountrySet = append(s.CountrySet, c)
	}
	sort.Strings(s.CountrySet)
	s.ASSet = make([]uint32, 0, len(t.ases))
	for asn := range t.ases {
		s.ASSet = append(s.ASSet, asn)
	}
	sort.Slice(s.ASSet, func(i, j int) bool { return s.ASSet[i] < s.ASSet[j] })

	sum := t.Summary()
	s.OffloadPct = pct(s.BytesPeers, s.BytesAll)
	s.PctBytesP2PFiles = sum.PctBytesP2PFiles
	s.MeanPeerEfficiencyPct = sum.MeanPeerEfficiencyPct
	s.AggregatePeerEfficiencyPct = sum.AggregatePeerEfficiencyPct
	s.CompletionInfraPct, s.CompletionP2PPct = sum.CompletionInfraPct, sum.CompletionP2PPct
	s.AbortInfraPct, s.AbortP2PPct = sum.AbortInfraPct, sum.AbortP2PPct
	s.IntraASPct = sum.IntraASPct
	s.HeavyASes, s.HeavySharePct = sum.HeavyASes, sum.HeavySharePct
	s.StreamStartupMeanMs = sum.StreamStartupMeanMs
	s.StreamDeadlineMissPct = sum.StreamDeadlineMissPct
	return s
}

// tally rebuilds the sketched tally a document was rendered from. Only the
// raw fields are read; the derived metrics are recomputed on the way back
// out. A malformed sketch is replaced by an empty one and reported, so one
// bad register array costs that document its GUID or URL population, not
// the rest of its tallies.
func (s *StreamingSummary) tally() (*Tally, error) {
	t := newTally(false)
	t.downloads = s.Downloads
	t.n = [2]int64{s.NInfra, s.NP2P}
	t.done = [2]int64{s.DoneInfra, s.DoneP2P}
	t.aborted = [2]int64{s.AbortInfra, s.AbortP2P}
	t.bytesInfra, t.bytesPeers = s.BytesInfra, s.BytesPeers
	t.bytesP2PFiles, t.bytesPeersP2P = s.BytesP2PFiles, s.BytesPeersP2P
	t.effSum, t.effN = s.EffSum, s.EffN
	t.intraAS, t.interAS = s.IntraASBytes, s.InterASBytes
	for asn, b := range s.InterASUploads {
		t.perASUp[asn] = b
	}
	t.stream = streamSums{s.StreamDownloads, s.StreamStartupSumMs, s.StreamRebufferEvents,
		s.StreamRebufferMs, s.StreamDeadlineMisses, s.StreamPiecesPlayed, s.StreamEdgeRescueBytes}
	for _, c := range s.CountrySet {
		t.countries[c] = struct{}{}
	}
	for _, asn := range s.ASSet {
		t.ases[asn] = struct{}{}
	}
	for _, r := range s.Regions {
		*t.region(r.Region) = regionTally{r.Downloads, r.BytesInfra, r.BytesPeers, r.BytesUploaded}
	}
	for from, row := range s.RegionMatrix {
		t.matrix[from] = make(map[string]int64, len(row))
		for to, b := range row {
			t.matrix[from][to] = b
		}
	}
	g, gerr := HLLFromBytes(s.GUIDSketch)
	if gerr == nil {
		t.guids = g
	}
	u, uerr := HLLFromBytes(s.URLSketch)
	if uerr == nil {
		t.urls = u
	}
	return t, errors.Join(gerr, uerr)
}

// Merge folds another summary into this one — the monitor's fleet view over
// N control planes: both documents are rebuilt into tallies, merged by
// Tally.Merge and rendered back, so counts and byte totals sum, GUID/URL
// sketches union (a peer reporting through two CPs is still counted once)
// and the derived metrics are recomputed. A malformed sketch on either side
// is skipped and reported; everything else still merges.
func (s *StreamingSummary) Merge(o *StreamingSummary) error {
	t, err := s.tally()
	ot, oerr := o.tally()
	t.Merge(ot)
	*s = t.document()
	return errors.Join(err, oerr)
}

// humanBytes renders a byte count for the dashboard tables.
func humanBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// Render prints the live-analytics dashboard: the paper's Fig-style headline
// metrics, the per-region offload table (§4), and the AS-locality split
// (§6.1). `netsession-report -live` prints this block for a node's or the
// fleet's /v1/analytics document.
func (s StreamingSummary) Render() string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("downloads: %d (%d infra-only, %d peer-assisted) by ~%.0f GUIDs over ~%.0f objects (%d countries, %d ASes)",
		s.Downloads, s.NInfra, s.NP2P, s.ActiveGUIDs, s.DistinctURLs, s.Countries, s.ASes)
	w("offload:   %.1f%% of %s served by peers (paper §4: ~70-80%% for p2p-enabled traffic)",
		s.OffloadPct, humanBytes(s.BytesAll))
	w("p2p-enabled files carry %.1f%% of bytes; peer efficiency mean %.1f%%, byte-weighted %.1f%% (paper: 57.4%% / 71.4%%)",
		s.PctBytesP2PFiles, s.MeanPeerEfficiencyPct, s.AggregatePeerEfficiencyPct)
	w("completion: infra-only %.1f%%, peer-assisted %.1f%%; aborted %.1f%% / %.1f%%",
		s.CompletionInfraPct, s.CompletionP2PPct, s.AbortInfraPct, s.AbortP2PPct)
	w("AS locality: intra-AS %s (%.1f%%), inter-AS %s; %d heavy ASes carry %.0f%% of inter-AS bytes",
		humanBytes(s.IntraASBytes), s.IntraASPct, humanBytes(s.InterASBytes),
		s.HeavyASes, s.HeavySharePct)
	if s.StreamDownloads > 0 {
		w("streaming: %d sessions, mean startup %.0fms, %d rebuffers (%dms paused), deadline misses %.2f%%, edge rescued %s",
			s.StreamDownloads, s.StreamStartupMeanMs, s.StreamRebufferEvents,
			s.StreamRebufferMs, s.StreamDeadlineMissPct, humanBytes(s.StreamEdgeRescueBytes))
	}
	if len(s.Regions) > 0 {
		w("")
		w("%-10s %10s %12s %12s %12s %9s", "region", "downloads", "infra-bytes", "peer-bytes", "uploaded", "offload")
		for _, r := range s.Regions {
			w("%-10s %10d %12s %12s %12s %8.1f%%",
				r.Region, r.Downloads, humanBytes(r.BytesInfra),
				humanBytes(r.BytesPeers), humanBytes(r.BytesUploaded), r.OffloadPct)
		}
	}
	return b.String()
}
