package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"netsession/internal/accounting"
	"netsession/internal/geo"
	"netsession/internal/id"
)

// Request is one download request: at TimeMs, the peer with PeerIndex asks
// for File. The simulator turns requests into DownloadRecords.
type Request struct {
	TimeMs    int64
	PeerIndex int
	File      *FileSpec
}

// WorkloadConfig controls arrival generation.
type WorkloadConfig struct {
	// TotalDownloads is the number of requests over the whole trace
	// (paper: 12.5M over one month; experiments use a scaled count).
	TotalDownloads int
	// Days is the trace length in days (paper: 31).
	Days int
	// DiurnalAmplitude modulates arrivals by the requester's local hour
	// (Figure 3c shows "the usual diurnal patterns").
	DiurnalAmplitude float64
	// PeakLocalHour is where local demand peaks (evening).
	PeakLocalHour float64
	// InstallAffinity is the probability a request is made by a peer whose
	// client was installed by the same provider (users download from the
	// application they installed, §5.1's per-provider binary bundling).
	InstallAffinity float64
	Seed            int64
}

// DefaultWorkloadConfig returns the experiment defaults.
func DefaultWorkloadConfig() WorkloadConfig {
	return WorkloadConfig{
		TotalDownloads:   50_000,
		Days:             31,
		DiurnalAmplitude: 0.45,
		PeakLocalHour:    20,
		InstallAffinity:  0.7,
		Seed:             3,
	}
}

// diurnalWeight is the relative arrival intensity at a given local hour.
func diurnalWeight(localHour, amplitude, peak float64) float64 {
	return 1 + amplitude*math.Cos((localHour-peak)/24*2*math.Pi)
}

// GenerateWorkload produces the request stream, sorted by time. Requests are
// drawn jointly over (customer, region, peer, file) so the per-customer
// regional mixes reproduce Table 2, and request times honour the requester's
// local diurnal cycle.
func GenerateWorkload(pop *Population, cat *Catalog, cfg WorkloadConfig) ([]Request, error) {
	if cfg.TotalDownloads <= 0 || cfg.Days <= 0 {
		return nil, fmt.Errorf("trace: workload needs positive TotalDownloads and Days")
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	// Customer sampler by download share.
	var custCum []float64
	total := 0.0
	for _, c := range Customers {
		total += c.DownloadShare
		custCum = append(custCum, total)
	}

	// Per-customer region samplers, restricted to regions that actually
	// have peers (tiny populations may leave a region empty).
	type regionSampler struct {
		regions []geo.ReportRegion
		cum     []float64
	}
	samplers := make([]regionSampler, len(Customers))
	for ci, c := range Customers {
		var rs regionSampler
		t := 0.0
		for _, reg := range geo.ReportRegions {
			w := c.RegionMix[reg]
			if w <= 0 || len(pop.ByRegion[reg]) == 0 {
				continue
			}
			t += w
			rs.regions = append(rs.regions, reg)
			rs.cum = append(rs.cum, t)
		}
		if len(rs.regions) == 0 {
			return nil, fmt.Errorf("trace: customer %s has no reachable regions", c.Name)
		}
		for i := range rs.cum {
			rs.cum[i] /= t
		}
		samplers[ci] = rs
	}

	maxMs := int64(cfg.Days) * 86_400_000
	reqs := make([]Request, 0, cfg.TotalDownloads)
	for len(reqs) < cfg.TotalDownloads {
		ci := pick(custCum, r.Float64()*total)
		cust := &Customers[ci]
		rs := samplers[ci]
		reg := rs.regions[pick(rs.cum, r.Float64())]
		candidates := pop.ByRegion[reg]
		if r.Float64() < cfg.InstallAffinity {
			if own := pop.ByRegionCP[reg][cust.CP]; len(own) > 0 {
				candidates = own
			}
		}
		peerIx := candidates[r.Intn(len(candidates))]
		peer := pop.Peers[peerIx]

		// Rejection-sample a time honouring the peer's local diurnal cycle.
		var tMs int64
		for {
			tMs = int64(r.Float64() * float64(maxMs))
			localHour := math.Mod(float64(tMs)/3_600_000+float64(peer.Home.TZOffset)+24*1000, 24)
			w := diurnalWeight(localHour, cfg.DiurnalAmplitude, cfg.PeakLocalHour)
			if r.Float64()*(1+cfg.DiurnalAmplitude) <= w {
				break
			}
		}
		f, err := cat.SampleFile(r, cust.CP)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, Request{TimeMs: tMs, PeerIndex: peerIx, File: f})
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].TimeMs < reqs[j].TimeMs })
	return reqs, nil
}

// Logins streams the login records of the whole population over the trace
// to emit, one installation at a time in population order: connection times
// follow each peer's activity level and diurnal cycle; the vantage point
// exercises the mobility model; the upload-enable flag toggles per the
// Table 3 rates; and the secondary-GUID window evolves per the peer's clone
// class, including rollbacks. Each installation's records are time-ordered;
// the stream as a whole is not. The records are a pure function of (pop,
// days, seed), and emit must not keep the pointer past the call.
func Logins(pop *Population, days int, seed int64, emit func(*accounting.LoginRecord)) {
	r := rand.New(rand.NewSource(seed))
	for _, p := range pop.Peers {
		peerLogins(r, p, days, emit)
	}
}

func peerLogins(r *rand.Rand, p *PeerSpec, days int, emit func(*accounting.LoginRecord)) {
	// Number of logins across the trace.
	n := 0
	for d := 0; d < days; d++ {
		if r.Float64() < p.DailyLogins {
			n++
		}
	}
	if n == 0 {
		n = 1 // every GUID in the trace logged in at least once
	}
	// Pick which logins flip the upload setting.
	toggleAt := make(map[int]bool, p.SettingChanges)
	for len(toggleAt) < p.SettingChanges && len(toggleAt) < n-1 {
		toggleAt[1+r.Intn(max(n-1, 1))] = true
	}

	sec := newSecondaryChain(r, p.Clone)
	toggles := 0
	var rec accounting.LoginRecord
	for i := 0; i < n; i++ {
		if toggleAt[i] {
			toggles++
		}
		// One login per distinct day, so the records are time-ordered.
		day := int64(i) * int64(days) / int64(n)
		// Place within the day at a diurnally plausible local hour.
		localHour := math.Mod(p.sampleLocalHour(r), 24)
		utcHour := math.Mod(localHour-float64(p.Home.TZOffset)+48, 24)
		t := day*86_400_000 + int64(utcHour*3_600_000)
		v := p.VantageAt(r)
		rec = accounting.LoginRecord{
			TimeMs:          t,
			GUID:            p.GUID,
			IP:              v.IP,
			SoftwareVersion: "ns-3.1",
			UploadsEnabled:  p.uploadsEnabledAfter(toggles),
			Secondaries:     sec.login(r),
		}
		emit(&rec)
	}
}

func (p *PeerSpec) sampleLocalHour(r *rand.Rand) float64 {
	for {
		h := r.Float64() * 24
		if r.Float64()*1.45 <= diurnalWeight(h, 0.45, 20) {
			return h
		}
	}
}

// secondaryChain evolves a peer's secondary-GUID history across logins,
// including the rollback behaviours that produce the non-linear graphs of
// Figure 12.
type secondaryChain struct {
	class CloneClass
	hist  id.History
	// snapshot is the saved state a rollback restores (a backup image, a
	// pre-update state, or a master image).
	snapshot    id.History
	hasSnapshot bool
	loginCount  int
	// For CloneManyBranches: roll back to the master image every period
	// logins.
	period int
}

func newSecondaryChain(r *rand.Rand, class CloneClass) *secondaryChain {
	c := &secondaryChain{class: class}
	// Seed the chain with a few pre-trace restarts so windows are full.
	for i := 0; i < id.HistoryLen; i++ {
		c.hist.Push(id.RandSecondary(r))
	}
	c.period = 2 + r.Intn(3)
	return c
}

// login advances the chain by one restart and returns the window reported
// on this login.
func (c *secondaryChain) login(r *rand.Rand) [id.HistoryLen]id.Secondary {
	c.loginCount++
	switch c.class {
	case CloneShortBranch:
		// One failed update mid-life: push a doomed secondary, then restore.
		if c.loginCount == 4 {
			c.snapshot = c.hist
			c.hasSnapshot = true
		} else if c.loginCount == 5 && c.hasSnapshot {
			c.hist = c.snapshot // the previous login's secondary becomes a stub branch
			c.hasSnapshot = false
		}
	case CloneTwoLong:
		// One restored backup mid-life: both pre- and post-restore runs
		// are long.
		if c.loginCount == 3 {
			c.snapshot = c.hist
			c.hasSnapshot = true
		} else if c.loginCount == 8 && c.hasSnapshot {
			c.hist = c.snapshot
			c.hasSnapshot = false
		}
	case CloneManyBranches:
		// Re-imaged every night from the same master.
		if c.loginCount == 1 {
			c.snapshot = c.hist
			c.hasSnapshot = true
		} else if c.hasSnapshot && c.loginCount%c.period == 0 {
			c.hist = c.snapshot
		}
	case CloneIrregular:
		if c.loginCount == 2 {
			c.snapshot = c.hist
			c.hasSnapshot = true
		} else if c.hasSnapshot && r.Float64() < 0.3 {
			if r.Float64() < 0.5 {
				c.hist = c.snapshot
			} else {
				c.snapshot = c.hist
			}
		}
	}
	c.hist.Push(id.RandSecondary(r))
	return c.hist.Window
}
