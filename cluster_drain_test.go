package netsession

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"netsession/internal/geo"
	"netsession/internal/protocol"
)

// drainOutcome is what a scenario run accounts, comparable across runs.
type drainOutcome struct {
	downloads int
	bytes     int64
}

// announceKey is the per-region RE-ADD rebuild counter a seamless takeover
// must leave untouched.
func announceKey(region string) string {
	return `dn_rebuild_announces_total{region="` + region + `"}`
}

// runDrainScenario drives the same workload against either a single node
// (the baseline) or a three-node cluster that gains a fourth node mid-run —
// joined config-free from one status URL — and then gracefully drains the
// node owning the busiest region. Unlike the kill scenario, a planned drain
// hands each region's directory snapshot to its new owner before leaving, so
// the takeover must not open a rebuild window: zero RE-ADD announces for the
// transferred regions, and accounting byte-equal to the undisturbed run.
func runDrainScenario(t *testing.T, drain bool) drainOutcome {
	t.Helper()
	cfg := DefaultClusterConfig()
	cfg.CPNodes = 1
	if drain {
		cfg.CPNodes = 3
	}
	cfg.CPProbeInterval = 100 * time.Millisecond
	cfg.CPFailAfter = 3
	cfg.DNRebuildWindow = 2 * time.Second
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := NewObject(8001, "drain/payload.bin", 1, 200_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	countries := []string{"US", "DE", "JP"}
	var peers []*Peer

	spawn := func(country string) (*Peer, string) {
		ip, err := c.AllocateIdentity(country)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPeer(PeerConfig{
			DeclaredIP:        ip,
			ControlAddrs:      c.ControlAddrs(),
			EdgeURL:           c.EdgeURL(),
			UploadsEnabled:    true,
			StateDir:          t.TempDir(),
			LogUploadURL:      strings.Join(c.ControlPlaneURLs(), ","),
			LogUploadInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		peers = append(peers, p)
		return p, ip
	}
	waitDone := func(dl *Download, who string) {
		res, err := dl.Wait(ctx)
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		if res.Outcome != protocol.OutcomeCompleted {
			t.Fatalf("%s outcome %v", who, res.Outcome)
		}
		if res.BytesInfra+res.BytesPeers != obj.Size {
			t.Fatalf("%s bytes %d+%d, want %d",
				who, res.BytesInfra, res.BytesPeers, obj.Size)
		}
	}
	download := func(p *Peer, who string) *Download {
		dl, err := p.Download(obj.ID)
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		return dl
	}
	regionOf := func(ipStr string) geo.NetworkRegion {
		ip, err := netip.ParseAddr(ipStr)
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := c.scape.Lookup(ip)
		if !ok {
			t.Fatalf("identity %s not in the scape", ipStr)
		}
		return geo.RegionOf(rec)
	}
	gone := -1
	ownerOf := func(r geo.NetworkRegion) int {
		for i, n := range c.nodes {
			if i == gone {
				continue
			}
			if n.ControlPlane().OwnsRegion(r) {
				return i
			}
		}
		t.Fatalf("no live node owns region %v", r)
		return -1
	}
	ringConverged := func(size int) bool {
		for i, n := range c.nodes {
			if i == gone {
				continue
			}
			if n.ControlPlane().Metrics().Snapshot().Gauges["cp_ring_nodes"] != float64(size) {
				return false
			}
		}
		return true
	}

	var usIP string
	var seedIPs []string
	for _, country := range countries {
		p, ip := spawn(country)
		if country == "US" {
			usIP = ip
		}
		seedIPs = append(seedIPs, ip)
		waitDone(download(p, "seed "+country), "seed "+country)
	}
	for _, ip := range seedIPs {
		r := regionOf(ip)
		owner := ownerOf(r)
		if !chaosEventually(10*time.Second, func() bool {
			return c.nodes[owner].ControlPlane().DN(r).Copies(obj.ID) >= 1
		}) {
			t.Fatalf("seed registration for region %v never reached node %d", r, owner)
		}
	}

	wave := func(tag string) {
		var dls []*Download
		var names []string
		for _, country := range countries {
			for i := 0; i < 2; i++ {
				p, _ := spawn(country)
				who := tag + " " + country
				dls = append(dls, download(p, who))
				names = append(names, who)
			}
		}
		for i, dl := range dls {
			waitDone(dl, names[i])
		}
	}
	wave("wave1")

	if drain {
		// A fourth node joins mid-run knowing exactly one live status URL —
		// the config-free join. Seed exchange must discover the other two
		// nodes and announce the joiner cluster-wide.
		idx, err := c.AddCPNode(c.ControlPlaneURL())
		if err != nil {
			t.Fatal(err)
		}
		if !chaosEventually(15*time.Second, func() bool { return ringConverged(4) }) {
			t.Fatal("cluster never converged on the four-node ring after the join")
		}
		owned := 0
		for r := 0; r < geo.NumRegions; r++ {
			if c.nodes[idx].ControlPlane().OwnsRegion(geo.NetworkRegion(r)) {
				owned++
			}
		}
		if owned == 0 {
			t.Fatal("joined node owns no regions on the converged ring")
		}
		t.Logf("node %d joined from one seed URL, owns %d regions", idx, owned)
		joinSnap := c.nodes[idx].ControlPlane().Metrics().Snapshot()
		if got := joinSnap.Counters["cluster_members_learned_total"]; got < 2 {
			t.Errorf("joined node cluster_members_learned_total = %d, want >= 2 (seed exchange)", got)
		}
		if got := c.nodes[0].ControlPlane().Metrics().Snapshot().Counters["cluster_members_learned_total"]; got < 1 {
			t.Errorf("seed node cluster_members_learned_total = %d, want >= 1 (probe identity)", got)
		}

		wave("wave2")

		// Drain the owner of the busiest (US) region gracefully. Snapshot the
		// per-region rebuild announce counters first: the handed-off regions
		// must not rebuild anywhere.
		usRegion := regionOf(usIP)
		victim := ownerOf(usRegion)
		preAnnounce := make([]map[string]int64, len(c.nodes))
		for i, n := range c.nodes {
			preAnnounce[i] = n.ControlPlane().Metrics().Snapshot().Counters
		}
		sum, err := c.DrainCPNode(victim)
		if err != nil {
			t.Fatal(err)
		}
		gone = victim
		t.Logf("drained node %d: %d regions, %d entries, %d acks to %d survivors",
			victim, len(sum.Regions), sum.EntriesTransferred, sum.AcksFlushed, sum.Survivors)
		if sum.Survivors != 3 {
			t.Errorf("drain saw %d survivors, want 3", sum.Survivors)
		}
		if len(sum.Regions) == 0 {
			t.Error("drain handed off no regions; the victim owned the US region")
		}
		if sum.EntriesTransferred == 0 {
			t.Error("drain transferred no directory entries; the US region had holders")
		}
		vSnap := c.nodes[victim].ControlPlane().Metrics().Snapshot()
		if got := vSnap.Counters["cp_drain_regions_total"]; got < 1 {
			t.Errorf("cp_drain_regions_total = %d, want >= 1", got)
		}
		if got := vSnap.Counters["cp_drain_entries_transferred_total"]; got < 1 {
			t.Errorf("cp_drain_entries_transferred_total = %d, want >= 1", got)
		}
		if !chaosEventually(15*time.Second, func() bool { return ringConverged(3) }) {
			t.Fatal("survivors never converged on the post-drain ring")
		}
		// The transferred snapshot is live on the new owner immediately — no
		// RE-ADD round needed to see the US holders again.
		newOwner := ownerOf(usRegion)
		if c.nodes[newOwner].ControlPlane().DN(usRegion).Copies(obj.ID) < 1 {
			t.Errorf("node %d took over region %v with an empty directory; the handoff snapshot was lost",
				newOwner, usRegion)
		}

		wave("wave3")

		// Zero-rebuild: for every handed-off region, no surviving node's
		// rebuild announce counter moved — the takeover skipped the RE-ADD
		// window entirely, unlike a crash.
		for i, n := range c.nodes {
			if i == victim {
				continue
			}
			snap := n.ControlPlane().Metrics().Snapshot()
			for _, reg := range sum.Regions {
				key := announceKey(reg.Region)
				if delta := snap.Counters[key] - preAnnounce[i][key]; delta != 0 {
					t.Errorf("node %d %s grew by %d after the drain; a transferred region rebuilt",
						i, key, delta)
				}
			}
		}
	} else {
		wave("wave2")
		wave("wave3")
	}

	for i, p := range peers {
		if err := p.FlushLogs(ctx); err != nil {
			t.Fatalf("peer %d flush: %v", i, err)
		}
	}
	log := c.AccountingLog()
	var total int64
	for _, d := range log.Downloads {
		if d.BytesInfra+d.BytesPeers != obj.Size {
			t.Fatalf("accounted record claims %d+%d bytes, want %d",
				d.BytesInfra, d.BytesPeers, obj.Size)
		}
		total += d.BytesInfra + d.BytesPeers
	}
	if c.RejectedReports() != 0 {
		t.Fatalf("%d legitimate reports rejected", c.RejectedReports())
	}
	return drainOutcome{downloads: len(log.Downloads), bytes: total}
}

// TestClusterPlannedDrainZeroRebuild is the headline graceful-exit test: the
// same workload runs against a single node (baseline) and a cluster that
// gains a fourth node config-free mid-run and then drains the busiest node.
// Every download completes hash-verified, the handed-off regions never open
// a rebuild window, and the accounting totals equal the baseline exactly.
func TestClusterPlannedDrainZeroRebuild(t *testing.T) {
	baseline := runDrainScenario(t, false)
	drained := runDrainScenario(t, true)
	if drained.downloads != baseline.downloads {
		t.Errorf("drain run accounted %d downloads, baseline %d",
			drained.downloads, baseline.downloads)
	}
	if drained.bytes != baseline.bytes {
		t.Errorf("drain run accounted %d bytes, baseline %d (graceful exit lost records)",
			drained.bytes, baseline.bytes)
	}
}

// TestClusterDrainStampede pits the two exit paths against each other under
// a larger fleet: a four-node cluster serves ~90 peers, loses one node to a
// kill (the crash path: RE-ADD rebuild burst expected), then gracefully
// drains another (the planned path: zero rebuild for the handed-off
// regions). The burst sizes are logged so the contrast is measurable.
func TestClusterDrainStampede(t *testing.T) {
	if testing.Short() {
		t.Skip("stampede harness is not short")
	}
	cfg := DefaultClusterConfig()
	cfg.CPNodes = 4
	cfg.CPProbeInterval = 100 * time.Millisecond
	cfg.CPFailAfter = 3
	cfg.DNRebuildWindow = 2 * time.Second
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := NewObject(8002, "drain/stampede.bin", 1, 48<<10, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()

	countries := []string{"US", "DE", "JP"}
	var peers []*Peer
	spawn := func(country string) (*Peer, string) {
		ip, err := c.AllocateIdentity(country)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPeer(PeerConfig{
			DeclaredIP:     ip,
			ControlAddrs:   c.ControlAddrs(),
			EdgeURL:        c.EdgeURL(),
			UploadsEnabled: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		peers = append(peers, p)
		return p, ip
	}
	waveSize := func(tag string, perCountry int) {
		var dls []*Download
		for _, country := range countries {
			for i := 0; i < perCountry; i++ {
				p, _ := spawn(country)
				dl, err := p.Download(obj.ID)
				if err != nil {
					t.Fatalf("%s %s: %v", tag, country, err)
				}
				dls = append(dls, dl)
			}
		}
		for i, dl := range dls {
			res, err := dl.Wait(ctx)
			if err != nil || res.Outcome != protocol.OutcomeCompleted {
				t.Fatalf("%s download %d: res=%+v err=%v", tag, i, res, err)
			}
		}
	}
	gone := map[int]bool{}
	ownerOf := func(r geo.NetworkRegion) int {
		for i, n := range c.nodes {
			if gone[i] {
				continue
			}
			if n.ControlPlane().OwnsRegion(r) {
				return i
			}
		}
		t.Fatalf("no live node owns region %v", r)
		return -1
	}
	ringConverged := func(size int) bool {
		for i, n := range c.nodes {
			if gone[i] {
				continue
			}
			if n.ControlPlane().Metrics().Snapshot().Gauges["cp_ring_nodes"] != float64(size) {
				return false
			}
		}
		return true
	}
	sumCounter := func(key string) int64 {
		var total int64
		for i, n := range c.nodes {
			if gone[i] {
				continue
			}
			total += n.ControlPlane().Metrics().Snapshot().Counters[key]
		}
		return total
	}
	announceTotal := func() int64 {
		var total int64
		for i, n := range c.nodes {
			if gone[i] {
				continue
			}
			for key, v := range n.ControlPlane().Metrics().Snapshot().Counters {
				if strings.HasPrefix(key, "dn_rebuild_announces_total{") {
					total += v
				}
			}
		}
		return total
	}

	// The standing fleet: 72 peers with uploads enabled, every region seeded.
	_, usIP := spawn("US")
	usRegion := func() geo.NetworkRegion {
		ip, _ := netip.ParseAddr(usIP)
		rec, ok := c.scape.Lookup(ip)
		if !ok {
			t.Fatalf("identity %s not in the scape", usIP)
		}
		return geo.RegionOf(rec)
	}()
	dl, err := peers[0].Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := dl.Wait(ctx); err != nil || res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("US seed: res=%+v err=%v", res, err)
	}
	waveSize("fleet", 24)
	t.Logf("fleet standing: %d peers", len(peers))

	// Phase 1 — the crash path: kill the US region's owner. Survivors rebuild
	// its regions from RE-ADDs; the burst is the cost of an unplanned exit.
	preKillAnnounces := announceTotal()
	preKillRedirects := sumCounter("cp_logins_redirected_total")
	killVictim := ownerOf(usRegion)
	c.KillCPNode(killVictim)
	gone[killVictim] = true
	if !chaosEventually(20*time.Second, func() bool { return ringConverged(3) }) {
		t.Fatal("survivors never converged after the kill")
	}
	waveSize("post-kill", 3)
	killAnnounces := announceTotal() - preKillAnnounces
	t.Logf("kill burst: %d RE-ADD announces, %d login redirects",
		killAnnounces, sumCounter("cp_logins_redirected_total")-preKillRedirects)
	if killAnnounces == 0 {
		t.Error("kill produced no RE-ADD announces; the crash path never rebuilt")
	}

	// Phase 2 — the planned path: drain the US region's new owner. Handed-off
	// regions must not rebuild at all.
	preDrain := make([]map[string]int64, len(c.nodes))
	for i, n := range c.nodes {
		if !gone[i] {
			preDrain[i] = n.ControlPlane().Metrics().Snapshot().Counters
		}
	}
	drainVictim := ownerOf(usRegion)
	var preDrainRedirects int64
	for i, n := range c.nodes {
		if !gone[i] && i != drainVictim {
			preDrainRedirects += n.ControlPlane().Metrics().Snapshot().Counters["cp_logins_redirected_total"]
		}
	}
	sum, err := c.DrainCPNode(drainVictim)
	if err != nil {
		t.Fatal(err)
	}
	gone[drainVictim] = true
	t.Logf("drained node %d: %d regions, %d entries to %d survivors",
		drainVictim, len(sum.Regions), sum.EntriesTransferred, sum.Survivors)
	if !chaosEventually(20*time.Second, func() bool { return ringConverged(2) }) {
		t.Fatal("survivors never converged after the drain")
	}
	waveSize("post-drain", 3)
	var drainAnnounces int64
	for i, n := range c.nodes {
		if gone[i] {
			continue
		}
		snap := n.ControlPlane().Metrics().Snapshot()
		for _, reg := range sum.Regions {
			key := announceKey(reg.Region)
			drainAnnounces += snap.Counters[key] - preDrain[i][key]
		}
	}
	t.Logf("drain burst: %d RE-ADD announces on transferred regions, %d login redirects",
		drainAnnounces, sumCounter("cp_logins_redirected_total")-preDrainRedirects)
	if drainAnnounces != 0 {
		t.Errorf("planned drain caused %d RE-ADD announces; handoff snapshots should have made the takeover silent",
			drainAnnounces)
	}
	if len(sum.Regions) == 0 || sum.EntriesTransferred == 0 {
		t.Errorf("drain summary %+v transferred nothing under a %d-peer fleet", sum, len(peers))
	}
}
