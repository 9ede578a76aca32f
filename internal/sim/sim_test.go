package sim

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"netsession/internal/accounting"
	"netsession/internal/geo"
	"netsession/internal/protocol"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []int
	add := func(v uint64) { got = append(got, int(v)) }
	e.At(30, add, 3)
	e.At(10, add, 1)
	e.At(20, add, 2)
	e.At(10, add, 11) // same time: FIFO
	n := e.Run(100)
	if n != 4 {
		t.Fatalf("ran %d events", n)
	}
	want := []int{1, 11, 2, 3} // args double as order labels
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 100 {
		t.Errorf("Now=%d, want 100", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	fired := 0
	e.At(10, func(uint64) {
		e.After(5, func(uint64) { fired++ }, 0)
		e.After(1000, func(uint64) { fired += 100 }, 0) // beyond horizon
	}, 0)
	e.Run(100)
	if fired != 1 {
		t.Fatalf("fired=%d, want 1", fired)
	}
	// Continue past the old horizon: the pending event still fires.
	e.Run(2000)
	if fired != 101 {
		t.Fatalf("fired=%d, want 101", fired)
	}
}

func TestEnginePastEventsRunNow(t *testing.T) {
	var e Engine
	e.At(50, func(uint64) {
		e.At(10, func(uint64) {
			if e.Now() != 50 {
				t.Errorf("past event ran at %d, want 50", e.Now())
			}
		}, 0)
	}, 0)
	e.Run(100)
}

// TestMergeLogsOrder pins the k-way merge on hand-built shard streams: ties
// on the timestamp go to the lower region, ties within one region keep the
// shard's order, and empty streams — an idle region, or every region a
// regionSample run leaves unsimulated — contribute nothing. The reference
// is a stable sort of all records by (timestamp, region).
func TestMergeLogsOrder(t *testing.T) {
	stamps := map[int][]int64{
		0:  {5, 5, 9},
		2:  {0, 5, 5, 12},
		3:  {}, // simulated, but logged nothing
		7:  {5},
		11: {1, 9, 9},
	}
	s := &Sim{shards: make([]*shard, geo.NumRegions)}
	type ref struct {
		at  int64
		rec accounting.DownloadRecord
	}
	var want []ref
	for r := range s.shards {
		sh := &shard{region: geo.NetworkRegion(r)}
		for i, at := range stamps[r] {
			// The record names its origin; odd positions carry one
			// attribution, to check the arena view travels with the record.
			rec := accounting.DownloadRecord{StartMs: at, PeersReturned: 100*r + i}
			sd := stampedDownload{at: at, rec: rec}
			if i%2 == 1 {
				pc := accounting.PeerContribution{Bytes: int64(100*r + i)}
				sd.contribOff, sd.contribLen = uint32(len(sh.log.contribs)), 1
				sh.log.contribs = append(sh.log.contribs, pc)
				rec.FromPeers = []accounting.PeerContribution{pc}
			}
			sh.log.downloads = append(sh.log.downloads, sd)
			sh.log.regs = append(sh.log.regs, stampedReg{at: at, rec: accounting.RegistrationRecord{TimeMs: int64(100*r + i)}})
			want = append(want, ref{at, rec})
		}
		s.shards[r] = sh
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].rec.PeersReturned/100 < want[j].rec.PeersReturned/100
	})

	log := s.mergeLogs()
	if len(log.Downloads) != len(want) || len(log.Registrations) != len(want) {
		t.Fatalf("merged %d downloads and %d registrations, want %d of each",
			len(log.Downloads), len(log.Registrations), len(want))
	}
	for i, w := range want {
		if !reflect.DeepEqual(log.Downloads[i], w.rec) {
			t.Fatalf("download %d is %+v, want %+v", i, log.Downloads[i], w.rec)
		}
		if got := log.Registrations[i].TimeMs; got != int64(w.rec.PeersReturned) {
			t.Fatalf("registration %d is from %d, want %d", i, got, w.rec.PeersReturned)
		}
	}
}

func runSmall(t testing.TB, mutate func(*ScenarioConfig)) *Result {
	t.Helper()
	cfg := SmallScenario()
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunPoolIdleTail pins what sim_merge_wait_ms measures: the pool's idle
// tail, from the first worker finding the queue empty to the last worker
// finishing. Two workers run three jobs that the test releases one at a
// time, and the test answers every clock read, so the interval is exact.
// Job 0 ends at 10 ms and its worker takes job 2, which ends at 70 ms; job 1
// ends at 100 ms. The pool idled 30 ms, not the 90 ms between the first and
// the last job ending.
func TestRunPoolIdleTail(t *testing.T) {
	started := make(chan int, 3)
	var release [3]chan struct{}
	for i := range release {
		release[i] = make(chan struct{})
	}
	job := func(i int) int {
		started <- i
		<-release[i]
		return i + 1
	}
	reads := make(chan struct{})
	answers := make(chan time.Time)
	now := func() time.Time {
		reads <- struct{}{}
		return <-answers
	}
	at := func(ms int) {
		<-reads
		answers <- time.UnixMilli(int64(ms))
	}
	type result struct {
		total int
		idle  time.Duration
	}
	done := make(chan result, 1)
	go func() {
		total, idle := runPool(2, 3, job, now)
		done <- result{total, idle}
	}()

	if a, b := <-started, <-started; a+b != 1 {
		t.Fatalf("the two workers started jobs %d and %d, want 0 and 1", a, b)
	}
	close(release[0])
	if i := <-started; i != 2 {
		t.Fatalf("after job 0 the free worker started job %d, want 2", i)
	}
	close(release[2])
	at(70) // job 2's worker finds the queue empty
	close(release[1])
	at(100) // job 1's worker finds the queue empty
	at(100) // the pool returns
	r := <-done
	if r.total != 6 {
		t.Errorf("total %d, want 6 (1+2+3)", r.total)
	}
	if r.idle != 30*time.Millisecond {
		t.Errorf("idle tail %v, want 30ms", r.idle)
	}
}

func TestRunProducesConsistentLog(t *testing.T) {
	res := runSmall(t, nil)
	dls := res.Log.Downloads
	if len(dls) < 8000 {
		t.Fatalf("only %d download records for 10000 requests", len(dls))
	}
	outcomes := make(map[protocol.Outcome]int)
	for i := range dls {
		d := &dls[i]
		outcomes[d.Outcome]++
		if d.EndMs < d.StartMs {
			t.Fatal("negative duration")
		}
		if d.BytesInfra < 0 || d.BytesPeers < 0 {
			t.Fatal("negative bytes")
		}
		if got := d.TotalBytes(); got > d.Size+2 {
			t.Fatalf("download received %d bytes for a %d-byte object", got, d.Size)
		}
		if d.Outcome == protocol.OutcomeCompleted && d.TotalBytes() < d.Size-2 {
			t.Fatalf("completed download has only %d of %d bytes", d.TotalBytes(), d.Size)
		}
		if !d.P2PEnabled && d.BytesPeers != 0 {
			t.Fatal("p2p-disabled download has peer bytes")
		}
		var fromSum int64
		for _, pc := range d.FromPeers {
			fromSum += pc.Bytes
			if pc.GUID == d.GUID {
				t.Fatal("download served by itself")
			}
		}
		if diff := fromSum - d.BytesPeers; diff > int64(len(d.FromPeers))+2 || diff < -int64(len(d.FromPeers))-2 {
			t.Fatalf("per-peer bytes %d do not sum to BytesPeers %d", fromSum, d.BytesPeers)
		}
	}
	// §5.2 shapes: the overwhelming majority of downloads complete;
	// aborts and rare failures make up the rest.
	total := float64(len(dls))
	if f := float64(outcomes[protocol.OutcomeCompleted]) / total; f < 0.85 || f > 0.99 {
		t.Errorf("completion rate %.3f, want ≈0.92-0.94", f)
	}
	if outcomes[protocol.OutcomeAborted] == 0 {
		t.Error("no aborted downloads at all")
	}
	if f := float64(outcomes[protocol.OutcomeFailedSystem]) / total; f > 0.01 {
		t.Errorf("system failure rate %.4f, want ≈0.001-0.002", f)
	}
	logins := 0
	res.ReplayLogins(func(*accounting.LoginRecord) { logins++ })
	if logins == 0 || len(res.Log.Registrations) == 0 {
		t.Error("run has no logins or no registrations")
	}
}

func TestPeerAssistOffloadsTraffic(t *testing.T) {
	res := runSmall(t, nil)
	var p2pInfra, p2pPeers float64
	var assisted, p2pTotal int
	for i := range res.Log.Downloads {
		d := &res.Log.Downloads[i]
		if !d.P2PEnabled || d.Outcome != protocol.OutcomeCompleted {
			continue
		}
		p2pTotal++
		p2pInfra += float64(d.BytesInfra)
		p2pPeers += float64(d.BytesPeers)
		if d.BytesPeers > 0 {
			assisted++
		}
	}
	if p2pTotal < 200 {
		t.Fatalf("only %d completed p2p downloads", p2pTotal)
	}
	eff := p2pPeers / (p2pInfra + p2pPeers)
	// §5.1: the production system averages 71.4% peer efficiency. The
	// small scenario has fewer copies per file, so accept a wide band but
	// require substantial offload.
	if eff < 0.35 || eff > 0.95 {
		t.Errorf("aggregate peer efficiency %.3f, want substantial (paper: 0.714)", eff)
	}
	if float64(assisted)/float64(p2pTotal) < 0.5 {
		t.Errorf("only %d/%d p2p downloads got any peer bytes", assisted, p2pTotal)
	}
}

func TestBackstopAblation(t *testing.T) {
	with := runSmall(t, nil)
	without := runSmall(t, func(c *ScenarioConfig) { c.BackstopEnabled = false })

	rate := func(r *Result) float64 {
		done, total := 0, 0
		for i := range r.Log.Downloads {
			total++
			if r.Log.Downloads[i].Outcome == protocol.OutcomeCompleted {
				done++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(done) / float64(total)
	}
	rw, rwo := rate(with), rate(without)
	if rwo >= rw {
		t.Errorf("pure p2p completion rate %.3f should be below hybrid %.3f", rwo, rw)
	}
	if rw-rwo < 0.05 {
		t.Errorf("backstop ablation too weak: %.3f vs %.3f", rw, rwo)
	}
	// And no infra bytes at all without the backstop.
	for i := range without.Log.Downloads {
		if without.Log.Downloads[i].BytesInfra != 0 {
			t.Fatal("backstop-disabled run served infrastructure bytes")
		}
	}
}

func TestSelectionPolicyAblation(t *testing.T) {
	// With the full 40-peer fan-out and small-scale copy counts, both
	// policies return the same candidate set; cap the swarm fan-out so the
	// selection ORDER is what's measured, as it would be at production
	// copy counts.
	constrain := func(c *ScenarioConfig) { c.MaxServersPerDownload = 5 }
	local := runSmall(t, constrain)
	random := runSmall(t, func(c *ScenarioConfig) {
		constrain(c)
		c.Policy.LocalityAware = false
	})

	interAS := func(r *Result) (inter, total float64) {
		for i := range r.Log.Downloads {
			d := &r.Log.Downloads[i]
			dlAS := r.Scape.MustLookup(d.IP).ASN
			for _, pc := range d.FromPeers {
				total += float64(pc.Bytes)
				if r.Scape.MustLookup(pc.IP).ASN != dlAS {
					inter += float64(pc.Bytes)
				}
			}
		}
		return
	}
	li, lt := interAS(local)
	ri, rt := interAS(random)
	if lt == 0 || rt == 0 {
		t.Fatal("no p2p traffic to compare")
	}
	lf, rf := li/lt, ri/rt
	// Locality-aware selection must keep clearly more traffic inside ASes
	// (§6.1: 18% of NetSession p2p traffic stayed intra-AS).
	if lf >= rf {
		t.Errorf("locality-aware inter-AS share %.3f not below random %.3f", lf, rf)
	}
	if 1-lf < 0.03 {
		t.Errorf("intra-AS share %.3f too small under locality-aware selection", 1-lf)
	}
}

func TestDeterminism(t *testing.T) {
	a := runSmall(t, func(c *ScenarioConfig) { c.NumPeers = 1500; c.TotalDownloads = 2000; c.Days = 5 })
	b := runSmall(t, func(c *ScenarioConfig) { c.NumPeers = 1500; c.TotalDownloads = 2000; c.Days = 5 })
	if len(a.Log.Downloads) != len(b.Log.Downloads) {
		t.Fatalf("nondeterministic: %d vs %d downloads", len(a.Log.Downloads), len(b.Log.Downloads))
	}
	for i := range a.Log.Downloads {
		x, y := a.Log.Downloads[i], b.Log.Downloads[i]
		x.FromPeers, y.FromPeers = nil, nil
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
}

func TestCopiesGrowForPopularFiles(t *testing.T) {
	res := runSmall(t, nil)
	counts := make(map[string]int)
	for _, reg := range res.Log.Registrations {
		counts[reg.Object.String()]++
	}
	maxCopies := 0
	for _, c := range counts {
		if c > maxCopies {
			maxCopies = c
		}
	}
	if maxCopies < 20 {
		t.Errorf("most-registered file has %d copies; popular p2p files should accumulate many", maxCopies)
	}
}
