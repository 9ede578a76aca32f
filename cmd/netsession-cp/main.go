// Command netsession-cp runs one NetSession control-plane node: one
// database node per network region, the requested number of connection
// nodes, the operator HTTP surface, and a monitoring node. Peers connect to
// any CN address; the edge tier must be started with the same -key so
// authorization tokens verify.
//
// The synthetic identity plan is deterministic: this process and every peer
// process generate the same atlas and allocate the same -population
// identities from the same -identity-seed, so a peer started with
// `netsession-peer -identity K` resolves to a (location, AS) this control
// plane knows.
//
// Usage:
//
//	netsession-cp [-cns N] [-key STRING] [-population N] [-identity-seed N]
//	              [-max-sessions N] [-status ADDR] [-log-dir DIR]
//	              [-scrape name=URL,...] [-debug-addr ADDR]
//	              [-node-id ID] [-join URL|ID=URL,...] [-join-existing]
//
// Every node is a cluster member, assembled by controlplane.StartNode
// exactly as the in-process cluster assembles its nodes. A node started
// without -join is a ring of one that later nodes join with -join pointing
// at its status URL; the nodes probe each other's status endpoints for
// liveness and consistent-hash the network regions across whoever is alive.
// Logins for a region another node owns are redirected there, and so are
// log batches from a GUID another node owns; when a node dies, its regions
// are taken over through the DN soft-state rebuild window. -node-id defaults to the bound status address. With -log-dir the
// node's log segments and batch-ack store survive restarts. SIGTERM (or
// POST /v1/drain) hands the node's regions and acks to the survivors before
// it exits; SIGINT just stops.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netsession/internal/cluster"
	"netsession/internal/controlplane"
	"netsession/internal/edge"
	"netsession/internal/geo"
	"netsession/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netsession-cp: ")

	numCNs := flag.Int("cns", 2, "number of connection nodes to start")
	key := flag.String("key", "netsession-demo-key", "token HMAC key shared with the edge tier")
	population := flag.Int("population", 1000, "size of the deterministic identity plan")
	identitySeed := flag.Int64("identity-seed", 7, "seed of the identity plan")
	maxSessions := flag.Int("max-sessions", 0, "shed logins beyond this per CN (0 = unlimited)")
	statusAddr := flag.String("status", "127.0.0.1:0", "operator HTTP address (/v1/status, /metrics, /v1/telemetry, POST /v1/logs/batch)")
	logDir := flag.String("log-dir", "", "durable state directory: accepted download records are spilled to rotated gzip NDJSON segments that netsession-analyze reads, and batch acks persist under acks/")
	maxLogRecords := flag.Int("max-log-records", 0, "in-memory accounting log cap per record kind (0 = default, negative = unbounded)")
	nodeID := flag.String("node-id", "", "this node's cluster identity (default: the bound status address)")
	join := flag.String("join", "", "comma-separated seed list of other control-plane nodes: id=statusURL entries, or bare status URLs (seed exchange discovers the rest), e.g. http://10.0.0.2:7000")
	joinExisting := flag.Bool("join-existing", false, "treat the first ring view as a real takeover (set when joining a cluster that already serves peers)")
	probeEvery := flag.Duration("probe-interval", time.Second, "cluster liveness probe interval")
	scrape := flag.String("scrape", "", "comma-separated name=baseURL telemetry scrape targets for the monitor")
	scrapeEvery := flag.Duration("scrape-interval", 10*time.Second, "monitor scrape interval")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and the monitor's /metrics on this address")
	flag.Parse()

	atlas := geo.GenerateAtlas(geo.DefaultAtlasConfig())
	scape := geo.NewEdgeScape(atlas)
	if _, err := geo.Identities(scape, *population, *identitySeed); err != nil {
		log.Fatalf("identity plan: %v", err)
	}

	node, err := controlplane.StartNode(controlplane.Config{
		NodeID:           *nodeID,
		CNs:              *numCNs,
		StatusAddr:       *statusAddr,
		LogDir:           *logDir,
		Seeds:            parseSeeds(*join),
		ProbeInterval:    *probeEvery,
		JoinExisting:     *joinExisting,
		Logf:             log.Printf,
		Scape:            scape,
		Minter:           edge.NewTokenMinter([]byte(*key)),
		ClientConfig:     edge.DefaultClientConfig(),
		MaxSessionsPerCN: *maxSessions,
		MaxLogRecords:    *maxLogRecords,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := node.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}()
	cp := node.ControlPlane()
	for i, cn := range node.CNs() {
		log.Printf("CN %d listening on %s", i, cn.Addr())
	}
	log.Printf("node %s, status on %s (GET /v1/status, /metrics, /v1/telemetry)", node.ID(), node.StatusURL())
	if *logDir != "" {
		log.Printf("durable log store and ack store in %s", *logDir)
	}

	mon := controlplane.NewMonitor()
	if err := mon.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer mon.Close()
	log.Printf("monitor listening on http://%s (GET /v1/health, /metrics)", mon.Addr())

	if *debugAddr != "" {
		dbg, err := telemetry.StartDebug(*debugAddr, mon.Metrics())
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug server on http://%s (GET /debug/pprof/, /metrics)", dbg.Addr())
	}

	targets := map[string]string{"cp": node.StatusURL()}
	for _, t := range strings.Split(*scrape, ",") {
		if name, url, ok := strings.Cut(strings.TrimSpace(t), "="); ok {
			targets[name] = url
		}
	}
	mon.SetScrapeTargets(targets)
	mon.StartScraping(*scrapeEvery)
	log.Printf("identity plan: %d identities, seed %d", *population, *identitySeed)

	// SIGTERM triggers a planned drain (regions and ack window handed to
	// survivors before exit); SIGINT and POST /v1/drain shut down directly —
	// the drain endpoint has already run the handoff by the time the hook
	// fires.
	drained := make(chan struct{}, 1)
	cp.SetOnDrained(func(sum controlplane.DrainSummary) {
		log.Printf("drained via %s: %d regions, %d entries to %d survivors",
			controlplane.DrainPath, len(sum.Regions), sum.EntriesTransferred, sum.Survivors)
		drained <- struct{}{}
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		if s == syscall.SIGTERM {
			// Drain's error is Close's, which the deferred Close reports.
			sum, _ := node.Drain()
			log.Printf("drained: %d regions, %d entries, %d acks flushed to %d survivors",
				len(sum.Regions), sum.EntriesTransferred, sum.AcksFlushed, sum.Survivors)
		}
	case <-drained:
	}
	log.Printf("shutting down; %d sessions were connected", cp.SessionCount())
}

// parseSeeds splits the -join list: id=statusURL entries, or bare status
// URLs that the first successful probe identifies.
func parseSeeds(join string) []cluster.Node {
	var seeds []cluster.Node
	for _, s := range strings.Split(join, ",") {
		entry := strings.TrimSpace(s)
		if entry == "" {
			continue
		}
		if id, url, ok := strings.Cut(entry, "="); ok && !strings.Contains(id, "://") {
			seeds = append(seeds, cluster.Node{ID: id, StatusURL: url})
		} else {
			seeds = append(seeds, cluster.Node{StatusURL: entry})
		}
	}
	return seeds
}
