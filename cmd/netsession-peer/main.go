// Command netsession-peer runs one NetSession Interface client against a
// running control plane and edge tier: it logs in, optionally downloads an
// object (printing progress and the final infrastructure/peer byte split),
// and can stay resident serving uploads, as the background application
// described in §3.4 of the paper would.
//
// Usage:
//
//	netsession-peer -control ADDR[,ADDR...] -edge URL
//	                [-object HEXID] [-uploads] [-serve] [-state-dir DIR]
//	                [-stream-bitrate BPS] [-identity K] [-identity-seed N]
//	                [-population N]
//
// With -state-dir, the installation state, every verified piece, and the
// progress of in-flight downloads persist on disk; a peer killed mid-download
// and restarted with the same directory resumes from its verified bitfield
// instead of refetching.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/peer"
	"netsession/internal/streaming"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("netsession-peer: ")

	control := flag.String("control", "", "comma-separated CN addresses (required)")
	edgeURL := flag.String("edge", "", "edge base URL, e.g. http://127.0.0.1:8443 (required)")
	objectHex := flag.String("object", "", "hex object ID to download")
	uploads := flag.Bool("uploads", true, "enable content uploads to peers")
	stateDir := flag.String("state-dir", "", "directory persisting the installation state (GUID, prefs, secondary GUIDs), the durable piece store, and download checkpoints; a restarted peer resumes interrupted downloads from it")
	flag.StringVar(stateDir, "state", "", "alias for -state-dir")
	serve := flag.Bool("serve", false, "stay resident after the download, serving uploads")
	monitorURL := flag.String("monitor", "", "monitoring node base URL receiving operational reports")
	stunAddr := flag.String("stun", "", "STUN server address for reflexive-address discovery")
	logUpload := flag.String("log-upload", "", "comma-separated control plane operator URLs (the -status addresses of the netsession-cp nodes); usage reports then go through the durable log spool and batched uploader instead of in-band, failing over across URLs. Requires -state-dir")
	streamBitrate := flag.Int64("stream-bitrate", 0, "consume the -object download as a deadline-driven stream at this playback bitrate in bits/s (0: bulk download)")
	streamStartup := flag.Int("stream-startup-pieces", 0, "pieces buffered before playback starts (0: default)")
	streamWindow := flag.Int("stream-window-pieces", 0, "urgent playback-window width in pieces (0: default)")
	identity := flag.Int("identity", 0, "index into the deterministic identity plan")
	identitySeed := flag.Int64("identity-seed", 7, "seed of the identity plan (must match netsession-cp)")
	population := flag.Int("population", 1000, "size of the identity plan (must match netsession-cp)")
	flag.Parse()

	if *control == "" || *edgeURL == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Recreate the control plane's identity plan and take our slot.
	atlas := geo.GenerateAtlas(geo.DefaultAtlasConfig())
	scape := geo.NewEdgeScape(atlas)
	ids, err := geo.Identities(scape, *population, *identitySeed)
	if err != nil {
		log.Fatal(err)
	}
	if *identity < 0 || *identity >= len(ids) {
		log.Fatalf("-identity %d outside plan of %d", *identity, len(ids))
	}
	me := ids[*identity]
	log.Printf("identity %d: %s in %s (AS%d)", *identity, me.IP, me.Country, me.ASN)

	peerCfg := peer.Config{
		DeclaredIP:     me.IP.String(),
		ControlAddrs:   strings.Split(*control, ","),
		EdgeURL:        *edgeURL,
		MonitorURL:     *monitorURL,
		STUNAddr:       *stunAddr,
		UploadsEnabled: *uploads,
		StateDir:       *stateDir,
		LogUploadURL:   *logUpload,
		Logf:           func(format string, args ...any) {},
	}
	// A cluster booting node by node may not answer the first dial; keep
	// retrying while every configured CN is unreachable instead of dying on
	// a race the peer's own reconnect logic would have survived.
	var cl *peer.Client
	var err2 error
	for attempt := 1; ; attempt++ {
		cl, err2 = peer.New(peerCfg)
		if err2 == nil {
			break
		}
		if !errors.Is(err2, peer.ErrControlUnavailable) || attempt >= 10 {
			log.Fatal(err2)
		}
		wait := time.Duration(attempt) * 500 * time.Millisecond
		log.Printf("control plane unavailable (attempt %d): %v; retrying in %v", attempt, err2, wait)
		time.Sleep(wait)
	}
	defer cl.Close()
	if *logUpload != "" {
		// Drain the spool before exiting so short-lived invocations still
		// deliver their usage reports; a killed process instead resumes from
		// the durable spool on its next start.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := cl.FlushLogs(ctx); err != nil {
				log.Printf("log flush: %v", err)
			}
		}()
	}
	log.Printf("GUID %s, swarm listener %s", cl.GUID(), cl.SwarmAddr())

	if *stateDir != "" {
		resumed, err := cl.ResumeDownloads()
		if err != nil {
			log.Printf("resume: %v", err)
		}
		for _, dl := range resumed {
			have, total := dl.Progress()
			log.Printf("resuming download %v from checkpoint: %d/%d pieces already on disk",
				dl.Object().ID, have, total)
			if res, err := dl.Wait(context.Background()); err == nil {
				log.Printf("resumed download outcome: %v (%d infra bytes, %d peer bytes)",
					res.Outcome, res.BytesInfra, res.BytesPeers)
			}
		}
	}

	if *objectHex != "" {
		oid, err := content.ParseObjectID(*objectHex)
		if err != nil {
			log.Fatal(err)
		}
		var opts peer.DownloadOpts
		if *streamBitrate > 0 {
			opts.Streaming = &streaming.Config{
				BitrateBps:    *streamBitrate,
				StartupPieces: *streamStartup,
				WindowPieces:  *streamWindow,
			}
		}
		dl, err := cl.DownloadWith(oid, opts)
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			for {
				have, total := dl.Progress()
				if sm := dl.StreamMetrics(); sm != nil {
					log.Printf("progress: %d/%d pieces, played %d, %d rebuffers",
						have, total, sm.PiecesPlayed, sm.RebufferCount)
				} else {
					log.Printf("progress: %d/%d pieces", have, total)
				}
				if total > 0 && have == total {
					return
				}
				time.Sleep(2 * time.Second)
			}
		}()
		res, err := dl.Wait(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("outcome: %v", res.Outcome)
		log.Printf("bytes: %d from infrastructure, %d from %d peers (peer efficiency %.1f%%)",
			res.BytesInfra, res.BytesPeers, len(res.FromPeers), 100*res.PeerEfficiency())
		log.Printf("duration: %s", res.Duration.Round(time.Millisecond))
		if st := res.Stream; st != nil {
			log.Printf("stream: startup %dms, %d rebuffers (%dms paused), deadline misses %.2f%% (%d/%d pieces played), %d urgent bytes rescued from the edge",
				st.StartupDelayMs, st.RebufferCount, st.RebufferMs,
				100*st.DeadlineMissRatio(), st.PiecesPlayed, st.PiecesTotal, st.EdgeRescueBytes)
		}
		for _, st := range dl.Trace().Stages() {
			log.Printf("trace %-14s count=%-5d total=%s", st.Name, st.Count, st.Total.Round(time.Microsecond))
		}
	}

	if *serve {
		log.Print("serving uploads; Ctrl-C to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
}
