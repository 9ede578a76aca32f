// Command netsession-edge runs one edge server. Objects are published with
// -publish (repeatable) as cp:url:sizeMB[:p2p]; bodies are the deterministic
// synthetic stream for each object's secure content ID.
//
// Usage:
//
//	netsession-edge [-listen ADDR] [-key STRING]
//	                [-publish 1001:game/installer.bin:1500:p2p] ...
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"netsession/internal/content"
	"netsession/internal/edge"
)

type publishList []string

func (p *publishList) String() string     { return strings.Join(*p, ",") }
func (p *publishList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("netsession-edge: ")

	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	key := flag.String("key", "netsession-demo-key", "token HMAC key shared with the control plane")
	var publishes publishList
	flag.Var(&publishes, "publish", "object spec cp:url:sizeMB[:p2p] (repeatable)")
	demo := flag.Bool("demo", false, "publish a demo catalog")
	flag.Parse()

	catalog := edge.NewCatalog()
	srv := edge.NewServer(catalog, edge.NewTokenMinter([]byte(*key)), edge.NewLedger(), edge.DefaultClientConfig())

	if *demo {
		publishes = append(publishes,
			"1001:demo/installer.bin:800:p2p",
			"1001:demo/patch.bin:60",
			"1002:demo/soundtrack.bin:200:p2p",
		)
	}
	for _, spec := range publishes {
		obj, err := parseSpec(spec)
		if err != nil {
			log.Fatalf("-publish %q: %v", spec, err)
		}
		if err := catalog.PublishSynthetic(obj); err != nil {
			log.Fatal(err)
		}
		log.Printf("published %s (%s, %.0f MB, p2p=%v)",
			obj.ID.Hex(), obj.URL, float64(obj.Size)/1e6, obj.P2PEnabled)
	}
	if catalog.Len() == 0 {
		log.Print("warning: empty catalog; use -publish or -demo")
	}

	if err := srv.Start(*listen); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	log.Printf("edge serving on http://%s (telemetry on GET /metrics, /v1/telemetry)", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

func parseSpec(spec string) (*content.Object, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return nil, fmt.Errorf("want cp:url:sizeMB[:p2p]")
	}
	cp, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return nil, fmt.Errorf("bad cp code: %w", err)
	}
	sizeMB, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || sizeMB <= 0 {
		return nil, fmt.Errorf("bad size %q", parts[2])
	}
	p2p := len(parts) == 4 && parts[3] == "p2p"
	return content.NewObject(content.CPCode(cp), parts[1], 1, int64(sizeMB*1e6), 0, p2p)
}
