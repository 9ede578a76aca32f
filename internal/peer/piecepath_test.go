package peer

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netsession/internal/protocol"
)

// TestSwarmBuffersStayVerified is the buffer-hygiene check of the piece data
// path: stores keep received buffers by reference and uploads send them
// straight from the store, so a buffer written after it was handed off
// would surface here. Two honest seeders and a lying uploader serve two
// concurrent leechers (run under -race); afterwards every piece in every
// participant's store must still verify against the manifest.
func TestSwarmBuffersStayVerified(t *testing.T) {
	obj := e2eObject(t, 2_000_000, true)
	d := newWANDeployment(t, obj)
	seeds := []*Client{d.seed("US", obj), d.seed("US", obj)}
	d.waitCopies("US", obj.ID, 2)
	evil := startMaliciousUploader(t, obj.NumPieces())
	registerRaw(t, d, evil.guid, "US", evil.ln.Addr().String(), obj.ID)
	d.waitCopies("US", obj.ID, 3)

	leechers := []*Client{d.spawnPeer("US", true, protocol.NATNone), d.spawnPeer("US", true, protocol.NATNone)}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, c := range leechers {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			dl, err := c.Download(obj.ID)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := dl.Wait(ctx)
			if err != nil || res.Outcome != protocol.OutcomeCompleted {
				t.Errorf("leecher: res=%+v err=%v", res, err)
				return
			}
			if res.FromPeers[evil.guid] != 0 {
				t.Errorf("lying uploader credited with %d bytes", res.FromPeers[evil.guid])
			}
			if res.BytesInfra+res.BytesPeers != obj.Size {
				t.Errorf("infra %d + peers %d != size %d", res.BytesInfra, res.BytesPeers, obj.Size)
			}
		}(c)
	}
	wg.Wait()
	var peerBytes int64
	for _, c := range append(seeds, leechers...) {
		verifyStored(t, c, obj)
		peerBytes += c.Metrics().Snapshot().Counters["peer_bytes_up_total"]
	}
	if peerBytes == 0 {
		t.Error("no participant uploaded: the swarm path was not exercised")
	}
}

// flipReader flips one bit of the first byte it reads.
type flipReader struct {
	io.ReadCloser
	flipped bool
}

func (f *flipReader) Read(p []byte) (int, error) {
	n, err := f.ReadCloser.Read(p)
	if n > 0 && !f.flipped {
		p[0] ^= 0x01
		f.flipped = true
	}
	return n, err
}

// TestEdgePoolCorruptServerFeedsBreaker: of two edge servers, the preferred
// one sits behind a proxy that flips a byte in every data response. Put
// refuses those pieces as corrupt, the refusal counts as that server's
// failure in its breaker, the pool fails over, and the download completes
// verified.
func TestEdgePoolCorruptServerFeedsBreaker(t *testing.T) {
	obj := e2eObject(t, 500_000, false)
	d := newDeployment(t, 1, obj)
	behind := newSecondEdge(t, d)
	target, err := url.Parse("http://" + behind.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var flipped atomic.Int64
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ModifyResponse = func(resp *http.Response) error {
		if strings.HasSuffix(resp.Request.URL.Path, "/data") && resp.StatusCode/100 == 2 {
			resp.Body = &flipReader{ReadCloser: resp.Body}
			flipped.Add(1)
		}
		return nil
	}
	flipper := httptest.NewServer(proxy)
	defer flipper.Close()

	ip, err := d.scape.AllocateIP(mustCountry(t, d, "US").ASNs[0], mustCountry(t, d, "US").Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{
		DeclaredIP:   ip.String(),
		ControlAddrs: d.cnAddrs(),
		EdgeURL:      flipper.URL,
		EdgeURLs:     []string{"http://" + d.edgeSrv.Addr()},
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dl, err := cl.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := dl.Wait(ctx)
	if err != nil || res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if res.BytesInfra != obj.Size {
		t.Errorf("infra bytes %d, want %d", res.BytesInfra, obj.Size)
	}
	verifyStored(t, cl, obj)
	if flipped.Load() == 0 {
		t.Fatal("the flipping server never served a data response")
	}
	if b := cl.edge.servers[0].breaker; b.Failures()+int(b.Trips()) == 0 {
		t.Error("corrupt responses were not counted against the flipping server")
	}
	if b := cl.edge.servers[1].breaker; b.Failures() != 0 || b.Trips() != 0 {
		t.Errorf("the honest server was blamed: %d failures, %d trips", b.Failures(), b.Trips())
	}
	cl.edge.mu.Lock()
	cur := cl.edge.current
	cl.edge.mu.Unlock()
	if cur != 1 {
		t.Errorf("pool stuck to the flipping server (current=%d)", cur)
	}
}
