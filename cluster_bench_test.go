package netsession

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"testing"
	"time"

	"netsession/internal/id"
	"netsession/internal/logpipe"
)

// BenchmarkClusterIngest measures what one fresh log batch costs a
// three-node control plane: one-record batches, each from a new GUID, are
// POSTed round-robin to every node's URL, as uploaders spread over the
// cluster send them. Stores are memory-only, so the figure is the request
// path — routing and any cross-node traffic — not fsync. It reports the
// median batch latency alongside the mean.
func BenchmarkClusterIngest(b *testing.B) {
	cfg := DefaultClusterConfig()
	cfg.CPNodes = 3
	cfg.VerifyAccounting = false // the records have no edge ledger entry
	c, err := StartCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	obj, err := NewObject(7006, "bench/ingest.bin", 1, 1<<20, 1<<16, true)
	if err != nil {
		b.Fatal(err)
	}
	line, err := logpipe.EncodeEntry(&logpipe.Entry{
		Kind: logpipe.EntryKindDownload, IP: "10.0.0.1", Object: obj.ID.Hex(),
		CP: 7006, Size: obj.Size, StartMs: 1, EndMs: 2, BytesInfra: obj.Size,
	})
	if err != nil {
		b.Fatal(err)
	}
	body, err := logpipe.MarshalSegment([][]byte{line})
	if err != nil {
		b.Fatal(err)
	}
	urls := c.ControlPlaneURLs()
	client := &http.Client{}
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := http.NewRequest(http.MethodPost, urls[i%len(urls)]+logpipe.BatchPath, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set(logpipe.HeaderGUID, id.NewGUID().String())
		req.Header.Set(logpipe.HeaderSeq, "1")
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lat = append(lat, time.Since(start))
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("batch %d: %s", i, resp.Status)
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50-µs/batch")
}
