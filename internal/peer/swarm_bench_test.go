package peer

import (
	"context"
	"testing"
	"time"

	"netsession/internal/content"
	"netsession/internal/controlplane"
	"netsession/internal/edge"
	"netsession/internal/protocol"
)

// BenchmarkSwarmDownload: one leecher downloads an 8 MiB object in 256 KiB
// pieces from four seeders with in-memory stores, over loopback; each
// iteration is a fresh leecher, its login and teardown untimed. The edge
// answers 5 ms late, as in the benchmark's swarm_bulk workload, so the
// seeders carry most bytes. MB/s is object bytes per second of download
// time; allocs/op counts the whole process, seeders included; peer_share is
// the share of the bytes the seeders carried; dup_pieces/op counts the
// pieces a leecher received that it already held or that arrived after its
// download ended (end-game waste), as its teardown finds them.
func BenchmarkSwarmDownload(b *testing.B) {
	obj, err := content.NewObject(78, "bench/swarm.bin", 1, 8<<20, 256<<10, true)
	if err != nil {
		b.Fatal(err)
	}
	d := startDeployment(b, 1, 5*time.Millisecond, func(cfg *controlplane.Config) {
		cfg.ClientConfig = edge.DefaultClientConfig()
		cfg.ClientConfig.PerObjectUploadCap = 0 // every iteration is served
	}, []*content.Object{obj})
	for i := 0; i < 4; i++ {
		d.seed("US", obj)
	}
	d.waitCopies("US", obj.ID, 4)

	var peerBytes, dupPieces int64
	b.SetBytes(obj.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		leecher := d.spawnPeer("US", false, protocol.NATNone)
		b.StartTimer()
		dl, err := leecher.Download(obj.ID)
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := dl.Wait(ctx)
		cancel()
		if err != nil || res.Outcome != protocol.OutcomeCompleted || res.BytesInfra+res.BytesPeers != obj.Size {
			b.Fatalf("download: res=%+v err=%v", res, err)
		}
		peerBytes += res.BytesPeers
		b.StopTimer()
		verifyStored(b, leecher, obj)
		leecher.Close()
		dupPieces += leecher.metrics.dupPieces.Value()
		leecher.Store().Drop(obj.ID) // the test's cleanup keeps the client
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(peerBytes)/float64(int64(b.N)*obj.Size), "peer_share")
	b.ReportMetric(float64(dupPieces)/float64(b.N), "dup_pieces/op")
}
