package peer

import "netsession/internal/streaming"

// nextPiece is the piece-request policy, one per mode: streams use
// streaming.WindowScheduler (deadline urgency, then rarest-first); bulk
// downloads draw uniformly from the first 32 eligible pieces with the
// download's seeded RNG, so concurrent peers fetch disjoint pieces and can
// trade them. The sequential test hook takes the first eligible piece
// instead. -1 means nothing eligible (the caller then applies its end-game
// duplication).
func nextPiece(opts DownloadOpts, v *streaming.PieceView) int {
	if opts.Streaming != nil {
		return streaming.WindowScheduler{}.NextPiece(v)
	}
	n := v.Have.Len()
	var cands []int
	for i := 0; i < n && len(cands) < 32; i++ {
		if !v.Have.Has(i) && v.Remote.Has(i) && !v.InFlight(i) {
			if opts.sequential {
				return i
			}
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[v.Rand.Intn(len(cands))]
}
