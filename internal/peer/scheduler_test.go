package peer

import (
	"math/rand"
	"testing"

	"netsession/internal/content"
	"netsession/internal/streaming"
)

// oraclePick re-implements the pre-refactor inline piece choice from
// kickScheduler, verbatim: sequential mode takes the first wanted piece the
// remote offers; the default randomizes among the first 32 eligible using
// the download's seeded RNG. The bulk piece policy must reproduce this
// request order byte for byte — the refactor is behaviour-preserving for
// bulk downloads.
func oraclePick(sequential bool, have, remote *content.Bitfield, inflight map[int]int, rng *rand.Rand) int {
	n := have.Len()
	if sequential {
		for i := 0; i < n; i++ {
			if !have.Has(i) && remote.Has(i) && inflight[i] == 0 {
				return i
			}
		}
		return -1
	}
	var cands []int
	for i := 0; i < n && len(cands) < 32; i++ {
		if !have.Has(i) && remote.Has(i) && inflight[i] == 0 {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[rng.Intn(len(cands))]
}

// TestSchedulerMatchesPreRefactorOrder drives the bulk piece policy and
// the oracle through an entire simulated download — pick, mark in flight,
// deliver — and asserts the exact same piece order from identical seeds.
func TestSchedulerMatchesPreRefactorOrder(t *testing.T) {
	cases := []struct {
		name       string
		sequential bool
		pieces     int
		remoteGaps int // every k-th piece missing at the remote
		window     int // picks in flight before the oldest arrives
		seed       int64
	}{
		{name: "sequential/full-remote", sequential: true, pieces: 64, window: 1, seed: 1},
		{name: "sequential/sparse-remote", sequential: true, pieces: 64, remoteGaps: 3, window: 4, seed: 2},
		{name: "random/full-remote", pieces: 64, window: 1, seed: 7},
		{name: "random/sparse-remote", pieces: 100, remoteGaps: 5, window: 8, seed: 11},
		{name: "random/pipelined", pieces: 200, window: 16, seed: 42},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			remote := content.NewBitfield(tc.pieces)
			for i := 0; i < tc.pieces; i++ {
				if tc.remoteGaps > 0 && i%tc.remoteGaps == 0 {
					continue
				}
				remote.Set(i)
			}

			opts := DownloadOpts{sequential: tc.sequential}
			got := runSchedule(tc.pieces, tc.window, remote, rand.New(rand.NewSource(tc.seed)),
				func(have *content.Bitfield, inflight map[int]int, rng *rand.Rand) int {
					return nextPiece(opts, &streaming.PieceView{
						Have:     have,
						Remote:   remote,
						InFlight: func(i int) bool { return inflight[i] > 0 },
						Rand:     rng,
					})
				})
			want := runSchedule(tc.pieces, tc.window, remote, rand.New(rand.NewSource(tc.seed)),
				func(have *content.Bitfield, inflight map[int]int, rng *rand.Rand) int {
					return oraclePick(tc.sequential, have, remote, inflight, rng)
				})

			if len(got) != len(want) {
				t.Fatalf("picked %d pieces, oracle picked %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("pick %d: scheduler chose %d, pre-refactor logic chose %d\ngot  %v\nwant %v",
						i, got[i], want[i], got, want)
				}
			}
		})
	}
}

// runSchedule replays a download against one remote: keep up to `window`
// requests outstanding, deliver the oldest when the pipeline is full, and
// record every pick until nothing is eligible and nothing is in flight.
func runSchedule(pieces, window int, remote *content.Bitfield, rng *rand.Rand,
	pick func(have *content.Bitfield, inflight map[int]int, rng *rand.Rand) int) []int {
	have := content.NewBitfield(pieces)
	inflight := make(map[int]int)
	var pending []int // FIFO of outstanding requests
	var order []int
	for {
		p := pick(have, inflight, rng)
		if p >= 0 {
			order = append(order, p)
			inflight[p]++
			pending = append(pending, p)
		}
		if p < 0 || len(pending) >= window {
			if len(pending) == 0 {
				return order
			}
			idx := pending[0]
			pending = pending[1:]
			inflight[idx]--
			have.Set(idx)
		}
	}
}

// TestPiecePolicyByMode pins the mode-to-policy mapping: a streaming
// config installs the window policy, the sequential hook keeps its in-order
// meaning, and the default stays the randomized picker.
func TestPiecePolicyByMode(t *testing.T) {
	const pieces = 64
	have, remote := content.NewBitfield(pieces), content.NewBitfield(pieces)
	for i := 0; i < pieces; i++ {
		if i%3 != 0 {
			remote.Set(i)
		}
	}
	view := func(seed int64) *streaming.PieceView {
		return &streaming.PieceView{Have: have, Remote: remote,
			InFlight: func(int) bool { return false }, Rand: rand.New(rand.NewSource(seed))}
	}
	none := map[int]int{}
	stream := DownloadOpts{Streaming: &streaming.Config{BitrateBps: 1}}
	if got, want := nextPiece(stream, view(5)), (streaming.WindowScheduler{}).NextPiece(view(5)); got != want {
		t.Fatalf("streaming config picked %d, WindowScheduler picks %d", got, want)
	}
	if got, want := nextPiece(DownloadOpts{sequential: true}, view(5)), oraclePick(true, have, remote, none, nil); got != want {
		t.Fatalf("sequential hook picked %d, want in-order %d", got, want)
	}
	if got, want := nextPiece(DownloadOpts{}, view(5)), oraclePick(false, have, remote, none, rand.New(rand.NewSource(5))); got != want {
		t.Fatalf("default picked %d, randomized picker picks %d", got, want)
	}
}
