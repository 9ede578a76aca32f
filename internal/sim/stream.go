package sim

import (
	"math"

	"netsession/internal/accounting"
	"netsession/internal/content"
)

// streamState is the fluid-flow analog of a live client's playback session
// (internal/streaming): the download already advances its byte counters
// piecewise-linearly between events, so playback is advanced analytically
// over the same segments instead of piece by piece. Within one accrual
// segment the download rate r is constant, playback drains at the bitrate c,
// and the buffer b(t) = done(t) - played(t) evolves linearly — so startup
// crossings, buffer-empty points and stall fractions all have closed forms.
type streamState struct {
	rateBytesMs  float64 // playback consumption c, bytes per virtual ms
	startupBytes float64 // buffer needed before playback starts
	pieceBytes   float64 // for converting byte totals to piece tallies

	doneBytes float64 // mirror of the download's accrued bytes
	played    float64 // bytes consumed by the player

	started   bool
	startupMs float64 // elapsed until the startup buffer filled

	starved    bool // playback currently rebuffering
	rebufCount int64
	rebufMs    float64
	// rescueBytes attributes edge bytes that arrived during stalled wall
	// time — the fluid analog of the live client's urgent-window edge
	// rescues.
	rescueBytes float64
}

func newStreamState(cfg *ScenarioConfig) *streamState {
	piece := float64(cfg.Catalog.PieceSize)
	if piece <= 0 {
		piece = float64(content.DefaultPieceSize)
	}
	return &streamState{
		rateBytesMs:  float64(cfg.StreamBitrateBps) / 8000,
		startupBytes: streamStartupPieces * piece,
		pieceBytes:   piece,
	}
}

// advance folds one accrual segment into the playback model: dt virtual ms
// during which the download received `added` bytes (`edgeAdded` of them from
// the edge) toward a `total`-byte object.
func (st *streamState) advance(dt, added, edgeAdded, total float64) {
	if dt <= 0 {
		return
	}
	r := added / dt
	done0 := st.doneBytes
	st.doneBytes += added
	elapsed := 0.0 // portion of the segment consumed by the startup phase
	if !st.started {
		need := math.Min(st.startupBytes, total)
		if st.doneBytes < need {
			st.startupMs += dt
			return
		}
		if done0 < need && r > 0 {
			elapsed = (need - done0) / r
		}
		st.startupMs += elapsed
		st.started = true
	}
	rem := dt - elapsed
	c := st.rateBytesMs
	if rem <= 0 || c <= 0 || st.played >= total {
		return
	}
	if st.starved && r >= c {
		st.starved = false // arrivals outpace playback again
	}
	if !st.starved {
		buffer := done0 + r*elapsed - st.played
		if c <= r || buffer >= (c-r)*rem {
			// The buffer never empties this segment.
			st.played = math.Min(st.played+c*rem, total)
			return
		}
		// Buffer empties mid-segment: smooth until the crossing, then the
		// player enters a rebuffer.
		x := buffer / (c - r)
		st.played += c * x
		rem -= x
		st.starved = true
		st.rebufCount++
	}
	// Starved tail: playback is gated by arrivals, so it progresses at r and
	// stalls for the remaining (1 - r/c) fraction of the wall time. Edge
	// bytes landing during that stalled time are the rescue contribution.
	stallFrac := 1 - r/c
	st.played = math.Min(st.played+r*rem, total)
	st.rebufMs += rem * stallFrac
	st.rescueBytes += edgeAdded * (rem * stallFrac) / dt
}

// finalize converts the playback state into the accounting sub-record at
// download end. A finished download's remaining buffer drains without
// further stalls, so played snaps to the bytes actually delivered.
func (st *streamState) finalize(cfg *ScenarioConfig, startMs, endMs int64, total float64) *accounting.StreamStats {
	played := math.Min(st.doneBytes, total)
	piecesTotal := int64(math.Ceil(total / st.pieceBytes))
	piecesPlayed := int64(math.Ceil(played / st.pieceBytes))
	if piecesPlayed > piecesTotal {
		piecesPlayed = piecesTotal
	}
	startup := int64(math.Round(st.startupMs))
	if !st.started {
		startup = endMs - startMs // still waiting when the download ended
	}
	return &accounting.StreamStats{
		BitrateBps:     cfg.StreamBitrateBps,
		StartupDelayMs: startup,
		RebufferCount:  st.rebufCount,
		RebufferMs:     int64(math.Round(st.rebufMs)),
		// A stall shifts every later deadline, so exactly the first piece of
		// each rebuffer misses — the live session counts the same way.
		DeadlineMisses:  st.rebufCount,
		PiecesPlayed:    piecesPlayed,
		PiecesTotal:     piecesTotal,
		EdgeRescueBytes: int64(st.rescueBytes),
	}
}
