// Package streaming is the deadline-driven delivery model: a playback
// clock that turns a bitrate and a startup buffer into per-piece
// deadlines, and a sliding playback-window scheduler that requests
// urgent pieces first. The paper notes NetSession "also supports video
// streaming" (§3.4); this package supplies the machinery the binary
// sequential-download flag could not: startup delay, rebuffer events,
// deadline misses and urgent-window edge rescues as first-class,
// measurable outcomes.
//
// The model is clock-agnostic: every method takes "now" as milliseconds
// on whatever clock the caller runs — wall time for live downloads,
// virtual simulated time for internal/sim — so live and simulated
// streams produce identical metric semantics.
package streaming

import (
	"fmt"
	"sync"
)

// Config are the caller-tunable playback parameters. NumPieces and sizes
// come from the object manifest, not from here, so the same Config can be
// applied to any object (a CLI flag, a checkpoint, a scenario knob).
type Config struct {
	// BitrateBps is the playback consumption rate in bits per second.
	// Zero disables streaming (no session is created).
	BitrateBps int64
	// StartupPieces is how many contiguous pieces must be buffered
	// before playback starts. Zero selects DefaultStartupPieces.
	StartupPieces int
	// WindowPieces is the size of the urgent playback window: pieces
	// within WindowPieces of the playhead are fetched
	// earliest-deadline-first and may be rescued from the edge. Zero
	// selects DefaultWindowPieces.
	WindowPieces int
}

// Defaults for Config's zero values.
const (
	DefaultStartupPieces = 2
	DefaultWindowPieces  = 8
)

func (c Config) startupPieces() int {
	if c.StartupPieces <= 0 {
		return DefaultStartupPieces
	}
	return c.StartupPieces
}

func (c Config) windowPieces() int {
	if c.WindowPieces <= 0 {
		return DefaultWindowPieces
	}
	return c.WindowPieces
}

// Metrics is a snapshot of a session's streaming outcomes. All fields are
// plain sums so aggregates merge exactly across live reports, log records
// and simulated records.
type Metrics struct {
	BitrateBps      int64
	StartupDelayMs  int64 // request start → playback start (or stall-so-far if never started)
	RebufferCount   int64 // playback stalls after startup
	RebufferMs      int64 // total time paused in those stalls
	DeadlineMisses  int64 // pieces unavailable at their play deadline
	PiecesPlayed    int64
	PiecesTotal     int64
	EdgeRescueBytes int64 // urgent-window bytes fetched from the edge
	Done            bool
}

// DeadlineMissRatio is misses over pieces whose deadline has passed.
func (m Metrics) DeadlineMissRatio() float64 {
	if m.PiecesPlayed == 0 {
		return 0
	}
	return float64(m.DeadlineMisses) / float64(m.PiecesPlayed)
}

// Session is the playback clock for one streaming download. Piece i's
// deadline is startup + i play-durations after playback begins; when the
// next piece is missing at its deadline the clock pauses (a rebuffer) and
// every later deadline shifts by the stall, exactly like a real player.
//
// Sessions survive download-mode degradation: the clock keeps running when
// the transfer falls back to edge-only, so rebuffers under degradation are
// still observed and reported.
//
// All methods are safe for concurrent use.
type Session struct {
	cfg       Config
	numPieces int
	pieceDur  []int64 // play duration of each piece in ms (last piece may be short)

	mu        sync.Mutex
	have      []bool
	contig    int   // pieces [0, contig) are all available
	startMs   int64 // session creation (request start)
	started   bool
	startedAt int64
	playPos   int   // next piece to play
	nextNeed  int64 // deadline of piece playPos (valid once started)
	stalled   bool  // currently rebuffering
	stalledAt int64
	rebufCnt  int64
	rebufMs   int64
	misses    int64
	rescueB   int64
}

// NewSession creates a playback session for an object of numPieces pieces
// of pieceSize bytes (totalSize trims the final piece), starting its
// request clock at nowMs.
func NewSession(cfg Config, numPieces int, pieceSize int, totalSize int64, nowMs int64) (*Session, error) {
	if cfg.BitrateBps <= 0 {
		return nil, fmt.Errorf("streaming: bitrate must be positive, got %d", cfg.BitrateBps)
	}
	if numPieces <= 0 || pieceSize <= 0 {
		return nil, fmt.Errorf("streaming: invalid geometry: %d pieces of %d bytes", numPieces, pieceSize)
	}
	s := &Session{
		cfg:       cfg,
		numPieces: numPieces,
		pieceDur:  make([]int64, numPieces),
		have:      make([]bool, numPieces),
		startMs:   nowMs,
	}
	for i := range s.pieceDur {
		sz := int64(pieceSize)
		if totalSize > 0 {
			if rem := totalSize - int64(i)*int64(pieceSize); rem < sz {
				sz = rem
			}
		}
		if sz < 1 {
			sz = 1
		}
		// duration = bytes*8 / bitrate, in ms, at least 1ms so the
		// clock always advances.
		d := sz * 8 * 1000 / cfg.BitrateBps
		if d < 1 {
			d = 1
		}
		s.pieceDur[i] = d
	}
	return s, nil
}

// Config returns the session's playback parameters.
func (s *Session) Config() Config { return s.cfg }

// OnPiece records that piece idx became available at nowMs and advances
// the playback clock.
func (s *Session) OnPiece(idx int, nowMs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Run the clock up to now BEFORE admitting the piece: if its deadline
	// already passed, the player was stalled waiting for it and the stall
	// must be observed even though no tick fired in between.
	s.step(nowMs)
	if idx < 0 || idx >= s.numPieces || s.have[idx] {
		return
	}
	s.have[idx] = true
	for s.contig < s.numPieces && s.have[s.contig] {
		s.contig++
	}
	s.step(nowMs)
}

// Advance moves the playback clock to nowMs without new data.
func (s *Session) Advance(nowMs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.step(nowMs)
}

// step is the clock: called with s.mu held, time monotone per caller.
func (s *Session) step(nowMs int64) {
	if s.playPos >= s.numPieces {
		return
	}
	if !s.started {
		need := s.cfg.startupPieces()
		if need > s.numPieces {
			need = s.numPieces
		}
		if s.contig < need {
			return
		}
		s.started = true
		s.startedAt = nowMs
		s.nextNeed = nowMs // first piece plays immediately
	}
	// playPos counts pieces that have BEGUN playing; nextNeed is when the
	// latest of them finishes, i.e. when piece playPos must start.
	for s.playPos < s.numPieces {
		if nowMs < s.nextNeed {
			return // current piece still playing
		}
		if s.have[s.playPos] {
			if s.stalled {
				// The awaited piece arrived: the pause ends now and
				// every later deadline shifts by the stall length.
				s.rebufMs += nowMs - s.stalledAt
				s.stalled = false
				s.nextNeed = nowMs
			}
			s.nextNeed += s.pieceDur[s.playPos]
			s.playPos++
			continue
		}
		if !s.stalled {
			// Deadline missed: playback pauses where the buffer ran dry.
			s.stalled = true
			s.stalledAt = s.nextNeed
			if s.stalledAt < s.startedAt {
				s.stalledAt = s.startedAt
			}
			s.rebufCnt++
			s.misses++
		}
		return
	}
}

// AddEdgeRescue accounts n bytes fetched from the edge for an
// urgent-window piece (no peer could meet the deadline).
func (s *Session) AddEdgeRescue(n int64) {
	s.mu.Lock()
	s.rescueB += n
	s.mu.Unlock()
}

// Window returns the urgent window bounds [lo, hi).
func (s *Session) Window() (lo, hi int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo = s.playPos
	hi = s.playPos + s.cfg.windowPieces()
	if hi > s.numPieces {
		hi = s.numPieces
	}
	return lo, hi
}

// Metrics snapshots the session's streaming outcomes at nowMs. The clock
// is advanced to nowMs first so an in-progress stall is included.
func (s *Session) Metrics(nowMs int64) Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.step(nowMs)
	// A piece counts as played once its play duration has elapsed; the
	// piece begun but still on screen at nowMs is excluded.
	finished := int64(s.playPos)
	if s.playPos > 0 && nowMs < s.nextNeed {
		finished--
	}
	m := Metrics{
		BitrateBps:      s.cfg.BitrateBps,
		RebufferCount:   s.rebufCnt,
		RebufferMs:      s.rebufMs,
		DeadlineMisses:  s.misses,
		PiecesPlayed:    finished,
		PiecesTotal:     int64(s.numPieces),
		EdgeRescueBytes: s.rescueB,
		Done:            s.playPos >= s.numPieces && nowMs >= s.nextNeed,
	}
	if s.started {
		m.StartupDelayMs = s.startedAt - s.startMs
	} else {
		m.StartupDelayMs = nowMs - s.startMs
	}
	if s.stalled && nowMs > s.stalledAt {
		m.RebufferMs += nowMs - s.stalledAt
	}
	return m
}
