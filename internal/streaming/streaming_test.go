package streaming

import (
	"math/rand"
	"testing"

	"netsession/internal/content"
)

// sessionFor builds a 10-piece, 1 MiB/piece, 8 Mbps session: each piece
// plays for exactly 1000ms.
func sessionFor(t *testing.T, cfg Config) *Session {
	t.Helper()
	s, err := NewSession(cfg, 10, 1<<20, 10<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionSmoothPlayback(t *testing.T) {
	s := sessionFor(t, Config{BitrateBps: 8 << 20, StartupPieces: 2})
	// Pieces arrive every 500ms — faster than the 1000ms play duration.
	for i := 0; i < 10; i++ {
		s.OnPiece(i, int64(i)*500)
	}
	// Playback started at 500ms (two contiguous pieces) and never stalled;
	// the last piece finishes 10s after startup.
	m := s.Metrics(500 + 10_000)
	if m.StartupDelayMs != 500 {
		t.Fatalf("startup delay = %dms, want 500", m.StartupDelayMs)
	}
	if m.RebufferCount != 0 || m.RebufferMs != 0 || m.DeadlineMisses != 0 {
		t.Fatalf("unexpected stalls: %+v", m)
	}
	if !m.Done || m.PiecesPlayed != 10 {
		t.Fatalf("not done: %+v", m)
	}
}

func TestSessionRebuffer(t *testing.T) {
	s := sessionFor(t, Config{BitrateBps: 8 << 20, StartupPieces: 1})
	s.OnPiece(0, 0) // playback starts at 0, piece 1 needed at 1000ms
	s.OnPiece(1, 3500)
	for i := 2; i < 10; i++ {
		s.OnPiece(i, 3500) // rest arrives in a burst
	}
	m := s.Metrics(20_000)
	if m.RebufferCount != 1 {
		t.Fatalf("rebuffer count = %d, want 1", m.RebufferCount)
	}
	// Stalled from the missed deadline (1000ms) until arrival (3500ms).
	if m.RebufferMs != 2500 {
		t.Fatalf("rebuffer ms = %d, want 2500", m.RebufferMs)
	}
	if m.DeadlineMisses != 1 {
		t.Fatalf("deadline misses = %d, want 1", m.DeadlineMisses)
	}
	if !m.Done {
		t.Fatalf("not done: %+v", m)
	}
}

func TestSessionStartupNeverCompletes(t *testing.T) {
	s := sessionFor(t, Config{BitrateBps: 8 << 20, StartupPieces: 4})
	s.OnPiece(0, 100)
	m := s.Metrics(9000)
	if m.StartupDelayMs != 9000 {
		t.Fatalf("unstarted session should report elapsed wait, got %d", m.StartupDelayMs)
	}
	if m.RebufferCount != 0 || m.PiecesPlayed != 0 {
		t.Fatalf("unexpected progress: %+v", m)
	}
}

func TestSessionOutOfOrderArrival(t *testing.T) {
	s := sessionFor(t, Config{BitrateBps: 8 << 20, StartupPieces: 2})
	// Tail arrives first; startup waits for the contiguous prefix.
	for i := 9; i >= 2; i-- {
		s.OnPiece(i, 10)
	}
	s.OnPiece(1, 700)
	s.OnPiece(0, 800) // contiguous prefix of 2 completes here
	m := s.Metrics(800 + 10_000)
	if m.StartupDelayMs != 800 {
		t.Fatalf("startup delay = %d, want 800", m.StartupDelayMs)
	}
	if m.RebufferCount != 0 || !m.Done {
		t.Fatalf("bad outcome: %+v", m)
	}
}

func TestSessionWindowTracksPlayhead(t *testing.T) {
	s := sessionFor(t, Config{BitrateBps: 8 << 20, StartupPieces: 1, WindowPieces: 3})
	if lo, hi := s.Window(); lo != 0 || hi != 3 {
		t.Fatalf("initial window = [%d,%d), want [0,3)", lo, hi)
	}
	for i := 0; i < 5; i++ {
		s.OnPiece(i, 0)
	}
	// At 4500ms piece 4 is on screen, so piece 5 is the next the player
	// needs: the urgent window anchors there.
	s.Advance(4500)
	if lo, hi := s.Window(); lo != 5 || hi != 8 {
		t.Fatalf("window = [%d,%d), want [5,8)", lo, hi)
	}
}

func TestSessionLastPieceShort(t *testing.T) {
	// 2.5 MiB object: pieces of 1 MiB, 1 MiB, 0.5 MiB at 8 Mbps play for
	// 1000, 1000, 500 ms.
	s, err := NewSession(Config{BitrateBps: 8 << 20, StartupPieces: 1}, 3, 1<<20, 5<<19, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.OnPiece(i, 0)
	}
	if m := s.Metrics(2499); m.Done {
		t.Fatal("finished before the short last piece played out")
	}
	if m := s.Metrics(2500); !m.Done {
		t.Fatal("short last piece should finish at 2500ms")
	}
}

func viewFor(have, remote *content.Bitfield, inflight map[int]bool, sess *Session, avail func(int) int) *PieceView {
	return &PieceView{
		Have:     have,
		Remote:   remote,
		InFlight: func(i int) bool { return inflight[i] },
		Avail:    avail,
		Rand:     rand.New(rand.NewSource(1)),
		Session:  sess,
	}
}

func fullBitfield(n int) *content.Bitfield {
	bf := content.NewBitfield(n)
	for i := 0; i < n; i++ {
		bf.Set(i)
	}
	return bf
}

func TestWindowSchedulerUrgentFirst(t *testing.T) {
	s, err := NewSession(Config{BitrateBps: 8 << 20, StartupPieces: 1, WindowPieces: 4}, 32, 1<<20, 32<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	have := content.NewBitfield(32)
	remote := fullBitfield(32)
	v := viewFor(have, remote, map[int]bool{0: true}, s, nil)
	// Piece 0 is in flight: EDF inside the window picks piece 1, not a
	// random beyond-window piece.
	if got := (WindowScheduler{}).NextPiece(v); got != 1 {
		t.Fatalf("urgent pick = %d, want 1", got)
	}
	// With the whole window in flight or held, fall through to the tail.
	for i := 0; i < 4; i++ {
		have.Set(i)
	}
	if got := (WindowScheduler{}).NextPiece(v); got < 4 {
		t.Fatalf("beyond-window pick = %d, want >= 4", got)
	}
}

func TestWindowSchedulerRarestBeyondWindow(t *testing.T) {
	s, err := NewSession(Config{BitrateBps: 8 << 20, StartupPieces: 1, WindowPieces: 2}, 16, 1<<20, 16<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	have := content.NewBitfield(16)
	have.Set(0)
	have.Set(1) // window [0,2) satisfied
	remote := fullBitfield(16)
	avail := func(i int) int {
		if i == 11 {
			return 1 // piece 11 is the rarest
		}
		return 5
	}
	v := viewFor(have, remote, nil, s, avail)
	for trial := 0; trial < 8; trial++ {
		if got := (WindowScheduler{}).NextPiece(v); got != 11 {
			t.Fatalf("rarest pick = %d, want 11", got)
		}
	}
}

func TestWindowSchedulerNothingEligible(t *testing.T) {
	have := fullBitfield(8)
	remote := fullBitfield(8)
	v := viewFor(have, remote, nil, nil, nil)
	if got := (WindowScheduler{}).NextPiece(v); got != -1 {
		t.Fatalf("pick = %d, want -1", got)
	}
}

// benchWindowView is the streaming hot path's fixture: one urgent-window
// decision over a 1000-piece object with a half-full local bitfield.
func benchWindowView(tb testing.TB) *PieceView {
	const n = 1000
	s, err := NewSession(Config{BitrateBps: 8 << 20, WindowPieces: 16}, n, 1<<20, n<<20, 0)
	if err != nil {
		tb.Fatal(err)
	}
	have := content.NewBitfield(n)
	for i := 0; i < n; i += 2 {
		have.Set(i)
	}
	return &PieceView{
		Have:     have,
		Remote:   fullBitfield(n),
		InFlight: func(int) bool { return false },
		Avail:    func(i int) int { return 1 + i%7 },
		Rand:     rand.New(rand.NewSource(7)),
		Session:  s,
	}
}

// BenchmarkWindowScheduler times the decision recorded in
// BENCH_streaming.json.
func BenchmarkWindowScheduler(b *testing.B) {
	v := benchWindowView(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if (WindowScheduler{}).NextPiece(v) < 0 {
			b.Fatal("no pick")
		}
	}
}

// TestWindowSchedulerAllocFree: a piece decision runs on every request a
// streaming download sends, so it allocates nothing.
func TestWindowSchedulerAllocFree(t *testing.T) {
	v := benchWindowView(t)
	if allocs := testing.AllocsPerRun(100, func() { (WindowScheduler{}).NextPiece(v) }); allocs != 0 {
		t.Fatalf("NextPiece allocates %v times per call, want 0", allocs)
	}
}
