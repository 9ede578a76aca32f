package sim

import (
	"strings"
	"testing"
)

// mustPanicWith runs f and fails unless it panics with a message containing
// want.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one naming %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one naming %q", r, want)
		}
	}()
	f()
}

// TestEngineKeyBounds: the packed heap key holds 32 bits of virtual time and
// 32 bits of sequence number. Scheduling past either limit must fail loudly
// instead of wrapping into an earlier key and misordering events.
func TestEngineKeyBounds(t *testing.T) {
	nop := func(uint64) {}

	var e Engine
	e.At(maxEventMs, nop, 0) // the last representable millisecond is fine
	mustPanicWith(t, "2^32 ms", func() { e.At(maxEventMs+1, nop, 0) })
	mustPanicWith(t, "2^32 ms", func() { e.After(1<<40, nop, 0) })

	var s Engine
	s.seq = maxSeq - 1
	s.At(5, nop, 0) // takes the last sequence number
	mustPanicWith(t, "2^32 limit", func() { s.At(5, nop, 0) })
	if got := s.Run(10); got != 1 {
		t.Fatalf("ran %d events, want the 1 scheduled before the limit", got)
	}
}

// TestEngineSlotReuse: payload slots freed by popped events are reused, so
// the slot array stays as large as the most events ever pending at once,
// and a reused slot runs its new handler, not the old one.
func TestEngineSlotReuse(t *testing.T) {
	var e Engine
	var got []uint64
	rec := func(arg uint64) { got = append(got, arg) }
	for round := uint64(0); round < 3; round++ {
		e.After(1, rec, round*10+1)
		e.After(1, rec, round*10+2)
		e.Run(e.Now() + 1)
	}
	want := []uint64{1, 2, 11, 12, 21, 22}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
	if len(e.slots) != 2 {
		t.Fatalf("%d payload slots after three rounds of two events, want 2", len(e.slots))
	}
	for i, p := range e.slots {
		if p.fn != nil {
			t.Fatalf("slot %d still holds a handler after its event ran", i)
		}
	}
}

// TestRunRefusesDaysPastTheClock: a scenario too long for the engine's
// clock is refused up front, not run into the engine's panic.
func TestRunRefusesDaysPastTheClock(t *testing.T) {
	cfg := SmallScenario()
	cfg.Days = maxDays + 1
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "2^32 ms") {
		t.Fatalf("Run(%d days) = %v, want an error naming the clock limit", cfg.Days, err)
	}
	if end := int64(maxDays+2+cacheTTLHours/24) * 86_400_000; end > maxEventMs {
		t.Fatalf("maxDays leaves events at %d ms, past the %d ms limit", end, int64(maxEventMs))
	}
}
