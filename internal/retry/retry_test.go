package retry

import (
	"math/rand"
	"testing"
	"time"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	b := &Backoff{Base: 100 * time.Millisecond, Max: 800 * time.Millisecond, exact: true}
	want := []time.Duration{100, 200, 400, 800, 800}
	for i, w := range want {
		got := b.Next()
		if got != w*time.Millisecond {
			t.Fatalf("attempt %d: got %v, want %v", i, got, w*time.Millisecond)
		}
	}
	b.Reset()
	if got := b.Next(); got != 100*time.Millisecond {
		t.Fatalf("after Reset: got %v, want 100ms", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := &Backoff{Base: 100 * time.Millisecond, Max: time.Second,
		rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 100; i++ {
		b.Reset()
		d := b.Next()
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside [50ms,150ms]", d)
		}
	}
}

func TestBackoffDeterministicWithSeed(t *testing.T) {
	mk := func() []time.Duration {
		b := &Backoff{Base: 10 * time.Millisecond, rng: rand.New(rand.NewSource(42))}
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, c := mk(), mk()
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], c[i])
		}
	}
}

// fakeClock drives breaker cooldowns without sleeping.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time          { return f.now }
func (f *fakeClock) advance(d time.Duration) { f.now = f.now.Add(d) }

func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	trips := 0
	br := NewBreaker(BreakerConfig{
		Threshold: 2, Cooldown: time.Second, MaxCooldown: 4 * time.Second,
		Now: clk.Now, OnTrip: func() { trips++ },
	})

	if !br.Allow() {
		t.Fatal("closed breaker must allow")
	}
	br.Failure()
	if br.State() != Closed {
		t.Fatal("one failure below threshold must not trip")
	}
	br.Failure()
	if br.State() != Open || trips != 1 {
		t.Fatalf("two failures must trip: state=%v trips=%d", br.State(), trips)
	}
	if br.Allow() {
		t.Fatal("open breaker within cooldown must reject")
	}

	// After the cooldown a single half-open probe is admitted.
	clk.advance(time.Second)
	if !br.Allow() {
		t.Fatal("must admit half-open probe after cooldown")
	}
	if br.Allow() {
		t.Fatal("second caller during half-open probe must be rejected")
	}

	// Failed probe re-opens with doubled cooldown.
	br.Failure()
	if br.State() != Open || trips != 2 {
		t.Fatalf("failed probe must re-open: state=%v trips=%d", br.State(), trips)
	}
	clk.advance(time.Second)
	if br.Allow() {
		t.Fatal("doubled cooldown: 1s must not be enough")
	}
	clk.advance(time.Second)
	if !br.Allow() {
		t.Fatal("doubled cooldown elapsed: probe must be admitted")
	}

	// Successful probe closes and resets failure count and cooldown.
	br.Success()
	if br.State() != Closed {
		t.Fatal("successful probe must close the breaker")
	}
	br.Failure()
	if br.State() != Closed {
		t.Fatal("failure count must reset on success")
	}
	if got := br.Trips(); got != 2 {
		t.Fatalf("Trips() = %d, want 2", got)
	}
}

func TestBreakerCooldownCap(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	br := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second, MaxCooldown: 2 * time.Second, Now: clk.Now})
	br.Failure() // trip
	for i := 0; i < 5; i++ {
		clk.advance(time.Hour)
		if !br.Allow() {
			t.Fatalf("round %d: probe not admitted", i)
		}
		br.Failure() // probe fails, cooldown doubles (capped)
	}
	clk.advance(2 * time.Second)
	if !br.Allow() {
		t.Fatal("cooldown must be capped at MaxCooldown")
	}
}
