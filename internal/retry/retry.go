// Package retry is the shared resilience layer: jittered exponential
// backoff and per-target circuit breakers. Every
// unreliable path in the system — edge HTTP fetches, the persistent control
// connection, swarm dialing — goes through it, which is what lets the client
// keep "all of the benefits of a conventional CDN" (§3.3) when peers,
// servers or the network misbehave: failures are retried with decorrelated
// delays instead of fixed sleeps, and persistently failing targets are
// quarantined instead of hammered.
package retry

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Defaults used when Backoff fields are zero.
const (
	DefaultBase = 200 * time.Millisecond
	DefaultMax  = 30 * time.Second
)

const (
	// backoffFactor is the growth of the delay per attempt.
	backoffFactor = 2.0
	// backoffJitter is the fraction of each delay that is randomized.
	backoffJitter = 0.5
)

// Backoff produces jittered exponential delays: attempt n waits roughly
// Base·2ⁿ, capped at Max, with each delay drawn uniformly from
// [d·0.5, d·1.5] so synchronized clients decorrelate — the thundering-herd
// concern behind the control plane's rate-limited reconnection (§3.8). Not
// safe for concurrent use; each retry loop owns one.
type Backoff struct {
	Base time.Duration // first delay; zero selects DefaultBase
	Max  time.Duration // cap on the un-jittered delay; zero selects DefaultMax

	attempt int
	// rng draws the jitter; nil lazily seeds a private one. Tests seed it.
	rng *rand.Rand
	// exact turns the jitter off, for tests that assert exact delays.
	exact bool
}

// Next returns the delay before the upcoming attempt and advances the
// schedule.
func (b *Backoff) Next() time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = DefaultBase
	}
	if max <= 0 {
		max = DefaultMax
	}
	d := float64(base)
	for i := 0; i < b.attempt; i++ {
		d *= backoffFactor
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	b.attempt++
	if !b.exact {
		if b.rng == nil {
			b.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		d *= 1 - backoffJitter + 2*backoffJitter*b.rng.Float64()
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Reset restarts the schedule after a success.
func (b *Backoff) Reset() { b.attempt = 0 }

// State is a circuit breaker's position.
type State int32

const (
	// Closed passes traffic and counts consecutive failures.
	Closed State = iota
	// Open rejects traffic until the cooldown elapses.
	Open
	// HalfOpen lets exactly one probe through; its outcome decides.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// BreakerConfig tunes a Breaker; the zero value selects the defaults.
type BreakerConfig struct {
	// Threshold is how many consecutive failures trip the breaker; zero
	// selects 3.
	Threshold int
	// Cooldown is how long a freshly tripped breaker stays open before a
	// half-open probe; zero selects 1s. Consecutive trips double it.
	Cooldown time.Duration
	// MaxCooldown caps the doubling; zero selects 30s.
	MaxCooldown time.Duration
	// Now supplies time (tests inject a fake clock); nil uses time.Now.
	Now func() time.Time
	// OnTrip runs (outside the breaker lock) every time the breaker opens;
	// telemetry hooks go here.
	OnTrip func()
}

// Breaker is a per-target circuit breaker. Closed it passes everything and
// counts consecutive failures; at Threshold it opens and rejects; after
// Cooldown it lets one probe through (half-open) and closes on success or
// re-opens with a doubled cooldown on failure. All methods are safe for
// concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int
	cooldown time.Duration
	probeAt  time.Time
	trips    int64
}

// NewBreaker creates a breaker with the given configuration.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = time.Second
	}
	if cfg.MaxCooldown <= 0 {
		cfg.MaxCooldown = 30 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg, cooldown: cfg.Cooldown}
}

// Allow reports whether a call may proceed now. When the breaker is open and
// the cooldown has elapsed it admits exactly one caller as the half-open
// probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if !b.cfg.Now().Before(b.probeAt) {
			b.state = HalfOpen
			return true
		}
		return false
	default: // HalfOpen: a probe is already in flight
		return false
	}
}

// Success records a successful call, closing the breaker and resetting the
// failure count and cooldown.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.failures = 0
	b.cooldown = b.cfg.Cooldown
}

// Failure records a failed call: in the closed state it counts toward the
// trip threshold; a failed half-open probe re-opens with a doubled cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	var tripped bool
	switch b.state {
	case HalfOpen:
		b.cooldown *= 2
		if b.cooldown > b.cfg.MaxCooldown {
			b.cooldown = b.cfg.MaxCooldown
		}
		b.open()
		tripped = true
	case Closed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.open()
			tripped = true
		}
	}
	onTrip := b.cfg.OnTrip
	b.mu.Unlock()
	if tripped && onTrip != nil {
		onTrip()
	}
}

// open transitions to Open; callers hold b.mu.
func (b *Breaker) open() {
	b.state = Open
	b.failures = 0
	b.probeAt = b.cfg.Now().Add(b.cooldown)
	b.trips++
}

// State returns the breaker's current position (Open may report HalfOpen
// only after an Allow admitted the probe).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Failures returns the consecutive failures counted since the last success
// or trip.
func (b *Breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
