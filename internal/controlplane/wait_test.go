package controlplane

import (
	"testing"
	"time"
)

// eventually polls cond every few milliseconds until it holds or the
// timeout elapses, reporting whether it held. Tests use it instead of fixed
// sleeps so -race runs on loaded machines don't flake on timing; it also
// turns "wait then assert nothing happened" into a bounded watch that fails
// the moment the forbidden state appears.
func eventually(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// waitUntil is eventually with a fatal failure: the test dies with msg when
// cond never holds within the timeout.
func waitUntil(t testing.TB, timeout time.Duration, cond func() bool, msg string, args ...any) {
	t.Helper()
	if !eventually(timeout, cond) {
		t.Fatalf(msg, args...)
	}
}
