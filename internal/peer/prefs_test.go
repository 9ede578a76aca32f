package peer

import (
	"sync"
	"testing"
)

func TestPreferencesChangesAndObservers(t *testing.T) {
	p := NewPreferences(false)
	if p.UploadsEnabled() {
		t.Fatal("default not honoured")
	}
	var notified []bool
	var mu sync.Mutex
	p.Observe(func(v bool) {
		mu.Lock()
		notified = append(notified, v)
		mu.Unlock()
	})
	if !p.SetUploadsEnabled(true) {
		t.Fatal("change not reported")
	}
	if p.SetUploadsEnabled(true) {
		t.Fatal("no-op change reported")
	}
	if !p.SetUploadsEnabled(false) {
		t.Fatal("second change not reported")
	}
	if p.Changes() != 2 {
		t.Fatalf("Changes=%d, want 2", p.Changes())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(notified) != 2 || notified[0] != true || notified[1] != false {
		t.Fatalf("observer saw %v", notified)
	}
}
