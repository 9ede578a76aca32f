package peer

import "sync"

// Preferences is the user-visible preference surface of the NetSession
// Interface. "NetSession Interface users have the option to turn off peer
// content uploads permanently or temporarily in the NetSession application
// preferences, without adverse effects on their download performance"
// (§3.4). It is safe for concurrent use.
type Preferences struct {
	mu             sync.Mutex
	uploadsEnabled bool
	changes        int
	onChange       []func(enabled bool)
}

// NewPreferences creates preferences with the bundled default.
func NewPreferences(uploadsEnabled bool) *Preferences {
	return &Preferences{uploadsEnabled: uploadsEnabled}
}

// UploadsEnabled reports the current setting.
func (p *Preferences) UploadsEnabled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.uploadsEnabled
}

// SetUploadsEnabled flips the setting and notifies observers. It returns
// true if the value changed.
func (p *Preferences) SetUploadsEnabled(v bool) bool {
	p.mu.Lock()
	if p.uploadsEnabled == v {
		p.mu.Unlock()
		return false
	}
	p.uploadsEnabled = v
	p.changes++
	obs := make([]func(bool), len(p.onChange))
	copy(obs, p.onChange)
	p.mu.Unlock()
	for _, f := range obs {
		f(v)
	}
	return true
}

// Changes returns how many times the setting was flipped (the Table 3
// quantity).
func (p *Preferences) Changes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.changes
}

// Observe registers a callback invoked on every change.
func (p *Preferences) Observe(f func(enabled bool)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onChange = append(p.onChange, f)
}
