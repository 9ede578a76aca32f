// Package sim is the discrete-event simulator that stands in for the
// paper's production deployment. It executes the same directory, selection,
// policy and accounting code as the live system, but models data transfer at
// flow level: every download is a fluid flow fed by one edge connection and
// up to several peer connections, each serving peer dividing its uplink
// fairly across the downloads it serves, and each download capped by its
// own downlink. A month of virtual time with hundreds of thousands of peers
// runs in seconds, which is what makes regenerating the paper's figures
// tractable.
//
// The simulator is sharded by control-plane network region: peers only ever
// interact with peers of their own region (§3.7 — CNs query only local DNs),
// so each region runs as an independent single-goroutine event loop and the
// per-region logs are merged deterministically afterwards.
package sim

import "fmt"

// Engine is a minimal discrete-event executor over a virtual millisecond
// clock. Each engine instance is single-goroutine by design: determinism
// beats intra-shard parallelism for reproducing figures.
//
// The queue is a 4-ary implicit heap whose array holds no pointers. Each
// heap item is a packed key — virtual ms in the high 32 bits, a FIFO
// sequence number in the low 32 — plus the index of a payload slot, so one
// integer compare orders two events, a sift moves 16-byte values without a
// GC write barrier, and the GC never scans the heap array (the queue of a
// month-scale run holds hundreds of thousands of pending events). The
// (fn, arg) payloads live in a slot array recycled through a LIFO free list:
// a slot is written once when its event is scheduled and cleared once when
// it is popped. The packing bounds an engine to event times below 2³² ms
// (49.7 days) and to 2³² scheduled events; At panics past either limit
// rather than misorder events.
//
// Handlers take a caller-packed uint64 argument instead of closing over
// their state: a shard binds each handler once (a method value stored in a
// struct field) and packs peer indexes, download slots and epochs into the
// arg. At million-peer scale this removes one closure allocation per
// scheduled event — hundreds of millions per run — and two long-lived
// closures per peer.
type Engine struct {
	now      int64
	seq      uint64
	executed int
	heap     []heapItem
	slots    []payload
	free     []uint32 // unused slots, reused last-freed first
}

// heapItem orders one pending event: key is tMs<<32 | seq.
type heapItem struct {
	key  uint64
	slot uint32
}

// payload is a pending event's handler and its packed argument.
type payload struct {
	fn  func(arg uint64)
	arg uint64
}

// maxEventMs and maxSeq are the packed key's bounds: 32 bits of virtual
// milliseconds (49.7 days) and 32 bits of sequence number per engine.
const (
	maxEventMs = 1<<32 - 1
	maxSeq     = 1<<32 - 1
)

// Now returns the current virtual time in milliseconds.
func (e *Engine) Now() int64 { return e.now }

// Executed returns the cumulative number of events run so far; the periodic
// telemetry snapshots read it mid-run to compute events/sec.
func (e *Engine) Executed() int { return e.executed }

// Pending returns the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return len(e.heap) }

// At schedules fn(arg) at virtual time tMs; times in the past run "now".
func (e *Engine) At(tMs int64, fn func(uint64), arg uint64) {
	if tMs < e.now {
		tMs = e.now
	}
	if tMs > maxEventMs {
		panic(fmt.Sprintf("sim: event at %d ms is past the engine's 2^32 ms (49.7-day) limit", tMs))
	}
	if e.seq >= maxSeq {
		panic(fmt.Sprintf("sim: engine has scheduled %d events, the 2^32 limit of its sequence numbers", e.seq))
	}
	e.seq++
	var slot uint32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[slot] = payload{fn: fn, arg: arg}
	} else {
		slot = uint32(len(e.slots))
		e.slots = append(e.slots, payload{fn: fn, arg: arg})
	}
	e.heap = append(e.heap, heapItem{key: uint64(tMs)<<32 | e.seq, slot: slot})
	e.siftUp(len(e.heap) - 1)
}

// After schedules fn(arg) dMs from now.
func (e *Engine) After(dMs int64, fn func(uint64), arg uint64) { e.At(e.now+dMs, fn, arg) }

// Run executes events in order until the queue drains or the clock passes
// untilMs. It returns the number of events executed.
func (e *Engine) Run(untilMs int64) int {
	n := 0
	for len(e.heap) > 0 {
		top := e.heap[0]
		t := int64(top.key >> 32)
		if t > untilMs {
			break
		}
		e.now = t
		p := e.slots[top.slot]
		e.slots[top.slot] = payload{} // drop the closure reference
		e.free = append(e.free, top.slot)
		e.pop()
		p.fn(p.arg)
		n++
		e.executed++
	}
	if e.now < untilMs {
		e.now = untilMs
	}
	return n
}

// pop removes the minimum heap item.
func (e *Engine) pop() {
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(0)
	}
}

// siftUp restores heap order from child i upward (4-ary: parent = (i-1)/4).
func (e *Engine) siftUp(i int) {
	h := e.heap
	it := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if it.key >= h[p].key {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

// siftDown restores heap order from parent i downward
// (4-ary: children = 4i+1 … 4i+4).
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	it := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].key < h[best].key {
				best = c
			}
		}
		if h[best].key >= it.key {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = it
}
