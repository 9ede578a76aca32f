package analysis

import (
	"fmt"
	"math"
	"testing"
)

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{0, 1, 10, 500, 5_000, 50_000, 500_000} {
		h := NewHLL()
		for i := 0; i < n; i++ {
			h.Add(fmt.Sprintf("guid-%d", i))
		}
		got := h.Estimate()
		if n == 0 {
			if got != 0 {
				t.Errorf("empty sketch estimates %.1f, want 0", got)
			}
			continue
		}
		relErr := math.Abs(got-float64(n)) / float64(n)
		if relErr > 0.02 {
			t.Errorf("n=%d: estimate %.0f, relative error %.3f > 2%%", n, got, relErr)
		}
	}
}

func TestHLLDuplicatesDoNotInflate(t *testing.T) {
	h := NewHLL()
	for round := 0; round < 10; round++ {
		for i := 0; i < 1000; i++ {
			h.Add(fmt.Sprintf("guid-%d", i))
		}
	}
	got := h.Estimate()
	if math.Abs(got-1000)/1000 > 0.02 {
		t.Errorf("10x-repeated 1000 elements estimate %.0f, want ~1000", got)
	}
}

func TestHLLMergeIsUnion(t *testing.T) {
	a, b := NewHLL(), NewHLL()
	for i := 0; i < 2000; i++ {
		a.Add(fmt.Sprintf("guid-%d", i))
	}
	// b overlaps a on [1000, 2000) and adds [2000, 3000).
	for i := 1000; i < 3000; i++ {
		b.Add(fmt.Sprintf("guid-%d", i))
	}
	a.Merge(b)
	got := a.Estimate()
	if math.Abs(got-3000)/3000 > 0.02 {
		t.Errorf("union estimate %.0f, want ~3000 (overlap must not double-count)", got)
	}
}

func TestHLLSerializationRoundTrip(t *testing.T) {
	h := NewHLL()
	for i := 0; i < 1234; i++ {
		h.Add(fmt.Sprintf("guid-%d", i))
	}
	r, err := HLLFromBytes(h.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Estimate() != h.Estimate() {
		t.Errorf("round-trip estimate %.2f != original %.2f", r.Estimate(), h.Estimate())
	}
	if _, err := HLLFromBytes(make([]byte, 7)); err == nil {
		t.Error("HLLFromBytes accepted a bad register count")
	}
	// The largest rank Add can write is accepted, anything above is not.
	regs := h.Bytes()
	regs[5] = hllMaxRank
	if _, err := HLLFromBytes(regs); err != nil {
		t.Errorf("maximum rank rejected: %v", err)
	}
	regs[5] = 64
	if _, err := HLLFromBytes(regs); err == nil {
		t.Error("HLLFromBytes accepted a register of 64 (Estimate would divide by 2^64 = 0)")
	}
	empty, err := HLLFromBytes(nil)
	if err != nil || empty.Estimate() != 0 {
		t.Errorf("nil bytes: sketch=%v err=%v, want empty sketch", empty, err)
	}
}
