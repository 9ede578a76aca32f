package nat

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"netsession/internal/protocol"
)

func TestCanConnectMatrix(t *testing.T) {
	N, F, R, P, S, B := protocol.NATNone, protocol.NATFullCone,
		protocol.NATRestricted, protocol.NATPortRestricted,
		protocol.NATSymmetric, protocol.NATBlocked
	cases := []struct {
		a, b protocol.NATClass
		want bool
	}{
		{N, N, true}, {N, F, true}, {N, S, true}, {N, B, true},
		{F, F, true}, {F, S, true}, {F, B, false},
		{R, R, true}, {R, P, true}, {R, S, true}, {R, B, false},
		{P, P, true}, {P, S, false}, {P, B, false},
		{S, S, false}, {S, B, false},
		{B, B, false},
	}
	for _, c := range cases {
		if got := CanConnect(c.a, c.b); got != c.want {
			t.Errorf("CanConnect(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := CanConnect(c.b, c.a); got != c.want {
			t.Errorf("CanConnect(%v,%v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

// TestHolderMustInitiateMatrix spells the dial-back rule out for every
// (querier, holder) pair: the holder initiates exactly when its NAT filters
// unsolicited inbound, whatever the querier's class.
func TestHolderMustInitiateMatrix(t *testing.T) {
	classes := []protocol.NATClass{protocol.NATNone, protocol.NATFullCone,
		protocol.NATRestricted, protocol.NATPortRestricted,
		protocol.NATSymmetric, protocol.NATBlocked}
	const o, X = false, true
	// want[querier][holder], classes in the order above.
	want := [6][6]bool{
		//  N  F  R  P  S  B    holder
		{o, o, X, X, X, X}, // querier None
		{o, o, X, X, X, X}, // FullCone
		{o, o, X, X, X, X}, // Restricted
		{o, o, X, X, X, X}, // PortRestricted
		{o, o, X, X, X, X}, // Symmetric
		{o, o, X, X, X, X}, // Blocked
	}
	for qi, q := range classes {
		for hi, h := range classes {
			if got := HolderMustInitiate(h); got != want[qi][hi] {
				t.Errorf("querier %v, holder %v: HolderMustInitiate = %v, want %v", q, h, got, want[qi][hi])
			}
		}
	}
}

func TestDistributionSample(t *testing.T) {
	d := DefaultDistribution()
	r := rand.New(rand.NewSource(1))
	counts := make(map[protocol.NATClass]int)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	frac := func(c protocol.NATClass) float64 { return float64(counts[c]) / n }
	if f := frac(protocol.NATPortRestricted); f < 0.32 || f > 0.38 {
		t.Errorf("port-restricted fraction %.3f, want ≈0.35", f)
	}
	if f := frac(protocol.NATBlocked); f < 0.015 || f > 0.025 {
		t.Errorf("blocked fraction %.3f, want ≈0.02", f)
	}
	if counts[protocol.NATNone] == 0 || counts[protocol.NATSymmetric] == 0 {
		t.Error("distribution missing classes")
	}
}

func TestDistributionEmpty(t *testing.T) {
	d := NewDistribution(nil)
	if got := d.Sample(rand.New(rand.NewSource(1))); got != protocol.NATNone {
		t.Errorf("empty distribution should default to NATNone, got %v", got)
	}
}

func TestSTUNDiscover(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	got, err := Discover(pc, srv.Addr(), 0x1234, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	local := pc.LocalAddr().(*net.UDPAddr)
	if int(got.Port()) != local.Port {
		t.Errorf("reflexive port %d, want %d", got.Port(), local.Port)
	}
	if got.Addr().String() != "127.0.0.1" {
		t.Errorf("reflexive addr %v, want 127.0.0.1", got.Addr())
	}
}

func TestSTUNTimeout(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	// A UDP port with no server: request is dropped, Discover must time out.
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	_, err = Discover(pc, sink.LocalAddr().String(), 1, 200*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout")
	}
}

func TestSTUNIgnoresGarbage(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	dst, _ := net.ResolveUDPAddr("udp", srv.Addr())
	if _, err := pc.WriteTo([]byte("not stun"), dst); err != nil {
		t.Fatal(err)
	}
	// Server must survive garbage and still answer a valid request.
	got, err := Discover(pc, srv.Addr(), 77, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Port() == 0 {
		t.Error("zero mapped port")
	}
}

func TestDialerEnforcesMatrix(t *testing.T) {
	d := &Dialer{Local: protocol.NATSymmetric, Timeout: time.Second}
	_, err := d.Dial(context.Background(), protocol.PeerInfo{
		NAT: protocol.NATSymmetric, Addr: "127.0.0.1:1",
	})
	if _, ok := err.(*ErrIncompatibleNAT); !ok {
		t.Fatalf("want ErrIncompatibleNAT, got %v", err)
	}
}

func TestDialerConnects(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
	}()
	d := &Dialer{Local: protocol.NATFullCone, Timeout: 2 * time.Second}
	c, err := d.Dial(context.Background(), protocol.PeerInfo{
		NAT: protocol.NATRestricted, Addr: ln.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}
