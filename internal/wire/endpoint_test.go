package wire

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// TestEmulatorDeadlineWakesBlockedRead: like a UDP socket, a ReadFrom
// blocked with no deadline returns os.ErrDeadlineExceeded promptly when
// another goroutine sets a past deadline, and a later future deadline
// applies to a read already blocked.
func TestEmulatorDeadlineWakesBlockedRead(t *testing.T) {
	e := NewEmulator(EmulatorConfig{})
	defer e.Close()
	read := func() chan error {
		done := make(chan error, 1)
		go func() {
			_, _, err := e.B().ReadFrom(make([]byte, 16))
			done <- err
		}()
		return done
	}

	done := read()
	time.Sleep(20 * time.Millisecond)
	_ = e.B().SetReadDeadline(time.Now().Add(-time.Second))
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("got %v, want deadline exceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("past deadline did not wake the blocked ReadFrom")
	}

	_ = e.B().SetReadDeadline(time.Time{})
	done = read()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	_ = e.B().SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("got %v, want deadline exceeded", err)
		}
		if waited := time.Since(start); waited < 25*time.Millisecond {
			t.Fatalf("future deadline fired after %v, want ~30ms", waited)
		}
	case <-time.After(time.Second):
		t.Fatal("future deadline set while blocked never fired")
	}

	// A datagram already waiting is returned even past the deadline.
	_ = e.B().SetReadDeadline(time.Now().Add(-time.Second))
	_, _ = e.A().WriteTo([]byte("late"), nil)
	for deadline := time.Now().Add(time.Second); e.StatsAtoB().Delivered == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("datagram never delivered")
		}
	}
	buf := make([]byte, 16)
	if n, from, err := e.B().ReadFrom(buf); err != nil || string(buf[:n]) != "late" || from != e.A().LocalAddr() {
		t.Fatalf("got %q from %v, %v; want \"late\" from %v", buf[:n], from, err, e.A().LocalAddr())
	}
}

// deadlineConn records the read deadlines a caller sets.
type deadlineConn struct {
	net.PacketConn
	mu     sync.Mutex
	future int // deadlines set in the future: a polling read loop
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	if t.After(time.Now()) {
		c.future++
	}
	c.mu.Unlock()
	return c.PacketConn.SetReadDeadline(t)
}

// TestSwarmRunCancelEndsReadLoops: cancelling the context ends every
// read loop over the emulator, and the loops never poll with a read
// deadline while they wait.
func TestSwarmRunCancelEndsReadLoops(t *testing.T) {
	var (
		emus  []*Emulator
		conns []*deadlineConn
	)
	defer func() {
		for _, e := range emus {
			e.Close()
		}
	}()
	s, err := NewSwarm(SwarmConfig{
		Server:     EmuAddr("emu-a"),
		Receivers:  4,
		Sockets:    4,
		HelloRetry: time.Hour, // one hello each, then silence
		Listen: func() (net.PacketConn, error) {
			e := NewEmulator(EmulatorConfig{})
			emus = append(emus, e)
			c := &deadlineConn{PacketConn: e.B()}
			conns = append(conns, c)
			return c, nil
		},
	}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	time.Sleep(120 * time.Millisecond) // past two of the old 50 ms polls
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	for i, c := range conns {
		c.mu.Lock()
		n := c.future
		c.mu.Unlock()
		if n != 0 {
			t.Errorf("socket %d: read loop set %d future read deadlines, want none", i, n)
		}
	}
}
