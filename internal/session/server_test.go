package session

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/wire"
)

// runServer builds a server from cfg on the system clock and runs it
// until ctx ends; the channel receives Run's result.
func runServer(t *testing.T, ctx context.Context, cfg ServerConfig) (*Server, chan error) {
	t.Helper()
	cfg.Clock = wire.SystemClock{}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	return srv, done
}

// TestServerRunReportsClosedConn: an unexpected socket closure while the
// context is still live must surface from Run as an error wrapping
// net.ErrClosed, not as a clean return.
func TestServerRunReportsClosedConn(t *testing.T) {
	emu := wire.NewEmulator(wire.EmulatorConfig{})
	defer emu.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, done := runServer(t, ctx, ServerConfig{Conn: emu.A()})

	time.Sleep(10 * time.Millisecond)
	_ = emu.A().Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Run on closed conn with live ctx: got %v, want net.ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run did not return after conn close")
	}
}

// TestServerRunCleanShutdown: closing the conn as part of a canceled
// context is the expected exit and returns nil.
func TestServerRunCleanShutdown(t *testing.T) {
	emu := wire.NewEmulator(wire.EmulatorConfig{})
	defer emu.Close()
	ctx, cancel := context.WithCancel(context.Background())
	_, done := runServer(t, ctx, ServerConfig{Conn: emu.A()})

	time.Sleep(10 * time.Millisecond)
	cancel()
	_ = emu.A().Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after cancel: got %v, want nil", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// refusingConn reads like its inner conn but refuses every write.
type refusingConn struct{ net.PacketConn }

func (refusingConn) WriteTo([]byte, net.Addr) (int, error) { return 0, errors.New("refused") }

// TestServerCountsWriteErrors: data and control datagrams the socket
// refuses are counted in ServerStats and the session.write_errors
// counter instead of vanishing.
func TestServerCountsWriteErrors(t *testing.T) {
	emu := wire.NewEmulator(wire.EmulatorConfig{})
	defer emu.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	srv, done := runServer(t, ctx, ServerConfig{
		Conn:         refusingConn{emu.A()},
		Session:      Config{MaxFrames: 2},
		ExitWhenIdle: true,
		Obs:          reg,
	})
	hello, err := wire.AppendDatagram(nil, wire.Header{Type: wire.TypeHello, Color: packet.ACK, Flow: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := emu.B().WriteTo(hello, emu.A().LocalAddr()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session never completed")
	}
	st := srv.Stats()
	// Every data datagram and the final Close failed.
	if st.Datagrams == 0 || st.WriteErrors != st.Datagrams+1 {
		t.Fatalf("write errors %d for %d datagrams + 1 close", st.WriteErrors, st.Datagrams)
	}
	if got := reg.Counter("session.write_errors").Value(); uint64(got) != st.WriteErrors {
		t.Fatalf("session.write_errors = %d, stats say %d", got, st.WriteErrors)
	}
}
