package client

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestDialVersionRefusalIsTerminal: a server answering the handshake
// with the documented version refusal ends Dial on the first
// connection — there is no older protocol to fall back to, so retrying
// cannot succeed.
func TestDialVersionRefusalIsTerminal(t *testing.T) {
	addr, conns := startScripted(t, func(i int, c net.Conn) {
		if _, ok := readFetchHello(c); ok {
			refuse(c, wire.ErrVersion.Error()+": version 3, speak 4")
		}
	})
	_, err := Dial(addr, WithMaxAttempts(5), WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), wire.ErrVersion.Error()) {
		t.Fatalf("Dial err = %v, want the version refusal", err)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("connections = %d, want 1 (no retry of a version refusal)", n)
	}
}

// sessionGoroutines counts the live goroutines running a Session's
// per-connection loops.
func sessionGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "client.(*Session).heartbeat") +
		strings.Count(stacks, "client.(*Session).reader")
}

// TestCloseStopsHeartbeat: Close ends the connection's reader and
// heartbeat goroutines promptly, even with a heartbeat interval far
// longer than the wait, so a closed Session is not kept alive until the
// next tick.
func TestCloseStopsHeartbeat(t *testing.T) {
	addr, _ := startScripted(t, func(i int, c net.Conn) {
		if _, ok := readFetchHello(c); !ok {
			return
		}
		wire.WriteFrame(c, wire.FrameWelcome, wire.EncodeWelcome(wire.Welcome{Session: 1, Token: 7, NextSeq: 1}))
		var scratch []byte
		for {
			if _, _, err := wire.ReadFrame(c, scratch); err != nil {
				return
			}
		}
	})
	before := sessionGoroutines()
	sess, err := Dial(addr, WithHeartbeat(10*time.Second, 3))
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before+2, "after Dial (reader + heartbeat)")
	sess.Close()
	waitGoroutines(t, before, "1s after Close")
}

// waitGoroutines polls, for up to one second, until sessionGoroutines
// reports want.
func waitGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		got := sessionGoroutines()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session goroutines = %d %s, want %d", got, when, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
