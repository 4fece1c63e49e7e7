package server_test

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/fj"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"

	race2d "repro"
)

// negotiationTrace is a regular pipeline-shaped workload: big enough
// that a compressed session ships real blocks and repetitive enough
// that the block codec's ratio is worth asserting on.
func negotiationTrace(t *testing.T) *fj.Trace {
	t.Helper()
	tr := &fj.Trace{}
	if _, err := (workload.Pipeline{Stages: 8, Items: 300, Shared: true, Payload: 4}).Run(tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// streamTrace runs tr through one session with the given options and
// returns the remote report plus the client's transport accounting.
func streamTrace(t *testing.T, addr string, tr *fj.Trace, opts ...client.Option) *race2d.Report {
	t.Helper()
	sess, err := client.Dial(addr, opts...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer sess.Close()
	sess.EventBatch(tr.Events)
	rep, err := sess.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return rep
}

// requireParity asserts the remote verdict matches a local replay.
func requireParity(t *testing.T, rep *race2d.Report, tr *fj.Trace) {
	t.Helper()
	d := race2d.NewEngineSink(race2d.Engine2D)
	tr.Replay(d)
	local := d.Report()
	if rep.Count != local.Count || rep.Locations != local.Locations ||
		rep.Stats.MemOps() != local.Stats.MemOps() {
		t.Fatalf("remote verdict (races=%d locs=%d memops=%d) != local (races=%d locs=%d memops=%d)",
			rep.Count, rep.Locations, rep.Stats.MemOps(),
			local.Count, local.Locations, local.Stats.MemOps())
	}
}

// TestNegotiationMatrix pins the capability negotiation outcomes: every
// pairing of a compressing or opted-out client with a compressing or
// opted-out server must either stream compressed blocks or fall back to
// plain event frames — never fail, and never change the verdict.
func TestNegotiationMatrix(t *testing.T) {
	tr := negotiationTrace(t)
	cases := []struct {
		name       string
		server     server.Config
		client     []client.Option
		wantBlocks bool
	}{
		{"v3 client, v3 server", server.Config{}, nil, true},
		{"no-compress client, v3 server", server.Config{}, []client.Option{client.WithNoCompress()}, false},
		{"v3 client, no-compress server", server.Config{NoCompress: true}, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, tc.server)
			rep := streamTrace(t, addr, tr, append(tc.client, client.WithFrameEvents(4096))...)
			requireParity(t, rep, tr)
			st := srv.Stats()
			if tc.wantBlocks && st.Compress.Blocks == 0 {
				t.Fatal("compressed pairing shipped no block frames")
			}
			if !tc.wantBlocks && st.Compress.Blocks != 0 {
				t.Fatalf("fallback pairing still shipped %d block frames", st.Compress.Blocks)
			}
		})
	}
}

// TestNegotiationMixedSessions runs a compressed and an opted-out
// session against one server: per-session negotiation must not leak —
// only the compressed session's events arrive as blocks, and both
// verdicts match the local replay.
func TestNegotiationMixedSessions(t *testing.T) {
	tr := negotiationTrace(t)
	srv, addr := startServer(t, server.Config{})
	requireParity(t, streamTrace(t, addr, tr, client.WithFrameEvents(4096)), tr)
	requireParity(t, streamTrace(t, addr, tr, client.WithFrameEvents(4096), client.WithNoCompress()), tr)
	st := srv.Stats()
	if st.Compress.Blocks == 0 {
		t.Fatal("the compressed session shipped no block frames")
	}
	// Exactly one of the two sessions negotiated blocks, so the raw
	// bytes the blocks stand for are one trace's record form.
	if want := uint64(fj.EventsSize(tr.Events)); st.Compress.RawBytes != want {
		t.Fatalf("block frames stand for %d raw bytes, want one session's %d", st.Compress.RawBytes, want)
	}
}

// TestVersionRefusalOnWire pins the documented refusal: a magic
// announcing any version but wire.Version, sent to raced or to a
// racedctl gateway in front of it, must come back as an Error frame
// carrying the handshake-refused prefix and the ErrVersion text — the
// shape clients classify as a terminal refusal.
func TestVersionRefusalOnWire(t *testing.T) {
	_, backend := startServer(t, server.Config{})
	gw, err := cluster.NewGateway(cluster.Config{Backends: []cluster.Backend{{Addr: backend}}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(ln)
	t.Cleanup(func() { gw.Close() })

	for _, front := range []struct{ name, addr string }{{"raced", backend}, {"racedctl", ln.Addr().String()}} {
		for _, version := range []byte{1, 2, 3, 4, 99} {
			t.Run(fmt.Sprintf("%s/v%d", front.name, version), func(t *testing.T) {
				conn, err := net.DialTimeout("tcp", front.addr, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := conn.Write([]byte{'R', 'D', 'S', version}); err != nil {
					t.Fatal(err)
				}
				if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello(wire.Hello{Caps: wire.CapCompress})); err != nil {
					t.Fatal(err)
				}
				ft, payload, err := wire.ReadFrame(conn, nil)
				if err != nil {
					t.Fatalf("reading the refusal: %v", err)
				}
				if ft != wire.FrameError {
					t.Fatalf("got %v frame, want FrameError", ft)
				}
				text := string(payload)
				if !strings.HasPrefix(text, wire.HandshakeRefusedPrefix) {
					t.Errorf("refusal %q lacks prefix %q", text, wire.HandshakeRefusedPrefix)
				}
				if !strings.Contains(text, wire.ErrVersion.Error()) {
					t.Errorf("refusal %q lacks the ErrVersion text %q", text, wire.ErrVersion)
				}
			})
		}
	}
}

// TestNegotiationCompressionRatio holds the codec to its keep on the
// wire it was built for: a pipeline-shaped session must compress at
// least 4x end to end, measured by the server's own accounting.
func TestNegotiationCompressionRatio(t *testing.T) {
	tr := negotiationTrace(t)
	srv, addr := startServer(t, server.Config{})
	rep := streamTrace(t, addr, tr, client.WithFrameEvents(8192))
	requireParity(t, rep, tr)
	st := srv.Stats()
	if st.Compress.Blocks == 0 {
		t.Fatal("session shipped no block frames")
	}
	if ratio := st.Compress.Ratio(); ratio < 4 {
		t.Fatalf("compression ratio %.2f (%d raw -> %d wire bytes), want >= 4",
			ratio, st.Compress.RawBytes, st.Compress.WireBytes)
	}
}
