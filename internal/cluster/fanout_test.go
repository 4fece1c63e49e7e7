package cluster_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"

	race2d "repro"
)

// waitUp blocks until the gateway's prober has marked n backends Up.
func waitUp(t *testing.T, gw *cluster.Gateway, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for gw.Ring().UpCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("ring never saw %d backends up", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGatewayFetchFanOut is the durability-through-the-gateway proof:
// a report that lives only on a backend other than the token's ring
// home (as after a home-backend death with replication) must still be
// fetchable through the gateway — the home's unknown-resume answer
// triggers a fan-out and the holder's byte-identical answer wins.
func TestGatewayFetchFanOut(t *testing.T) {
	stores := []*store.Memory{store.NewMemory(time.Hour), store.NewMemory(time.Hour)}
	backends := []*backend{
		startBackend(t, server.Config{Store: stores[0]}),
		startBackend(t, server.Config{Store: stores[1]}),
	}
	gw, addr := startGateway(t, backends, nil)
	waitUp(t, gw, 2)

	// Plant the report on whichever backend is NOT the token's ring
	// home, so the routed backend genuinely does not know it.
	const token = 0x7a7a
	home, ok := gw.Ring().Lookup(token)
	if !ok {
		t.Fatal("ring empty")
	}
	holder := 0
	if backends[0].addr == home {
		holder = 1
	}
	planted := &race2d.Report{Engine: race2d.Engine2D, Tasks: 1}
	body, _ := planted.AppendBinary(nil)
	rec := store.Record{Token: token, Session: 77, JSON: body}
	if err := stores[holder].Put(rec); err != nil {
		t.Fatal(err)
	}

	f, err := client.Fetch(addr, token)
	if err != nil {
		t.Fatalf("fetch through gateway: %v", err)
	}
	if want, _ := planted.MarshalJSON(); !bytes.Equal(f.JSON, want) {
		t.Errorf("fanned-out report differs:\n got %s\nwant %s", f.JSON, want)
	}
	st := gw.Stats()
	if st.FetchFanouts != 1 || st.FetchFanoutHits != 1 {
		t.Errorf("fanouts = %d hits = %d, want 1/1", st.FetchFanouts, st.FetchFanoutHits)
	}

	// A token nobody holds fans out too, finds no taker, and surfaces
	// the home backend's unknown-resume refusal unchanged.
	if _, err := client.Fetch(addr, 0x5b5b); !client.IsUnknownToken(err) {
		t.Fatalf("fetch of absent token: err = %v, want unknown-token", err)
	}
	st = gw.Stats()
	if st.FetchFanouts != 2 || st.FetchFanoutHits != 1 {
		t.Errorf("after miss: fanouts = %d hits = %d, want 2/1", st.FetchFanouts, st.FetchFanoutHits)
	}
}

// TestGatewayTenantRotationLive swaps the gateway's edge tenant table
// on the fly (the SIGHUP path): enforcement starts when a table
// appears, rotated keys bite the next handshake, and the reload
// counter ticks.
func TestGatewayTenantRotationLive(t *testing.T) {
	b := startBackend(t, server.Config{})
	gw, addr := startGateway(t, []*backend{b}, nil)
	waitUp(t, gw, 1)

	sess, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("pre-table dial: %v", err)
	}
	sess.Close()

	gw.SetTenants(map[string]string{"acme": "k1"})
	if _, err := client.Dial(addr); err == nil ||
		!strings.Contains(err.Error(), "invalid tenant credentials") {
		t.Fatalf("credential-less dial after table install: err = %v", err)
	}
	sess, err = client.Dial(addr, client.WithAuthToken("acme:k1"))
	if err != nil {
		t.Fatalf("valid key refused: %v", err)
	}
	sess.Close()

	gw.SetTenants(map[string]string{"acme": "k2"})
	if _, err := client.Dial(addr, client.WithAuthToken("acme:k1")); err == nil ||
		!strings.Contains(err.Error(), "invalid tenant credentials") {
		t.Fatalf("rotated-away key admitted: err = %v", err)
	}
	sess, err = client.Dial(addr, client.WithAuthToken("acme:k2"))
	if err != nil {
		t.Fatalf("rotated key refused: %v", err)
	}
	sess.Close()

	if st := gw.Stats(); st.TenantReloads != 2 {
		t.Errorf("TenantReloads = %d, want 2", st.TenantReloads)
	}
}
