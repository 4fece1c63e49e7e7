package main

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
)

// target is a running system under test: what clients dial, plus
// everything that has to stop when the run ends.
type target struct {
	addr string
	// clientBytes counts the bytes on the clients' connections, both
	// directions, at the listener clients dial.
	clientBytes atomic.Uint64
	// servers are the session servers clients' sessions land on (the
	// primaries, under a gateway).
	servers []*server.Server
	gateway *cluster.Gateway
	sources []*repl.Source
	stops   []func() error // in start order; close runs them reversed
}

// close stops everything in reverse start order and returns the first
// error.
func (t *target) close() error {
	var first error
	for i := len(t.stops) - 1; i >= 0; i-- {
		if err := t.stops[i](); err != nil && first == nil {
			first = err
		}
	}
	t.stops = nil
	return first
}

// listen opens a loopback listener, counting its bytes into n when n is
// non-nil.
func listen(n *atomic.Uint64) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if n != nil {
		return countingListener{Listener: ln, n: n}, nil
	}
	return ln, nil
}

// startServer runs srv on a fresh listener and registers its stop.
func (t *target) startServer(srv *server.Server, n *atomic.Uint64) (string, error) {
	ln, err := listen(n)
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.stops = append(t.stops, func() error {
		err := srv.Close()
		<-done
		return err
	})
	return ln.Addr().String(), nil
}

// startGateway runs a gateway over backends and registers its stop.
func (t *target) startGateway(cfg cluster.Config, n *atomic.Uint64) (*cluster.Gateway, string, error) {
	g, err := cluster.NewGateway(cfg)
	if err != nil {
		return nil, "", err
	}
	ln, err := listen(n)
	if err != nil {
		g.Close()
		return nil, "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Serve(ln)
	}()
	t.stops = append(t.stops, func() error {
		err := g.Close()
		<-done
		return err
	})
	return g, ln.Addr().String(), nil
}

// startStreamTarget is the stream workloads' system: one raced with the
// default in-memory store and compression on.
func startStreamTarget() (*target, error) {
	t := &target{}
	srv := server.New(server.Config{ResumeWindow: streamResumeWindow})
	addr, err := t.startServer(srv, &t.clientBytes)
	if err != nil {
		return nil, err
	}
	t.addr, t.servers = addr, []*server.Server{srv}
	return t, nil
}

// replKey is the replication credential between primaries and follower.
const replKey = "perfbench-repl"

// startFollower runs a replication follower whose replica logs live
// under dir.
func (t *target) startFollower(dir string) (string, error) {
	rs, err := repl.OpenReplicaSet(dir, false, nil)
	if err != nil {
		return "", err
	}
	return t.startServer(server.New(server.Config{Replicas: rs, ReplKey: replKey}), nil)
}

// openReplicated opens an fsync'd log under dir replicating
// synchronously to follower, and waits until the follower is connected
// so that no Put finds it missing.
func (t *target) openReplicated(dir, follower string) (*repl.ReplicatedStore, error) {
	lg, err := store.OpenLog(store.LogConfig{Dir: dir})
	if err != nil {
		return nil, err
	}
	src := repl.NewSource(repl.SourceConfig{Log: lg, Followers: []string{follower}, Key: replKey})
	st := repl.NewReplicatedStore(lg, src)
	deadline := time.Now().Add(10 * time.Second)
	for src.Stats().Connected < 1 {
		if time.Now().After(deadline) {
			st.Close()
			return nil, errors.New("replication follower never connected")
		}
		time.Sleep(time.Millisecond)
	}
	t.sources = append(t.sources, src)
	return st, nil
}

// startChurnTarget is durable-churn's system: a gateway with tenant
// auth over two raced primaries, each with an fsync'd log replicating
// synchronously to one shared follower.
func startChurnTarget(dir string) (t *target, err error) {
	t = &target{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	follower, err := t.startFollower(filepath.Join(dir, "follower"))
	if err != nil {
		return nil, err
	}
	srvTenants := make(map[string]server.Tenant)
	gwTenants := make(map[string]string)
	for i, name := range tenantNames {
		srvTenants[name] = server.Tenant{Key: tenantKey(i)}
		gwTenants[name] = tenantKey(i)
	}
	var backends []cluster.Backend
	for i := 0; i < 2; i++ {
		st, err := t.openReplicated(filepath.Join(dir, fmt.Sprintf("primary-%d", i)), follower)
		if err != nil {
			return nil, err
		}
		srv := server.New(server.Config{Store: st, Tenants: srvTenants})
		addr, err := t.startServer(srv, nil)
		if err != nil {
			st.Close()
			return nil, err
		}
		t.servers = append(t.servers, srv)
		backends = append(backends, cluster.Backend{Addr: addr})
	}
	t.gateway, t.addr, err = t.startGateway(cluster.Config{Backends: backends, Tenants: gwTenants}, &t.clientBytes)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// storeBytesPerVerdict is the primaries' live store bytes per live
// record.
func (t *target) storeBytesPerVerdict() float64 {
	var bytes int64
	var recs int
	for _, srv := range t.servers {
		st := srv.Store().Stats()
		bytes += st.Bytes
		recs += st.Records
	}
	if recs == 0 {
		return 0
	}
	return float64(bytes) / float64(recs)
}
