package client_test

import (
	"fmt"
	"time"

	"repro/client"
	"repro/internal/fj"
)

// Dial configures a session with functional options, mirroring
// race2d.Detect(root, opts...). Each constructor validates its
// argument, so a zero heartbeat or a negative batch size fails at
// Dial rather than silently misbehaving later. The examples compile
// against an address nobody answers, so none of them produce output —
// godoc shows the shapes, the test suite pins the behavior.
func ExampleDial() {
	sess, err := client.Dial("localhost:7471",
		client.WithEngine("2d"),
		client.WithFrameEvents(512),
		client.WithHeartbeat(2*time.Second, 3),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer sess.Close()
	sess.Event(fj.Event{Kind: fj.EvWrite, T: 0, Loc: 0x10}) // fj.Sink
	report, err := sess.Finish()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("races:", report.Count)
}

// Fault-tolerant sessions: a bounded replay window with reconnect
// backoff rides out transport loss; RetainAll keeps acknowledged
// batches too, so even losing the server process (or migrating across
// a racedctl cluster backend) replays to the full verdict.
func ExampleDial_resilient() {
	sess, err := client.Dial("localhost:7470",
		client.WithRetainAll(),
		client.WithMaxAttempts(10),
		client.WithBackoff(50*time.Millisecond, 2*time.Second),
		client.WithEndpoints("gw2:7470", "gw3:7470"), // fallback gateways
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer sess.Close()
}

// Fetch retrieves a previously persisted verdict by resume token from
// a store-backed raced (or a racedctl gateway, which fans the lookup
// out over its backends). Transient failures retry under the same
// bounded full-jitter backoff as Dial; an "unknown resume token"
// answer rotates immediately to the next WithEndpoints fallback — a
// replica may hold what the dead home backend cannot answer for — and
// only becomes terminal once every endpoint has disclaimed the token
// (IsUnknownToken reports that case). Refusals that retrying cannot
// cure (bad credentials, quota, tampered store) fail fast.
func ExampleFetch() {
	rep, err := client.Fetch("gw1:7470", 0x0123456789abcdef,
		client.WithAuthToken("acme:s3cret"),
		client.WithEndpoints("gw2:7470", "gw3:7470"),
		client.WithMaxAttempts(6),
		client.WithBackoff(50*time.Millisecond, 2*time.Second),
	)
	if err != nil {
		if client.IsUnknownToken(err) {
			fmt.Println("no endpoint holds this verdict")
		}
		return
	}
	fmt.Println("races:", rep.Report.Count)
}
