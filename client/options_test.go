package client

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// apply resolves opts the way Dial does, failing the test on error.
func apply(t *testing.T, opts ...Option) options {
	t.Helper()
	o, err := resolve(opts)
	if err != nil {
		t.Fatalf("option returned %v", err)
	}
	return o
}

// TestOptionValidation checks that every constructor rejects its
// documented invalid domain with an error naming the bad value.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
		want string // substring of the error
	}{
		{"batch-negative", WithBatchSize(-1), "batch size"},
		{"frame-zero", WithFrameEvents(0), "frame events"},
		{"frame-negative", WithFrameEvents(-5), "frame events"},
		{"dial-zero", WithDialTimeout(0), "dial timeout"},
		{"finish-negative", WithFinishTimeout(-time.Second), "finish timeout"},
		{"write-zero", WithWriteTimeout(0), "write timeout"},
		{"heartbeat-interval-zero", WithHeartbeat(0, 3), "heartbeat interval"},
		{"heartbeat-misses-zero", WithHeartbeat(time.Second, 0), "heartbeat misses"},
		{"attempts-zero", WithMaxAttempts(0), "max attempts"},
		{"backoff-base-zero", WithBackoff(0, time.Second), "backoff base"},
		{"backoff-max-below-base", WithBackoff(time.Second, time.Millisecond), "below base"},
		{"window-zero", WithReplayWindow(0), "replay window"},
		{"endpoints-none", WithEndpoints(), "at least one"},
		{"endpoints-empty-addr", WithEndpoints("a:1", ""), "empty address"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var o options
			err := c.opt(&o)
			if err == nil {
				t.Fatalf("want an error, got nil (options now %+v)", o)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestOptionConstructorsSetFields checks each constructor lands on the
// resolved field it documents.
func TestOptionConstructorsSetFields(t *testing.T) {
	got := apply(t,
		WithEngine("fasttrack"),
		WithBatchSize(128),
		WithFrameEvents(256),
		WithDialTimeout(3*time.Second),
		WithFinishTimeout(time.Minute),
		WithWriteTimeout(4*time.Second),
		WithHeartbeat(2*time.Second, 5),
		WithMaxAttempts(9),
		WithBackoff(10*time.Millisecond, 500*time.Millisecond),
		WithReplayWindow(32),
		WithRetainAll(),
		WithNoCompress(),
		WithEndpoints("b:1", "c:2"),
		WithRouteKey(42),
	)
	want := options{
		Engine:            "fasttrack",
		BatchSize:         128,
		FrameEvents:       256,
		DialTimeout:       3 * time.Second,
		FinishTimeout:     time.Minute,
		WriteTimeout:      4 * time.Second,
		HeartbeatInterval: 2 * time.Second,
		HeartbeatMisses:   5,
		MaxAttempts:       9,
		BackoffBase:       10 * time.Millisecond,
		BackoffMax:        500 * time.Millisecond,
		WindowBatches:     32,
		RetainAll:         true,
		NoCompress:        true,
		Endpoints:         []string{"b:1", "c:2"},
		RouteKey:          42,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("functional options landed on\n%+v\nwant\n%+v", got, want)
	}
}

// TestNormalizedDefaults pins the documented default values.
func TestNormalizedDefaults(t *testing.T) {
	n := apply(t)
	if n.FrameEvents != DefaultFrameEvents {
		t.Errorf("FrameEvents = %d, want %d", n.FrameEvents, DefaultFrameEvents)
	}
	if n.WindowBatches != DefaultWindowBatches {
		t.Errorf("WindowBatches = %d, want %d", n.WindowBatches, DefaultWindowBatches)
	}
	if n.MaxAttempts != 5 || n.HeartbeatMisses != 3 || n.HeartbeatInterval != 10*time.Second {
		t.Errorf("retry defaults off: %+v", n)
	}
}

// TestWithoutHeartbeat pins the disable encoding: WithoutHeartbeat
// overrides the default cadence, and a later WithHeartbeat re-enables.
func TestWithoutHeartbeat(t *testing.T) {
	if n := apply(t, WithoutHeartbeat()); n.HeartbeatInterval != 0 {
		t.Errorf("HeartbeatInterval = %v, want 0 (disabled)", n.HeartbeatInterval)
	}
	if n := apply(t, WithoutHeartbeat(), WithHeartbeat(time.Second, 2)); n.HeartbeatInterval != time.Second {
		t.Errorf("HeartbeatInterval = %v, want 1s after re-enabling", n.HeartbeatInterval)
	}
}

// TestNormalizedRejectsEmptyEndpoint: an empty fallback address fails
// Dial and Fetch before any network traffic.
func TestNormalizedRejectsEmptyEndpoint(t *testing.T) {
	if _, err := Dial("203.0.113.1:1", WithEndpoints("a:1", "")); err == nil || !strings.Contains(err.Error(), "empty address") {
		t.Errorf("Dial: err = %v, want the empty-address error", err)
	}
	if _, err := Fetch("203.0.113.1:1", 1, WithEndpoints("")); err == nil || !strings.Contains(err.Error(), "empty address") {
		t.Errorf("Fetch: err = %v, want the empty-address error", err)
	}
}

// TestNilOptionIgnored: Dial tolerates nil options (conditionally built
// option slices often carry one).
func TestNilOptionIgnored(t *testing.T) {
	// An unroutable address: if the nil option panicked we would never
	// get to the dial error.
	_, err := Dial("203.0.113.1:1", nil, WithMaxAttempts(1), WithDialTimeout(time.Millisecond), WithBackoff(time.Millisecond, time.Millisecond))
	if err == nil {
		t.Fatal("dial to a blackhole address somehow succeeded")
	}
	if !errors.Is(err, ErrPartial) && !strings.Contains(err.Error(), "dial") {
		t.Errorf("unexpected error class: %v", err)
	}
}
