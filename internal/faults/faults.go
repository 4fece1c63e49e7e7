// Package faults is a deterministic, seed-driven network fault
// injector: it wraps a net.Conn (or a net.Listener, fault-wrapping
// every accepted connection) and perturbs the byte streams flowing
// through it on a scripted schedule — injected delays, partial writes,
// flipped bytes, silently dropped writes, and mid-stream connection
// resets.
//
// The schedule is a pure function of the Config seed, the connection's
// admission index, the direction (read or write), and the count of
// operations on that path: each (conn, direction) pair owns its own
// PRNG derived from those inputs, so a given seed reproduces the same
// fault script run after run regardless of goroutine interleaving
// between connections. That determinism is what makes chaos parity
// testable — a failing seed is a repro, not an anecdote.
//
// The injector exists to exercise the wire protocol's fault-tolerance
// machinery (internal/wire sequencing, client resume, server suspend): every
// fault class maps to a failure the protocol must absorb. Corruption is
// caught by the per-frame CRC, truncation by the length prefix, and
// drops/resets/stalls by acknowledgement sequence numbers, heartbeats
// and reconnect — so detection under injected faults must replay to a
// byte-identical Report.
package faults

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Class is a bitmask of fault classes to inject.
type Class uint8

const (
	// Delay stalls an operation for a random duration up to MaxDelay.
	Delay Class = 1 << iota
	// Corrupt flips one byte of the data in transit. The wire CRC turns
	// this into a loud checksum failure at the receiver.
	Corrupt
	// Partial delivers only a prefix of a write, then severs the
	// connection — the receiver sees a truncated frame.
	Partial
	// Drop swallows a write whole (reporting success to the sender),
	// then severs the connection so the loss is detectable rather than
	// a silent hang.
	Drop
	// Reset severs the connection immediately, failing the operation.
	Reset

	// All enables every fault class.
	All = Delay | Corrupt | Partial | Drop | Reset
)

// String renders the enabled classes, e.g. "delay|corrupt".
func (c Class) String() string {
	names := []struct {
		bit  Class
		name string
	}{{Delay, "delay"}, {Corrupt, "corrupt"}, {Partial, "partial"}, {Drop, "drop"}, {Reset, "reset"}}
	var parts []string
	for _, n := range names {
		if c&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// ParseClass parses a '|' or ','-separated class list ("drop,delay",
// "all", "none").
func ParseClass(s string) (Class, error) {
	var c Class
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == '|' || r == ',' }) {
		switch strings.TrimSpace(part) {
		case "delay":
			c |= Delay
		case "corrupt":
			c |= Corrupt
		case "partial":
			c |= Partial
		case "drop":
			c |= Drop
		case "reset":
			c |= Reset
		case "all":
			c |= All
		case "none", "":
		default:
			return 0, fmt.Errorf("faults: unknown fault class %q (want delay|corrupt|partial|drop|reset|all|none)", part)
		}
	}
	return c, nil
}

// Config tunes an Injector.
type Config struct {
	// Seed drives the deterministic fault schedule.
	Seed int64
	// Classes selects which fault classes may be injected (All when 0
	// would be ambiguous with "none", so zero means none; callers
	// normally pass All or an explicit set).
	Classes Class
	// Rate is the per-operation fault probability (0.02 when 0 and
	// Every is 0).
	Rate float64
	// Every, when > 0, replaces the probabilistic schedule: exactly
	// every Every-th operation on each (conn, direction) path faults.
	// Precise scripting for unit tests.
	Every int
	// MaxFaults bounds the total faults injected across all connections
	// of this Injector; once spent, the wrapped endpoints behave
	// perfectly. 0 means unlimited. A finite budget guarantees a
	// retrying client eventually succeeds.
	MaxFaults int
	// MaxDelay caps an injected delay (2ms when 0).
	MaxDelay time.Duration
}

// Injector hands out fault-wrapped connections sharing one fault
// budget and one deterministic schedule.
type Injector struct {
	cfg      Config
	conns    atomic.Uint64 // admission index for per-conn seeds
	injected atomic.Int64  // faults spent against MaxFaults
}

// New returns an Injector for cfg.
func New(cfg Config) *Injector {
	if cfg.Rate <= 0 {
		cfg.Rate = 0.02
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	return &Injector{cfg: cfg}
}

// Injected returns how many faults have been injected so far.
func (in *Injector) Injected() int { return int(in.injected.Load()) }

// spend claims one fault from the budget; false when the budget is
// exhausted (the op must proceed cleanly).
func (in *Injector) spend() bool {
	for {
		n := in.injected.Load()
		if in.cfg.MaxFaults > 0 && n >= int64(in.cfg.MaxFaults) {
			return false
		}
		if in.injected.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Conn wraps c with fault injection on both directions.
func (in *Injector) Conn(c net.Conn) net.Conn {
	idx := int64(in.conns.Add(1))
	return &conn{
		Conn:  c,
		in:    in,
		read:  newPath(in, idx, 0),
		write: newPath(in, idx, 1),
	}
}

// Listener wraps ln so every accepted connection is fault-injected —
// the server-side deployment of the injector (raced -chaos).
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Conn(c), nil
}

// path is one direction of one connection: its own PRNG (deterministic
// schedule) and operation counter.
type path struct {
	mu  sync.Mutex
	rng *rand.Rand
	ops int
}

func newPath(in *Injector, connIdx, dir int64) *path {
	// Distinct, stable stream per (seed, conn, direction).
	seed := in.cfg.Seed*1000003 + connIdx*2 + dir + 12345
	return &path{rng: rand.New(rand.NewSource(seed))}
}

// next decides the fault (if any) for the path's next operation and
// charges the injector budget. The PRNG is always advanced the same
// way, so the schedule stays deterministic even when the budget runs
// out mid-script.
func (p *path) next(in *Injector) (Class, time.Duration, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops++
	cfg := in.cfg
	roll := p.rng.Float64()
	pick := p.rng.Intn(8)   // class selector
	frac := p.rng.Float64() // delay / cut-point fraction
	due := cfg.Every > 0 && p.ops%cfg.Every == 0
	if cfg.Every == 0 {
		due = roll < cfg.Rate
	}
	if !due || cfg.Classes == 0 {
		return 0, 0, 0
	}
	// Choose among the enabled classes, deterministically from pick.
	var enabled []Class
	for _, c := range []Class{Delay, Corrupt, Partial, Drop, Reset} {
		if cfg.Classes&c != 0 {
			enabled = append(enabled, c)
		}
	}
	class := enabled[pick%len(enabled)]
	if !in.spend() {
		return 0, 0, 0
	}
	delay := time.Duration(frac * float64(cfg.MaxDelay))
	cut := int(frac * 1000)
	return class, delay, cut
}

// conn injects faults into one connection.
type conn struct {
	net.Conn
	in     *Injector
	read   *path
	write  *path
	closed atomic.Bool
}

// errInjected marks a fault-injector-caused failure, so tests can tell
// injected faults from real ones.
type errInjected struct{ what string }

func (e *errInjected) Error() string { return "faults: injected " + e.what }

// IsInjected reports whether err came from a fault injector.
func IsInjected(err error) bool {
	var ie *errInjected
	return errors.As(err, &ie)
}

// sever closes the underlying connection so both sides observe the
// fault promptly instead of hanging.
func (c *conn) sever() {
	if c.closed.CompareAndSwap(false, true) {
		c.Conn.Close()
	}
}

func (c *conn) Write(p []byte) (int, error) {
	class, delay, cut := c.write.next(c.in)
	switch class {
	case Delay:
		time.Sleep(delay)
	case Corrupt:
		if len(p) > 0 {
			tainted := make([]byte, len(p))
			copy(tainted, p)
			tainted[cut%len(tainted)] ^= 0x55
			return c.Conn.Write(tainted)
		}
	case Partial:
		if len(p) > 1 {
			k := 1 + cut%(len(p)-1)
			n, err := c.Conn.Write(p[:k])
			c.sever()
			if err != nil {
				return n, err
			}
			return n, &errInjected{"partial write"}
		}
	case Drop:
		c.sever()
		return len(p), nil // swallowed whole; the severed conn surfaces the loss
	case Reset:
		c.sever()
		return 0, &errInjected{"connection reset"}
	}
	return c.Conn.Write(p)
}

func (c *conn) Read(p []byte) (int, error) {
	class, delay, cut := c.read.next(c.in)
	switch class {
	case Delay:
		time.Sleep(delay)
	case Corrupt:
		n, err := c.Conn.Read(p)
		if n > 0 {
			p[cut%n] ^= 0x55
		}
		return n, err
	case Partial:
		// Read-side "partial": deliver a short read, then sever.
		if len(p) > 1 {
			n, err := c.Conn.Read(p[:1+cut%(len(p)-1)])
			c.sever()
			if err != nil {
				return n, err
			}
			return n, &errInjected{"read cut short"}
		}
	case Drop, Reset:
		c.sever()
		return 0, &errInjected{"connection reset"}
	}
	return c.Conn.Read(p)
}

func (c *conn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// Writer wraps w with deterministic write-fault injection — the
// disk-shaped deployment of the injector, used against the store's
// segment append path. Network classes map onto the failures a file
// write can actually produce: Partial becomes a short write (a prefix
// lands, then the error), everything else except Delay becomes an
// ENOSPC-style clean refusal (no bytes written, error returned). Unlike
// the net.Conn wrapper nothing is ever silently corrupted or swallowed:
// a durable write that lies about success is not a recoverable fault.
func (in *Injector) Writer(w io.Writer) io.Writer {
	idx := int64(in.conns.Add(1))
	return &writer{w: w, in: in, path: newPath(in, idx, 1)}
}

type writer struct {
	w    io.Writer
	in   *Injector
	path *path
}

func (fw *writer) Write(p []byte) (int, error) {
	class, delay, cut := fw.path.next(fw.in)
	switch class {
	case Delay:
		time.Sleep(delay)
	case Partial:
		if len(p) > 1 {
			k := 1 + cut%(len(p)-1)
			n, err := fw.w.Write(p[:k])
			if err != nil {
				return n, err
			}
			return n, &errInjected{"short write"}
		}
	case Corrupt, Drop, Reset:
		return 0, &errInjected{"write refused (no space)"}
	}
	return fw.w.Write(p)
}
