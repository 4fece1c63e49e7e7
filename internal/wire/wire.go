// Package wire is the raced streaming protocol: a versioned,
// length-prefixed binary framing of fj event batches, spoken between
// the client package and internal/server over any byte stream
// (normally TCP).
//
// The premise follows the compressed-trace line of work (Kini, Mathur,
// Viswanathan, "Data Race Detection on Compressed Traces"): events ship
// as dense varint-encoded batches — the same record form fj.Encode
// writes to disk — rather than one RPC per event, so the transport cost
// per memory operation is a few bytes and no per-event syscalls.
//
// # Stream layout
//
// A session opens with the 4-byte stream magic ("RDS" + version), sent
// by the client, followed by frames in both directions:
//
//	client → server: Hello, (Events | Heartbeat)*, Finish
//	server → client: Welcome, (Ack | Heartbeat)*, Report | Error
//
// A server draining on SIGTERM may send a Report frame with the Partial
// flag before the client finishes; the report then covers the prefix of
// the stream the detector consumed — a coherent verdict, not a torn
// one.
//
// # Protocol
//
// The magic's fourth byte carries the protocol version; this package
// speaks exactly one, and a stream announcing any other version is
// refused with an Error frame whose text carries both
// HandshakeRefusedPrefix and the ErrVersion text.
//
// The stream is fault tolerant, justified by the paper's Theorem 4: any
// prefix of the event stream is a coherent detector state, so a session
// resumed from the last acknowledged event batch replays to an
// identical verdict. Concretely:
//
//   - Hello carries a resume token (zero for a fresh session) and
//     Welcome answers with the token to present on reconnect plus the
//     next sequence number the server expects;
//   - every event frame carries a monotonic sequence number, and the
//     server answers with Ack frames naming the highest contiguously
//     ingested sequence — the client may discard acknowledged batches
//     from its replay buffer;
//   - duplicate sequences (a client resending past an ack it never saw)
//     are discarded, so replay after reconnect is idempotent;
//   - Heartbeat frames flow both ways to bound dead-peer detection.
//
// Hello and Welcome also carry a capability bitmask; the session's
// capability set is the intersection of what the client offered and
// what the server granted, so either side can veto a feature without
// breaking the handshake. With CapCompress granted, event batches ship
// as EventsBlock frames, each a self-contained compressed block
// (delta/varint encoding of task IDs and addresses plus a copy-run
// layer exploiting the repetitive fork-join structure, with a flate
// fallback for incompressible blocks — see block.go). Blocks carry the
// same sequence numbers as plain Events frames and are acked,
// deduplicated and resent identically, so resume semantics hold at
// block boundaries; because every block resets its own delta state, a
// block resent to a freshly restarted server decodes to the same
// events.
//
// # Version and capability table
//
//	version  magic      hello payload                      welcome payload                 report payload
//	5        "RDS\x05"  engine, batch, resume token,       session, token, next seq,       flags, binary report
//	                    caps, route key, auth credential   granted caps (intersection)     (race2d.Report.AppendBinary)
//
// Versions 4 and 5 changed only the Report payload: version 3 carried
// the verdict as JSON, and version 4 a binary body (encoding version 1)
// with fourteen always-zero service counters that version 5's body
// (encoding version 2) no longer has. The handshake is unchanged, but
// an older peer is refused at the magic with ErrVersion rather than
// failing later to parse a report it cannot read.
//
//	capability   bit     meaning
//	CapCompress  1<<0    sender may use EventsBlock (compressed) frames
//	CapTenant    1<<1    hello carries a tenant auth token ("tenant:key")
//
// # Tenant auth (CapTenant)
//
// A Hello may carry an auth token — the "tenant:key" credential the
// server checks against its -tenant-keys table — in its Auth field,
// offered under the CapTenant bit. A server
// running with tenant keys refuses a missing or wrong credential with
// an Error frame whose text carries HandshakeRefusedPrefix plus the
// ErrAuth text; a tenant over its session or storage quota is refused
// with the ErrQuota text. Both refusals are terminal for clients —
// resending the same bad credential cannot succeed — even though they
// ride the handshake-refusal prefix (see HandshakeRefusedPrefix).
// Servers running without tenant keys ignore the field, so an
// authenticated client speaks to an open server unchanged.
//
// # Frame layout
//
//	1 byte  frame type
//	4 bytes payload length (little endian)
//	N bytes payload
//	4 bytes CRC32 (IEEE) over type, length and payload
//
// Every frame is checksummed so a corrupted or desynchronized stream
// fails loudly instead of feeding garbage to a detector. Short reads
// surface as errors wrapping ErrTruncated (sentinel-checkable), bad
// checksums as ErrChecksum, oversized declarations as ErrFrameTooLarge.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"time"

	"repro/internal/fj"
)

// Version is the one protocol version this package speaks.
const Version = 5

// Capability bits. A session's capability set is the intersection
// of the bits the client offered in Hello and the bits the server
// granted back in Welcome.
const (
	// CapCompress lets the client send EventsBlock frames: event batches
	// compressed with the trace-aware block codec in this package.
	CapCompress uint64 = 1 << 0
	// CapTenant marks a Hello carrying a tenant auth credential in its
	// trailing Auth field. A server grants the bit back when it checked
	// the credential (it runs with tenant keys); an open server leaves it
	// ungranted and ignores the field.
	CapTenant uint64 = 1 << 1
)

// Magic opens every stream: "RDS" + Version.
var Magic = [4]byte{'R', 'D', 'S', Version}

// FrameType tags a frame.
type FrameType uint8

const (
	// FrameHello is the client's session request (EncodeHello payload).
	FrameHello FrameType = 1
	// FrameWelcome is the server's session grant (EncodeWelcome payload).
	FrameWelcome FrameType = 2
	// FrameEvents carries a sequenced batch of events (EncodeEventsSeq
	// payload).
	FrameEvents FrameType = 3
	// FrameFinish declares the client's stream complete; the server
	// answers with a Report. Empty payload.
	FrameFinish FrameType = 4
	// FrameReport carries the server's verdict (EncodeReport payload).
	FrameReport FrameType = 5
	// FrameError carries a fatal session error as UTF-8 text.
	FrameError FrameType = 6
	// FrameAck (server → client) names the highest contiguously
	// ingested event sequence (EncodeAck payload). The client may drop
	// acknowledged batches from its replay buffer.
	FrameAck FrameType = 7
	// FrameHeartbeat (both directions) is a keepalive. The payload
	// is empty; a peer that sees no frame for several heartbeat
	// intervals may declare the connection dead.
	FrameHeartbeat FrameType = 8
	// FrameEventsBlock (CapCompress) carries a batch of events as a
	// self-contained compressed block (BlockEncoder payload). Sequenced,
	// acked and resent exactly like an Events frame.
	FrameEventsBlock FrameType = 9
	// FrameReplHello (primary → follower) opens a store-replication
	// stream instead of a detection session: it names the source chain
	// and carries the replication credential (EncodeReplHello payload).
	FrameReplHello FrameType = 10
	// FrameReplWelcome (follower → primary) answers a ReplHello with
	// the follower's exact chain position so the primary can replay from
	// there (EncodeReplWelcome payload) — the anti-entropy handshake.
	FrameReplWelcome FrameType = 11
	// FrameReplRecord (primary → follower) carries one hash-chained
	// store record, byte-identical to the source log's on-disk framing
	// (EncodeReplRecord payload).
	FrameReplRecord FrameType = 12
	// FrameReplAck (follower → primary) acknowledges the highest
	// contiguously applied chain position (EncodeReplAck payload).
	FrameReplAck FrameType = 13
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameEvents:
		return "events"
	case FrameFinish:
		return "finish"
	case FrameReport:
		return "report"
	case FrameError:
		return "error"
	case FrameAck:
		return "ack"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameEventsBlock:
		return "events-block"
	case FrameReplHello:
		return "repl-hello"
	case FrameReplWelcome:
		return "repl-welcome"
	case FrameReplRecord:
		return "repl-record"
	case FrameReplAck:
		return "repl-ack"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// MaxFrameSize bounds a frame payload (4 MiB): large enough for tens of
// thousands of events per frame, small enough that a hostile length
// prefix cannot make the server allocate unboundedly.
const MaxFrameSize = 4 << 20

// Sentinel errors; all reads wrap these so callers can errors.Is.
var (
	// ErrTruncated aliases fj.ErrTruncated: the stream ended mid-frame.
	// One sentinel spans both layers, so a caller checking a decode
	// error needs a single errors.Is.
	ErrTruncated = fj.ErrTruncated
	// ErrChecksum reports a CRC mismatch — corruption or desync.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrFrameTooLarge reports a length prefix beyond MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrBadMagic reports a stream that does not open with the "RDS"
	// protocol magic at all — the peer is not speaking this protocol.
	ErrBadMagic = errors.New("wire: bad stream magic")
	// ErrEmptyHandshake reports a connection closed before a single
	// handshake byte arrived. Health probes (a TCP connect immediately
	// closed) look exactly like this; servers treat it as a probe, not a
	// refused handshake, so probing a raced does not pollute its
	// refusal accounting.
	ErrEmptyHandshake = errors.New("wire: connection closed before handshake")
	// ErrVersion reports an "RDS" stream whose version byte this
	// endpoint does not speak.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrUnknownResume reports a resume token the server no longer (or
	// never did) know — the session expired, finished and aged out, or
	// the server restarted. Sent to clients as an Error frame carrying
	// exactly this text, so both sides can classify it.
	ErrUnknownResume = errors.New("raced: unknown resume token")
	// ErrAuth reports a missing or invalid tenant credential against a
	// server that requires one. Sent as an Error frame whose text carries
	// HandshakeRefusedPrefix plus exactly this text; clients classify the
	// refusal as terminal (retrying the same credential cannot succeed).
	ErrAuth = errors.New("invalid tenant credentials")
	// ErrQuota reports a tenant at its session or storage quota. Same
	// framing and classification as ErrAuth: refusal text under
	// HandshakeRefusedPrefix, terminal for the client.
	ErrQuota = errors.New("tenant quota exceeded")
)

// HandshakeRefusedPrefix prefixes the Error-frame text a server sends
// when a handshake failed at the transport layer (garbled magic,
// unreadable Hello). Clients treat such refusals as retryable — the
// bytes, not the request, were at fault — unlike application refusals
// (session limit, unknown engine, unknown resume), which are terminal.
const HandshakeRefusedPrefix = "raced: handshake: "

const headerSize = 5 // type byte + uint32 length

// WriteMagic sends the stream-opening magic.
func WriteMagic(w io.Writer) error {
	_, err := w.Write(Magic[:])
	return err
}

// ReadMagic consumes the stream-opening magic. A stream that does not
// open with "RDS" is ErrBadMagic (not our protocol); one announcing a
// version other than Version is ErrVersion (our protocol, a version we
// do not speak).
func ReadMagic(r io.Reader) error {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		if err == io.EOF {
			// Zero bytes before EOF: a connect-and-close probe, not a
			// garbled handshake.
			return fmt.Errorf("wire: read magic: %w", ErrEmptyHandshake)
		}
		return fmt.Errorf("wire: read magic: %w", wrapEOF(err))
	}
	if m[0] != 'R' || m[1] != 'D' || m[2] != 'S' {
		return fmt.Errorf("%w: %q", ErrBadMagic, m[:])
	}
	if m[3] != Version {
		return fmt.Errorf("%w: version %d, speak %d", ErrVersion, m[3], Version)
	}
	return nil
}

// Backoff is the reconnect delay every peer of this protocol uses
// before its attempt'th retry (attempt >= 1): full jitter under an
// exponential ceiling, uniform(0, min(limit, base<<min(attempt-1, 16))).
func Backoff(base, limit time.Duration, attempt int) time.Duration {
	ceil := base << min(attempt-1, 16)
	if ceil > limit || ceil <= 0 {
		ceil = limit
	}
	return time.Duration(rand.Int63n(int64(ceil) + 1))
}

// AppendFrame appends a complete frame (header, payload, CRC) to dst
// and returns the extended slice — the allocation-free encoding path
// for senders that batch frames into one write.
func AppendFrame(dst []byte, t FrameType, payload []byte) []byte {
	dst = append(dst, byte(t))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	sum := crc32.NewIEEE()
	sum.Write(dst[len(dst)-len(payload)-headerSize:])
	return binary.LittleEndian.AppendUint32(dst, sum.Sum32())
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	buf := make([]byte, 0, headerSize+len(payload)+4)
	buf = AppendFrame(buf, t, payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame from r, reusing scratch for the payload
// when it is large enough. The returned payload aliases the scratch
// buffer (or a fresh allocation) and is valid until the next reuse.
func ReadFrame(r io.Reader, scratch []byte) (t FrameType, payload []byte, err error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("wire: read frame header: %w", wrapEOF(err))
	}
	t = FrameType(hdr[0])
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("%w: declared %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	payload = scratch[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: read %s payload: %w", t, wrapEOF(err))
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return 0, nil, fmt.Errorf("wire: read %s checksum: %w", t, wrapEOF(err))
	}
	sum := crc32.NewIEEE()
	sum.Write(hdr[:])
	sum.Write(payload)
	if got, want := sum.Sum32(), binary.LittleEndian.Uint32(tail[:]); got != want {
		return 0, nil, fmt.Errorf("%w: frame %s: %08x != %08x", ErrChecksum, t, got, want)
	}
	return t, payload, nil
}

func wrapEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w (%v)", ErrTruncated, err)
	}
	return err
}

// ---- handshake payloads -------------------------------------------------

// Hello is the client's session request.
type Hello struct {
	// Engine names the detector engine the session should run
	// (race2d.ParseEngine vocabulary; empty selects the default).
	Engine string
	// BatchSize asks the server to deliver events to the engine in
	// batches of this size. Zero delivers per event — the setting that
	// keeps remote Stats byte-identical to an unbuffered local run.
	BatchSize int
	// Token resumes a suspended session: zero requests a fresh session,
	// a non-zero value re-attaches to the session whose Welcome carried
	// it.
	Token uint64
	// Caps is the capability bitmask the client offers (CapCompress and
	// friends).
	Caps uint64
	// RouteKey is routing-relevant handshake metadata for session
	// gateways: a client-chosen placement key. A cluster gateway
	// (cmd/racedctl) consistent-hashes a non-zero RouteKey over its
	// backend ring, so sessions that should co-locate (same workload,
	// same tenant) can pin themselves to the same backend; zero lets the
	// gateway pick a key. Direct raced servers ignore it.
	RouteKey uint64
	// Auth (CapTenant) is the tenant credential, spelled "tenant:key".
	// Servers running without tenant keys ignore it. Gateways forward the
	// Hello payload byte-identically, so the credential reaches the
	// backend untouched.
	Auth string
}

// EncodeHello renders h as a frame payload: engine name, batch size,
// resume token, offered capability bitmask, routing key, and tenant
// credential.
func EncodeHello(h Hello) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(h.Engine)))
	buf = append(buf, h.Engine...)
	buf = binary.AppendUvarint(buf, uint64(h.BatchSize))
	buf = binary.AppendUvarint(buf, h.Token)
	buf = binary.AppendUvarint(buf, h.Caps)
	buf = binary.AppendUvarint(buf, h.RouteKey)
	buf = binary.AppendUvarint(buf, uint64(len(h.Auth)))
	return append(buf, h.Auth...)
}

// DecodeHello parses an EncodeHello payload. Every field is required;
// bytes past the last field are ignored.
func DecodeHello(payload []byte) (Hello, error) {
	var h Hello
	engine, rest, ok := cutString(payload)
	if !ok {
		return Hello{}, fmt.Errorf("wire: hello: malformed engine name: %w", ErrTruncated)
	}
	h.Engine = engine
	b, k := binary.Uvarint(rest)
	if k <= 0 || b > 1<<20 {
		return Hello{}, fmt.Errorf("wire: hello: malformed batch size: %w", ErrTruncated)
	}
	h.BatchSize = int(b)
	rest = rest[k:]
	for _, f := range []struct {
		name string
		v    *uint64
	}{{"resume token", &h.Token}, {"capability bits", &h.Caps}, {"route key", &h.RouteKey}} {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return Hello{}, fmt.Errorf("wire: hello: malformed %s: %w", f.name, ErrTruncated)
		}
		*f.v = v
		rest = rest[k:]
	}
	auth, _, ok := cutString(rest)
	if !ok {
		return Hello{}, fmt.Errorf("wire: hello: malformed auth credential: %w", ErrTruncated)
	}
	h.Auth = auth
	return h, nil
}

// cutString splits a uvarint-length-prefixed string (at most 1 KiB) off
// the front of b.
func cutString(b []byte) (string, []byte, bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > 1<<10 || uint64(len(b)-k) < n {
		return "", nil, false
	}
	return string(b[k : k+int(n)]), b[k+int(n):], true
}

// Welcome is the server's session grant.
type Welcome struct {
	// Session is the server-assigned session identifier, echoed in logs
	// and metrics.
	Session uint64
	// Token is the resume token a reconnecting client presents in Hello
	// to re-attach to this session. Never zero.
	Token uint64
	// NextSeq is the next Events sequence number the server expects: 1
	// for a fresh session, last-contiguously-ingested+1 on resume. The
	// client resends its replay buffer from here; earlier sequences are
	// already ingested and would be discarded.
	NextSeq uint64
	// Caps is the granted capability bitmask: the intersection of what
	// the client offered and what the server allows. The client must not
	// use a capability the Welcome did not grant.
	Caps uint64
}

// EncodeWelcome renders w as a frame payload: session id, resume token,
// next expected sequence, granted capability bitmask.
func EncodeWelcome(w Welcome) []byte {
	buf := binary.AppendUvarint(nil, w.Session)
	buf = binary.AppendUvarint(buf, w.Token)
	buf = binary.AppendUvarint(buf, w.NextSeq)
	return binary.AppendUvarint(buf, w.Caps)
}

// DecodeWelcome parses an EncodeWelcome payload.
func DecodeWelcome(payload []byte) (Welcome, error) {
	var w Welcome
	for _, field := range []*uint64{&w.Session, &w.Token, &w.NextSeq, &w.Caps} {
		v, k := binary.Uvarint(payload)
		if k <= 0 {
			return Welcome{}, fmt.Errorf("wire: welcome: %w", ErrTruncated)
		}
		*field = v
		payload = payload[k:]
	}
	return w, nil
}

// ---- acknowledgement payload ---------------------------------------

// EncodeAck renders the highest contiguously ingested sequence as an
// Ack frame payload.
func EncodeAck(seq uint64) []byte {
	return binary.AppendUvarint(nil, seq)
}

// DecodeAck parses an EncodeAck payload.
func DecodeAck(payload []byte) (uint64, error) {
	seq, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, fmt.Errorf("wire: ack: %w", ErrTruncated)
	}
	return seq, nil
}

// ---- event payloads -----------------------------------------------------

// EncodeEventsSeq appends an Events frame payload to dst: the batch's
// monotonic sequence number, the uvarint event count, then the record
// stream (fj.AppendEvents form).
func EncodeEventsSeq(dst []byte, seq uint64, events []fj.Event) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	return fj.AppendEvents(dst, events)
}

// DecodeEventsSeq parses an EncodeEventsSeq payload, appending the
// events to dst. A zero sequence is a framing error — batches are
// numbered from 1 so that acks can name "nothing ingested" as 0 — and so
// are trailing bytes after the declared count.
func DecodeEventsSeq(dst []fj.Event, payload []byte) (uint64, []fj.Event, error) {
	seq, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, dst, fmt.Errorf("wire: events: sequence: %w", ErrTruncated)
	}
	if seq == 0 {
		return 0, dst, errors.New("wire: events: zero sequence number")
	}
	payload = payload[k:]
	count, k := binary.Uvarint(payload)
	if k <= 0 {
		return seq, dst, fmt.Errorf("wire: events: count: %w", ErrTruncated)
	}
	if count > MaxFrameSize {
		return seq, dst, fmt.Errorf("wire: events: implausible count %d", count)
	}
	dst, rest, err := fj.DecodeEventsBytes(dst, payload[k:], int(count))
	if err != nil {
		return seq, dst, fmt.Errorf("wire: events: %w", err)
	}
	if len(rest) != 0 {
		return seq, dst, fmt.Errorf("wire: events: %d trailing bytes after %d events", len(rest), count)
	}
	return seq, dst, nil
}

// ---- report payload -----------------------------------------------------

// Report flags.
const (
	// FlagPartial marks a report produced by a draining server: it
	// covers the prefix of the stream consumed before shutdown.
	FlagPartial = 1 << 0
)

// EncodeReport renders a report frame payload: uvarint flags + the
// report's binary body (race2d.Report.AppendBinary form).
func EncodeReport(flags uint64, body []byte) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(body))
	buf = binary.AppendUvarint(buf, flags)
	return append(buf, body...)
}

// DecodeReport parses an EncodeReport payload. The body aliases
// payload.
func DecodeReport(payload []byte) (flags uint64, body []byte, err error) {
	flags, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, nil, fmt.Errorf("wire: report: flags: %w", ErrTruncated)
	}
	return flags, payload[k:], nil
}
