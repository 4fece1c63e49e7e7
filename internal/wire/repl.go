package wire

// Replication frame payloads.
//
// A raced backend configured with -replicate-to opens an ordinary "RDS"
// stream to each follower but sends FrameReplHello as its first
// frame instead of FrameHello. The follower answers FrameReplWelcome
// with its exact chain position (next index + running chain hash) —
// that single round trip IS the anti-entropy protocol: after a follower
// restart the primary simply replays its log from the announced
// position. Records then flow as FrameReplRecord, each carrying the
// byte-identical on-disk framing of one source-chain record (report or
// anchor), and the follower acknowledges contiguous application with
// FrameReplAck. Because the framing embeds each record's predecessor
// hash, the follower verifies the chain link before applying, so a
// replica log is bit-for-bit the same chain as its source.

import (
	"encoding/binary"
	"fmt"
)

// ChainHashSize is the size of a store chain hash on the wire. It must
// match store.HashSize; the repl package asserts the equality.
const ChainHashSize = 32

// MaxReplIDLen bounds the source-ID and credential strings in a
// ReplHello so a hostile hello cannot smuggle oversized fields.
const MaxReplIDLen = 256

// ReplHello opens a replication stream (FrameReplHello payload).
type ReplHello struct {
	// SourceID names the source chain (the primary log's persistent
	// identity); the follower keys its replica log by it.
	SourceID string
	// Key is the replication credential (-repl-key). Empty when the
	// follower accepts unauthenticated replication.
	Key string
}

// ReplWelcome reports the follower's chain position (FrameReplWelcome
// payload).
type ReplWelcome struct {
	// Next is the first chain index the follower does not have.
	Next uint64
	// Chain is the follower's running chain hash at Next (the hash of
	// its last applied record, or all zeroes for an empty replica).
	Chain [ChainHashSize]byte
}

// ReplRecord carries one source-chain record (FrameReplRecord payload).
type ReplRecord struct {
	// Index is the record's chain position in the source log.
	Index uint64
	// Framed is the record's on-disk framing, byte-identical to the
	// source segment bytes (length + prev hash + body + CRC).
	Framed []byte
}

// EncodeReplHello renders a FrameReplHello payload.
func EncodeReplHello(h ReplHello) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(h.SourceID)))
	buf = append(buf, h.SourceID...)
	buf = binary.AppendUvarint(buf, uint64(len(h.Key)))
	return append(buf, h.Key...)
}

// DecodeReplHello parses a FrameReplHello payload. Unknown trailing
// bytes are ignored so future versions can extend the hello.
func DecodeReplHello(payload []byte) (ReplHello, error) {
	var h ReplHello
	rest := payload
	for i, dst := range []*string{&h.SourceID, &h.Key} {
		n, k := binary.Uvarint(rest)
		if k <= 0 || n > MaxReplIDLen || uint64(len(rest[k:])) < n {
			return ReplHello{}, fmt.Errorf("wire: repl-hello field %d: %w", i, ErrTruncated)
		}
		*dst = string(rest[k : k+int(n)])
		rest = rest[k+int(n):]
	}
	return h, nil
}

// EncodeReplWelcome renders a FrameReplWelcome payload.
func EncodeReplWelcome(w ReplWelcome) []byte {
	buf := binary.AppendUvarint(nil, w.Next)
	return append(buf, w.Chain[:]...)
}

// DecodeReplWelcome parses a FrameReplWelcome payload.
func DecodeReplWelcome(payload []byte) (ReplWelcome, error) {
	var w ReplWelcome
	next, k := binary.Uvarint(payload)
	if k <= 0 || len(payload[k:]) < ChainHashSize {
		return ReplWelcome{}, fmt.Errorf("wire: repl-welcome: %w", ErrTruncated)
	}
	w.Next = next
	copy(w.Chain[:], payload[k:])
	return w, nil
}

// EncodeReplRecord appends a FrameReplRecord payload to dst.
func EncodeReplRecord(dst []byte, r ReplRecord) []byte {
	dst = binary.AppendUvarint(dst, r.Index)
	return append(dst, r.Framed...)
}

// DecodeReplRecord parses a FrameReplRecord payload. The returned
// Framed aliases the payload.
func DecodeReplRecord(payload []byte) (ReplRecord, error) {
	idx, k := binary.Uvarint(payload)
	if k <= 0 || len(payload) == k {
		return ReplRecord{}, fmt.Errorf("wire: repl-record: %w", ErrTruncated)
	}
	return ReplRecord{Index: idx, Framed: payload[k:]}, nil
}

// EncodeReplAck renders a FrameReplAck payload: the first chain index
// the follower has not yet contiguously applied.
func EncodeReplAck(next uint64) []byte {
	return binary.AppendUvarint(nil, next)
}

// DecodeReplAck parses a FrameReplAck payload.
func DecodeReplAck(payload []byte) (uint64, error) {
	next, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, fmt.Errorf("wire: repl-ack: %w", ErrTruncated)
	}
	return next, nil
}
