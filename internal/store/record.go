package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing. Every record in a segment file is length-prefixed,
// CRC-framed, and hash-chained to its predecessor:
//
//	4 bytes   body length N (little endian)
//	N bytes   body:
//	  32 bytes  prevHash — SHA-256 of the predecessor's full framed
//	            bytes (the segment header's carry-in hash for the first
//	            record of a segment)
//	  1 byte    kind (KindReport | KindAnchor)
//	  ...       kind-specific payload (varint fields)
//	  4 bytes   CRC32 (IEEE) over the length prefix, prevHash, kind and
//	            payload
//
// The CRC makes any single-byte corruption detectable on its own (CRC32
// catches every burst up to 32 bits); the hash chain makes wholesale
// record replacement — corrupt a record and recompute its CRC —
// detectable too, because the forged bytes change the record's SHA-256
// and every later record (and anchor) vouches for the old one.
//
// The chain hash of a record is SHA-256 over its complete framed bytes,
// length prefix through CRC. Each record carries its predecessor's
// chain hash, so the log is append-only by construction: rewriting
// history invalidates every subsequent record.

// RecordKind tags a framed record.
type RecordKind uint8

const (
	// KindReport is a persisted session report (Record payload).
	KindReport RecordKind = 1
	// KindAnchor is a periodic integrity checkpoint: its payload names
	// the number of records preceding it and repeats the chain hash they
	// fold up to, so an external system can mirror ("anchor") the log's
	// integrity state out-of-band and Verify can cross-check long chains
	// without trusting any single record.
	KindAnchor RecordKind = 2
)

// HashSize is the size of the chain hash carried by every record.
const HashSize = sha256.Size

// MaxRecordSize bounds a record body (16 MiB): generously above any
// report the 4 MiB wire frame limit could have delivered, small enough
// that a corrupt length prefix cannot demand an unbounded allocation.
const MaxRecordSize = 16 << 20

// recordOverhead is the framed size beyond the kind-specific payload:
// length prefix + prevHash + kind byte + CRC.
const recordOverhead = 4 + HashSize + 1 + 4

// Framing sentinels. DecodeRecord wraps these so callers can errors.Is.
var (
	// ErrTruncated reports a record cut short: the data ends before the
	// declared body does. At the tail of the live segment this is a torn
	// append (crash mid-write), recoverable by truncation; anywhere else
	// it is corruption.
	ErrTruncated = errors.New("store: truncated record")
	// ErrCorrupt reports a record whose bytes are internally
	// inconsistent: CRC mismatch, an implausible length, a malformed
	// payload, or an unknown kind.
	ErrCorrupt = errors.New("store: corrupt record")
)

// Record is one persisted report: the durable form of a finished
// session's verdict, keyed by the resume token the client already
// holds.
type Record struct {
	// Token is the session's resume token — the retrieval key.
	Token uint64
	// Session is the server-assigned session id, for logs and metrics.
	Session uint64
	// NextSeq is the sequence cursor the session finished at, echoed in
	// the Welcome when the report is served to a resuming client.
	NextSeq uint64
	// Flags are the wire report flags (wire.FlagPartial and friends).
	Flags uint64
	// Unix is the persist time in seconds; retention compares against it.
	Unix int64
	// Tenant names the owning tenant ("" when the server runs without
	// tenant auth). Retrieval requires the same tenant.
	Tenant string
	// JSON is the report body: the verdict in the race2d.Report binary
	// encoding (AppendBinary), re-served verbatim so retrieval is
	// byte-identical. The store treats it as opaque bytes; JSON is
	// rendered from it only at the edges. (The field predates the
	// binary encoding and keeps its name for existing callers.)
	JSON []byte
}

// Anchor is a decoded KindAnchor payload.
type Anchor struct {
	// Records is how many records precede this anchor in the chain.
	Records uint64
	// Chain repeats the anchor's own prevHash — the chain state it
	// vouches for.
	Chain [HashSize]byte
}

// chainHash folds one framed record into the chain.
func chainHash(framed []byte) [HashSize]byte {
	return sha256.Sum256(framed)
}

// appendFrame frames a body (prevHash + kind + payload) already built
// in buf[4:], fixing up the length prefix and appending the CRC.
func appendFrame(buf []byte) []byte {
	body := len(buf) - 4 + 4 // body includes the CRC about to be added
	binary.LittleEndian.PutUint32(buf[:4], uint32(body))
	sum := crc32.NewIEEE()
	sum.Write(buf)
	return binary.LittleEndian.AppendUint32(buf, sum.Sum32())
}

// AppendRecord appends the framed form of rec, chained to prev, onto
// dst and returns the extended slice.
func AppendRecord(dst []byte, prev [HashSize]byte, rec Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, fixed up below
	dst = append(dst, prev[:]...)
	dst = append(dst, byte(KindReport))
	dst = binary.AppendUvarint(dst, rec.Token)
	dst = binary.AppendUvarint(dst, rec.Session)
	dst = binary.AppendUvarint(dst, rec.NextSeq)
	dst = binary.AppendUvarint(dst, rec.Flags)
	dst = binary.AppendVarint(dst, rec.Unix)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Tenant)))
	dst = append(dst, rec.Tenant...)
	dst = binary.AppendUvarint(dst, uint64(len(rec.JSON)))
	dst = append(dst, rec.JSON...)
	return append(dst[:start], appendFrame(dst[start:])...)
}

// AppendAnchor appends a framed anchor record, chained to prev, onto
// dst. records is the number of records preceding the anchor.
func AppendAnchor(dst []byte, prev [HashSize]byte, records uint64) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, prev[:]...)
	dst = append(dst, byte(KindAnchor))
	dst = binary.AppendUvarint(dst, records)
	dst = append(dst, prev[:]...) // the anchored chain state
	return append(dst[:start], appendFrame(dst[start:])...)
}

// DecodeRecord parses one framed record from the head of data. It
// returns the record kind, the decoded Record (KindReport) or Anchor
// (KindAnchor), the record's prevHash link, and the framed length
// consumed. Malformed input never panics: short data is ErrTruncated,
// everything else inconsistent is ErrCorrupt.
func DecodeRecord(data []byte) (kind RecordKind, rec Record, anc Anchor, prev [HashSize]byte, n int, err error) {
	if len(data) < 4 {
		return 0, rec, anc, prev, 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(data))
	}
	body := binary.LittleEndian.Uint32(data)
	if body > MaxRecordSize {
		return 0, rec, anc, prev, 0, fmt.Errorf("%w: declared %d-byte body", ErrCorrupt, body)
	}
	if body < recordOverhead-4 {
		return 0, rec, anc, prev, 0, fmt.Errorf("%w: %d-byte body below framing minimum", ErrCorrupt, body)
	}
	if uint32(len(data)-4) < body {
		return 0, rec, anc, prev, 0, fmt.Errorf("%w: %d of %d body bytes", ErrTruncated, len(data)-4, body)
	}
	n = 4 + int(body)
	framed := data[:n]
	sum := crc32.NewIEEE()
	sum.Write(framed[:n-4])
	if got, want := sum.Sum32(), binary.LittleEndian.Uint32(framed[n-4:]); got != want {
		return 0, rec, anc, prev, 0, fmt.Errorf("%w: crc %08x != %08x", ErrCorrupt, got, want)
	}
	copy(prev[:], framed[4:4+HashSize])
	kind = RecordKind(framed[4+HashSize])
	payload := framed[4+HashSize+1 : n-4]
	switch kind {
	case KindReport:
		rec, err = decodeReportPayload(payload)
	case KindAnchor:
		anc, err = decodeAnchorPayload(payload)
	default:
		err = fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}
	if err != nil {
		return 0, Record{}, Anchor{}, prev, 0, err
	}
	return kind, rec, anc, prev, n, nil
}

func decodeReportPayload(payload []byte) (Record, error) {
	var rec Record
	for _, field := range []*uint64{&rec.Token, &rec.Session, &rec.NextSeq, &rec.Flags} {
		v, k := binary.Uvarint(payload)
		if k <= 0 {
			return Record{}, fmt.Errorf("%w: malformed report field", ErrCorrupt)
		}
		*field = v
		payload = payload[k:]
	}
	unix, k := binary.Varint(payload)
	if k <= 0 {
		return Record{}, fmt.Errorf("%w: malformed timestamp", ErrCorrupt)
	}
	rec.Unix = unix
	payload = payload[k:]
	tenant, payload, err := decodeBytes(payload, 1<<10, "tenant")
	if err != nil {
		return Record{}, err
	}
	rec.Tenant = string(tenant)
	body, payload, err := decodeBytes(payload, MaxRecordSize, "report body")
	if err != nil {
		return Record{}, err
	}
	if len(payload) != 0 {
		return Record{}, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(payload))
	}
	rec.JSON = append([]byte(nil), body...)
	return rec, nil
}

func decodeAnchorPayload(payload []byte) (Anchor, error) {
	var anc Anchor
	records, k := binary.Uvarint(payload)
	if k <= 0 {
		return Anchor{}, fmt.Errorf("%w: malformed anchor count", ErrCorrupt)
	}
	anc.Records = records
	payload = payload[k:]
	if len(payload) != HashSize {
		return Anchor{}, fmt.Errorf("%w: anchor hash is %d bytes, want %d", ErrCorrupt, len(payload), HashSize)
	}
	copy(anc.Chain[:], payload)
	return anc, nil
}

// decodeBytes parses a uvarint-length-prefixed byte string, bounding
// the declared length so a corrupt prefix cannot demand an allocation
// beyond the record it arrived in.
func decodeBytes(payload []byte, limit uint64, what string) ([]byte, []byte, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 || n > limit || uint64(len(payload)-k) < n {
		return nil, nil, fmt.Errorf("%w: malformed %s", ErrCorrupt, what)
	}
	return payload[k : k+int(n)], payload[k+int(n):], nil
}
