package store

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Segment layout. A segment file opens with a fixed header:
//
//	8 bytes   magic "R2DSEG03" — "R2DSEG" plus the two-digit format
//	          version
//	8 bytes   base index (little endian) — the chain-wide index of the
//	          segment's first record
//	32 bytes  carry-in hash — the chain hash the segment starts from
//	          (the last record of the previous segment; zero for the
//	          first segment ever written)
//
// followed by framed records (record.go). The header makes each segment
// independently verifiable and lets Compact delete fully-expired prefix
// segments without breaking the chain: the next segment's header vouches
// for where the retained chain resumes. Segments must stay contiguous
// (seg-N is only ever followed by seg-N+1); a missing middle segment is
// tampering, a missing prefix is retention.
//
// Format 03 holds report bodies in version 2 of the race2d.Report
// binary encoding; format 02 held version 1 (with fourteen always-zero
// service counters) and format 01 held JSON. A log in any format but 03
// is refused at open with a *FormatError, never scanned, truncated or
// recovered.

var segMagic = [8]byte{'R', '2', 'D', 'S', 'E', 'G', '0', '3'}

// ErrFormat is the target of errors.Is for every *FormatError.
var ErrFormat = errors.New("store: unsupported segment format")

// FormatError reports a segment written in a format version this build
// does not read. Opening such a log fails; the files are left as they
// are.
type FormatError struct {
	// Segment is the base name of the segment file.
	Segment string
	// Version is the format version its magic announces ("01").
	Version string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("store: %s is segment format %s, this build reads only format %s (old logs are not converted)",
		e.Segment, e.Version, segMagic[6:])
}

func (e *FormatError) Unwrap() error { return ErrFormat }

const segHeaderSize = 8 + 8 + HashSize

// LogConfig configures a Log store.
type LogConfig struct {
	// Dir is the segment directory, created if absent.
	Dir string
	// Retention expires records this long after their persist time
	// (0 = keep forever). Expired records stop being served immediately;
	// their bytes are reclaimed when their whole segment has expired.
	Retention time.Duration
	// SegmentBytes rolls the active segment when it reaches this size
	// (default 1 MiB). Smaller segments reclaim space sooner.
	SegmentBytes int64
	// AnchorEvery inserts an anchor record after this many records
	// (default 64).
	AnchorEvery int
	// NoSync skips the fsync after every Put. Faster, but a host crash
	// can lose the latest acked reports — a process crash cannot.
	NoSync bool
	// WrapWriter, when non-nil, wraps the writer every record append
	// goes through — the fault-injection hook (faults.Injector.Writer)
	// that lets tests drive short writes and ENOSPC-style refusals into
	// the segment append path.
	WrapWriter func(io.Writer) io.Writer
}

func (c LogConfig) withDefaults() LogConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 1 << 20
	}
	if c.AnchorEvery <= 0 {
		c.AnchorEvery = 64
	}
	return c
}

// segInfo describes one scanned segment.
type segInfo struct {
	seq      uint64
	path     string
	base     uint64 // chain-wide index of the first record
	records  int
	bytes    int64
	maxUnix  int64 // newest record timestamp (retention input)
	lastHash [HashSize]byte
}

// entry locates one report record in a segment.
type entry struct {
	seg     uint64
	off     int64
	n       int
	index   uint64 // chain-wide record index
	meta    Record // body (JSON field) nil; metadata only
	bodyLen int
}

// Log is the durable Store: hash-chained append-only segment files plus
// an in-memory token index rebuilt (and verified) on open.
type Log struct {
	cfg LogConfig
	id  string

	mu       sync.Mutex
	segs     []segInfo
	active   *os.File
	w        io.Writer // active, possibly wrapped by cfg.WrapWriter
	index    map[uint64]entry
	next     uint64 // chain-wide index of the next record
	prev     [HashSize]byte
	sinceAnc int
	tampered *TamperError
	failed   error // terminal append-failure state (tail unrecoverable)
	buf      []byte
	subs     []chan struct{}

	puts, putFailures, gets, hits uint64
	compactions, pruned           uint64
	verifyFailures                uint64
}

// OpenLog opens (or creates) a log store, scanning and verifying every
// segment to rebuild the token index. A torn record at the tail of the
// final segment — a crash mid-append — is truncated away. Damage
// anywhere else does NOT fail the open: the store comes up marked
// tampered, reports indexed before the damage stay retrievable,
// everything at or past it is refused with the *TamperError, and
// appends are refused outright (the chain they would extend is not
// trustworthy). Only real I/O errors and a log written in another
// segment format version (a *FormatError, errors.Is ErrFormat) fail
// the open; an old-format log is left byte for byte as it was.
func OpenLog(cfg LogConfig) (*Log, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("store: log dir required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	id, err := loadIdentity(cfg.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{cfg: cfg, id: id, index: make(map[uint64]entry)}
	if err := l.scan(true); err != nil {
		var te *TamperError
		if !errors.As(err, &te) {
			return nil, err
		}
	}
	if l.tampered == nil {
		if err := l.openActive(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// loadIdentity reads (or mints, on first open) the log's persistent
// identity — a random hex string in <dir>/identity. Replication keys
// follower replica logs by it, so it must survive restarts.
func loadIdentity(dir string) (string, error) {
	path := filepath.Join(dir, "identity")
	if b, err := os.ReadFile(path); err == nil {
		id := strings.TrimSpace(string(b))
		if !ValidSourceID(id) {
			return "", fmt.Errorf("store: malformed identity file %s", path)
		}
		return id, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return "", fmt.Errorf("store: %w", err)
	}
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	id := hex.EncodeToString(raw[:])
	if err := os.WriteFile(path, []byte(id+"\n"), 0o644); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return id, nil
}

// ValidSourceID reports whether s is a well-formed log identity: short
// lowercase hex, so an ID received over the network is always safe to
// use as a directory name.
func ValidSourceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ID returns the log's persistent identity (see loadIdentity).
func (l *Log) ID() string { return l.id }

// listSegments returns the directory's segment files ordered by
// sequence number.
func listSegments(dir string) ([]segInfo, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	segs := make([]segInfo, 0, len(names))
	for _, path := range names {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%016x.log", &seq); err != nil {
			continue // foreign file; ignore
		}
		segs = append(segs, segInfo{seq: seq, path: path})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// scan walks every segment verifying the chain. With build set it
// (re)populates the index and append cursor; without, it only checks
// (Verify). The first damage becomes l.tampered (build) or the returned
// error (verify-only). Caller holds l.mu or has exclusive access.
func (l *Log) scan(build bool) error {
	segs, err := listSegments(l.cfg.Dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if build {
		l.segs = l.segs[:0]
		l.index = make(map[uint64]entry)
		l.next = 0
		l.prev = [HashSize]byte{}
		l.sinceAnc = 0
		l.tampered = nil
	}
	var (
		prev     [HashSize]byte
		chainPos uint64
		havePrev bool
		lastSeq  uint64
	)
	fail := func(seg *segInfo, off int64, idx uint64, cause error) error {
		te := &TamperError{Segment: filepath.Base(seg.path), Offset: off, Index: int(idx), Cause: cause}
		l.verifyFailures++
		if build {
			l.tampered = te
			// Keep the partially-scanned segment so records indexed
			// before the damage stay servable.
			l.segs = append(l.segs, *seg)
		}
		return te
	}
	for si := range segs {
		seg := &segs[si]
		final := si == len(segs)-1
		if havePrev && seg.seq != lastSeq+1 {
			return fail(seg, 0, chainPos, fmt.Errorf("%w: segment gap: %d follows %d", ErrCorrupt, seg.seq, lastSeq))
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if len(data) >= 8 && string(data[:6]) == string(segMagic[:6]) && [8]byte(data[:8]) != segMagic {
			// Another format version of this store: refuse before
			// anything below may truncate or index it.
			return &FormatError{Segment: filepath.Base(seg.path), Version: string(data[6:8])}
		}
		if len(data) < segHeaderSize {
			return fail(seg, 0, chainPos, fmt.Errorf("%w: short segment header", ErrTruncated))
		}
		if [8]byte(data[:8]) != segMagic {
			return fail(seg, 0, chainPos, fmt.Errorf("%w: bad segment magic", ErrCorrupt))
		}
		base := binary.LittleEndian.Uint64(data[8:16])
		var carry [HashSize]byte
		copy(carry[:], data[16:segHeaderSize])
		if havePrev {
			if carry != prev {
				return fail(seg, 0, chainPos, fmt.Errorf("%w: segment carry-in hash does not extend the chain", ErrCorrupt))
			}
			if base != chainPos {
				return fail(seg, 0, chainPos, fmt.Errorf("%w: segment base index %d, chain is at %d", ErrCorrupt, base, chainPos))
			}
		} else {
			// First retained segment: its header is the trust root (the
			// prefix before it was pruned by retention, or never existed).
			prev = carry
			chainPos = base
		}
		havePrev = true
		lastSeq = seg.seq
		seg.base = base

		off := int64(segHeaderSize)
		sinceAnchor := 0
		for off < int64(len(data)) {
			kind, rec, anc, recPrev, n, err := DecodeRecord(data[off:])
			if err != nil {
				if final && build && errors.Is(err, ErrTruncated) {
					// Torn append at the live tail: the record was never
					// acked. Cut it off and keep the store healthy. Only
					// the open-time scan gets this leniency — by the time
					// Verify runs, any torn tail has been truncated, so a
					// short read there is damage like anywhere else.
					if terr := os.Truncate(seg.path, off); terr != nil {
						return fmt.Errorf("store: truncating torn tail: %w", terr)
					}
					break
				}
				return fail(seg, off, chainPos, err)
			}
			if recPrev != prev {
				return fail(seg, off, chainPos, fmt.Errorf("%w: chain link broken", ErrCorrupt))
			}
			framed := data[off : off+int64(n)]
			switch kind {
			case KindAnchor:
				if anc.Records != chainPos {
					return fail(seg, off, chainPos, fmt.Errorf("%w: anchor names record %d at chain position %d", ErrCorrupt, anc.Records, chainPos))
				}
				if anc.Chain != prev {
					return fail(seg, off, chainPos, fmt.Errorf("%w: anchor hash does not match the chain", ErrCorrupt))
				}
				sinceAnchor = 0
			case KindReport:
				sinceAnchor++
				if build {
					meta := rec
					meta.JSON = nil
					l.index[rec.Token] = entry{
						seg: seg.seq, off: off, n: n, index: chainPos,
						meta: meta, bodyLen: len(rec.JSON),
					}
				}
				if rec.Unix > seg.maxUnix {
					seg.maxUnix = rec.Unix
				}
			}
			prev = chainHash(framed)
			chainPos++
			seg.records++
			seg.bytes += int64(n)
			off += int64(n)
		}
		seg.lastHash = prev
		if build {
			l.segs = append(l.segs, *seg)
			l.next = chainPos
			l.prev = prev
			l.sinceAnc = sinceAnchor
		}
	}
	return nil
}

// openActive positions the append cursor: the newest scanned segment if
// it has room, otherwise a fresh one. Caller has exclusive access.
func (l *Log) openActive() error {
	if n := len(l.segs); n > 0 {
		seg := &l.segs[n-1]
		size := segHeaderSize + seg.bytes
		if size < l.cfg.SegmentBytes {
			f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("store: %w", err)
			}
			l.setActive(f)
			return nil
		}
	}
	return l.rollLocked()
}

// rollLocked closes the active segment and starts the next one, whose
// header carries the chain state forward. Caller holds l.mu (or has
// exclusive access during open).
func (l *Log) rollLocked() error {
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	var seq uint64 = 1
	if n := len(l.segs); n > 0 {
		seq = l.segs[n-1].seq + 1
	}
	path := filepath.Join(l.cfg.Dir, fmt.Sprintf("seg-%016x.log", seq))
	// O_APPEND so a failed append that recoverTailLocked truncates away
	// cannot leave the file offset past EOF: the next write must land at
	// the truncated end, never after a hole of zero bytes.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, l.next)
	hdr = append(hdr, l.prev[:]...)
	w := io.Writer(f)
	if l.cfg.WrapWriter != nil {
		w = l.cfg.WrapWriter(f)
	}
	hn, err := w.Write(hdr)
	if err == nil && hn != len(hdr) {
		err = io.ErrShortWrite
	}
	if err == nil && !l.cfg.NoSync {
		err = f.Sync()
	}
	if err != nil {
		// Remove the half-born segment: a partial header left behind
		// would read as tampering on the next open.
		f.Close()
		os.Remove(path)
		return fmt.Errorf("store: %w", err)
	}
	l.segs = append(l.segs, segInfo{seq: seq, path: path, base: l.next})
	l.setActive(f)
	return nil
}

// setActive installs the active segment file and its (possibly
// fault-wrapped) append writer.
func (l *Log) setActive(f *os.File) {
	l.active = f
	l.w = io.Writer(f)
	if l.cfg.WrapWriter != nil {
		l.w = l.cfg.WrapWriter(f)
	}
}

// Put appends one report record (and, on cadence, an anchor), fsyncs
// unless NoSync, and indexes it. A tampered store refuses appends: the
// chain it would extend is not trustworthy.
func (l *Log) Put(rec Record) error {
	if rec.Unix == 0 {
		rec.Unix = now().Unix()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.puts++
	if l.tampered != nil {
		l.putFailures++
		return l.tampered
	}
	if l.failed != nil {
		l.putFailures++
		return l.failed
	}
	if segHeaderSize+l.segBytesLocked() >= l.cfg.SegmentBytes {
		if err := l.rollLocked(); err != nil {
			l.putFailures++
			return err
		}
	}
	l.buf = l.buf[:0]
	buf := AppendRecord(l.buf, l.prev, rec)
	recLen := len(buf)
	recHash := chainHash(buf)
	writeAnchor := l.sinceAnc+1 >= l.cfg.AnchorEvery
	if writeAnchor {
		buf = AppendAnchor(buf, recHash, l.next+1)
	}
	l.buf = buf
	seg := &l.segs[len(l.segs)-1]
	if n, err := l.w.Write(buf); err != nil || n != len(buf) {
		if err == nil {
			err = io.ErrShortWrite
		}
		l.putFailures++
		return l.recoverTailLocked(seg, fmt.Errorf("store: append: %w", err))
	}
	if !l.cfg.NoSync {
		if err := l.active.Sync(); err != nil {
			l.putFailures++
			return l.recoverTailLocked(seg, fmt.Errorf("store: fsync: %w", err))
		}
	}
	meta := rec
	meta.JSON = nil
	l.index[rec.Token] = entry{
		seg: seg.seq, off: segHeaderSize + seg.bytes, n: recLen,
		index: l.next, meta: meta, bodyLen: len(rec.JSON),
	}
	if rec.Unix > seg.maxUnix {
		seg.maxUnix = rec.Unix
	}
	seg.bytes += int64(len(buf))
	seg.records++
	l.next++
	l.sinceAnc++
	l.prev = recHash
	if writeAnchor {
		l.prev = chainHash(buf[recLen:])
		l.next++
		l.sinceAnc = 0
		seg.records++ // the anchor occupies a chain slot of its own
	}
	l.notifyAppendLocked()
	return nil
}

// recoverTailLocked repairs the active segment after a failed append by
// truncating any torn bytes back to the last known-good size, so the
// chain on disk stays verifiable. If even that fails the store enters a
// terminal failed state: every later Put is refused (and counted)
// rather than risking a corrupt tail. Caller holds l.mu.
func (l *Log) recoverTailLocked(seg *segInfo, cause error) error {
	good := int64(segHeaderSize) + seg.bytes
	err := l.active.Truncate(good)
	if err == nil && !l.cfg.NoSync {
		err = l.active.Sync()
	}
	if err != nil {
		l.failed = fmt.Errorf("%v (store now refusing appends: tail recovery failed: %v)", cause, err)
		return l.failed
	}
	return cause
}

// notifyAppendLocked signals every Subscribe channel; notifications are
// coalesced so an idle replicator wakes once per burst.
func (l *Log) notifyAppendLocked() {
	for _, c := range l.subs {
		select {
		case c <- struct{}{}:
		default:
		}
	}
}

// Subscribe returns a channel that receives a (coalesced) notification
// after every successful append — the replication streamers' wakeup.
// Each subscriber gets its own channel; there is no unsubscribe (the
// channels live as long as the log).
func (l *Log) Subscribe() <-chan struct{} {
	c := make(chan struct{}, 1)
	l.mu.Lock()
	l.subs = append(l.subs, c)
	l.mu.Unlock()
	return c
}

// Failed returns the terminal append-failure state, if the log has
// entered one (see recoverTailLocked).
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// ChainPos returns the chain position the next append will occupy and
// the running chain hash it will link to. Two logs with equal ChainPos
// hold byte-identical verified chains.
func (l *Log) ChainPos() (next uint64, prev [HashSize]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next, l.prev
}

// ReadFramed returns the on-disk framed bytes of chain records (reports
// AND anchors) starting at chain position from, bounded by maxBytes
// (but always at least one record), plus the chain position one past
// the last returned record. It reads at most one segment per call;
// callers loop. A position pruned by retention returns ErrCompacted —
// the replica behind it can never catch up from this log.
func (l *Log) ReadFramed(from uint64, maxBytes int) ([][]byte, uint64, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 10
	}
	l.mu.Lock()
	if l.tampered != nil {
		t := l.tampered
		l.mu.Unlock()
		return nil, from, t
	}
	if from > l.next {
		next := l.next
		l.mu.Unlock()
		return nil, from, fmt.Errorf("store: read framed: position %d beyond chain end %d", from, next)
	}
	if from == l.next {
		l.mu.Unlock()
		return nil, from, nil
	}
	var seg segInfo
	found := false
	for i := range l.segs {
		s := l.segs[i]
		if from >= s.base && from < s.base+uint64(s.records) {
			seg = s
			found = true
			break
		}
	}
	l.mu.Unlock()
	if !found {
		return nil, from, fmt.Errorf("%w: position %d", ErrCompacted, from)
	}
	data, err := os.ReadFile(seg.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, from, fmt.Errorf("%w: position %d", ErrCompacted, from)
		}
		return nil, from, fmt.Errorf("store: %w", err)
	}
	if len(data) < segHeaderSize {
		return nil, from, fmt.Errorf("store: read framed: %w: short segment header", ErrTruncated)
	}
	var frames [][]byte
	pos, off, total := seg.base, int64(segHeaderSize), 0
	for off < int64(len(data)) && pos < seg.base+uint64(seg.records) {
		_, _, _, _, n, err := DecodeRecord(data[off:])
		if err != nil {
			return frames, pos, fmt.Errorf("store: read framed: %w", err)
		}
		if pos >= from {
			if len(frames) > 0 && total+n > maxBytes {
				return frames, pos, nil
			}
			frames = append(frames, append([]byte(nil), data[off:off+int64(n)]...))
			total += n
		}
		pos++
		off += int64(n)
	}
	return frames, pos, nil
}

// ApplyFramed appends one replicated record exactly as framed by the
// source log, after verifying the frame decodes, lands at the expected
// chain position, and links to this replica's running chain hash — the
// chain-hash verification on apply. The replica's chain stays
// byte-identical to the source's.
func (l *Log) ApplyFramed(index uint64, framed []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.puts++
	if l.tampered != nil {
		l.putFailures++
		return l.tampered
	}
	if l.failed != nil {
		l.putFailures++
		return l.failed
	}
	kind, rec, anc, prev, n, err := DecodeRecord(framed)
	if err == nil && n != len(framed) {
		err = fmt.Errorf("%w: trailing bytes after record", ErrCorrupt)
	}
	if err != nil {
		l.putFailures++
		return fmt.Errorf("store: apply: %w", err)
	}
	if index != l.next {
		l.putFailures++
		return fmt.Errorf("store: apply: record at chain position %d, replica is at %d", index, l.next)
	}
	if prev != l.prev {
		l.putFailures++
		return fmt.Errorf("store: apply: %w: chain link broken at position %d", ErrCorrupt, index)
	}
	if kind == KindAnchor && (anc.Records != l.next || anc.Chain != l.prev) {
		l.putFailures++
		return fmt.Errorf("store: apply: %w: anchor does not match the chain", ErrCorrupt)
	}
	if segHeaderSize+l.segBytesLocked() >= l.cfg.SegmentBytes {
		if err := l.rollLocked(); err != nil {
			l.putFailures++
			return err
		}
	}
	seg := &l.segs[len(l.segs)-1]
	if wn, werr := l.w.Write(framed); werr != nil || wn != len(framed) {
		if werr == nil {
			werr = io.ErrShortWrite
		}
		l.putFailures++
		return l.recoverTailLocked(seg, fmt.Errorf("store: append: %w", werr))
	}
	if !l.cfg.NoSync {
		if err := l.active.Sync(); err != nil {
			l.putFailures++
			return l.recoverTailLocked(seg, fmt.Errorf("store: fsync: %w", err))
		}
	}
	switch kind {
	case KindReport:
		meta := rec
		meta.JSON = nil
		l.index[rec.Token] = entry{
			seg: seg.seq, off: segHeaderSize + seg.bytes, n: n,
			index: l.next, meta: meta, bodyLen: len(rec.JSON),
		}
		if rec.Unix > seg.maxUnix {
			seg.maxUnix = rec.Unix
		}
		l.sinceAnc++
	case KindAnchor:
		l.sinceAnc = 0
	}
	seg.bytes += int64(n)
	seg.records++
	l.next++
	l.prev = chainHash(framed)
	l.notifyAppendLocked()
	return nil
}

// segBytesLocked is the active segment's record bytes (0 when none).
func (l *Log) segBytesLocked() int64 {
	if n := len(l.segs); n > 0 {
		return l.segs[n-1].bytes
	}
	return l.cfg.SegmentBytes // force a roll when no segment exists
}

// Get retrieves the report stored under token, re-reading (and
// re-checking) its framed bytes from the segment file.
func (l *Log) Get(token uint64) (Record, error) {
	l.mu.Lock()
	l.gets++
	e, ok := l.index[token]
	tampered := l.tampered
	var path string
	if ok {
		for i := range l.segs {
			if l.segs[i].seq == e.seg {
				path = l.segs[i].path
				break
			}
		}
	}
	retention := l.cfg.Retention
	l.mu.Unlock()

	if !ok || path == "" {
		if tampered != nil {
			// The chain is damaged; absence past the damage proves
			// nothing. Refuse with the typed error instead of a clean
			// not-found.
			return Record{}, tampered
		}
		return Record{}, fmt.Errorf("%w: %#x", ErrNotFound, token)
	}
	if expired(e.meta.Unix, retention) {
		return Record{}, fmt.Errorf("%w: %#x", ErrNotFound, token)
	}
	f, err := os.Open(path)
	if err != nil {
		return Record{}, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	framed := make([]byte, e.n)
	if _, err := io.ReadFull(io.NewSectionReader(f, e.off, int64(e.n)), framed); err != nil {
		return Record{}, l.noteDamage(e, fmt.Errorf("%w: %v", ErrTruncated, err))
	}
	kind, rec, _, _, _, err := DecodeRecord(framed)
	if err != nil {
		return Record{}, l.noteDamage(e, err)
	}
	if kind != KindReport || rec.Token != token {
		return Record{}, l.noteDamage(e, fmt.Errorf("%w: record does not match index", ErrCorrupt))
	}
	l.mu.Lock()
	l.hits++
	l.mu.Unlock()
	return rec, nil
}

// noteDamage converts a failed re-read into a TamperError and counts
// it. Damage found on the Get path does not mark the whole store
// tampered (Verify decides that); it refuses this record.
func (l *Log) noteDamage(e entry, cause error) error {
	l.mu.Lock()
	l.verifyFailures++
	var segName string
	for i := range l.segs {
		if l.segs[i].seq == e.seg {
			segName = filepath.Base(l.segs[i].path)
		}
	}
	l.mu.Unlock()
	return &TamperError{Segment: segName, Offset: e.off, Index: int(e.index), Cause: cause}
}

// List returns the live records' metadata, oldest chain position first.
func (l *Log) List() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	type ordered struct {
		idx uint64
		rec Record
	}
	out := make([]ordered, 0, len(l.index))
	for _, e := range l.index {
		if !expired(e.meta.Unix, l.cfg.Retention) {
			out = append(out, ordered{e.index, e.meta})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	recs := make([]Record, len(out))
	for i, o := range out {
		recs[i] = o.rec
	}
	return recs, nil
}

// Verify re-scans every segment from disk and returns the first damage
// as a *TamperError. A clean pass on a store previously marked tampered
// does not clear the mark — reopen for that.
func (l *Log) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.scan(false)
}

// Compact deletes closed segments whose records have all expired,
// oldest-first, stopping at the first segment still holding live
// records. The active segment is never deleted.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compactions++
	if l.cfg.Retention <= 0 {
		return nil
	}
	if l.tampered != nil {
		// Never reclaim a damaged chain: the segments are evidence.
		return l.tampered
	}
	pruned := 0
	for len(l.segs)-pruned > 1 {
		seg := l.segs[pruned]
		if seg.records > 0 && !expired(seg.maxUnix, l.cfg.Retention) {
			break
		}
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
		for token, e := range l.index {
			if e.seg == seg.seq {
				delete(l.index, token)
			}
		}
		pruned++
		l.pruned++
	}
	if pruned > 0 {
		l.segs = append(l.segs[:0], l.segs[pruned:]...)
	}
	return nil
}

// TenantBytes sums the live stored report bytes attributed to tenant.
func (l *Log) TenantBytes(tenant string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b int64
	for _, e := range l.index {
		if e.meta.Tenant == tenant && !expired(e.meta.Unix, l.cfg.Retention) {
			b += int64(e.bodyLen)
		}
	}
	return b
}

// Stats snapshots the log store.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Segments:       len(l.segs),
		Puts:           l.puts,
		PutFailures:    l.putFailures,
		Gets:           l.gets,
		Hits:           l.hits,
		Compactions:    l.compactions,
		SegmentsPruned: l.pruned,
		VerifyFailures: l.verifyFailures,
		TenantBytes:    make(map[string]int64),
		TenantRecords:  make(map[string]uint64),
	}
	for _, e := range l.index {
		if expired(e.meta.Unix, l.cfg.Retention) {
			continue
		}
		st.Records++
		st.Bytes += int64(e.n)
		st.TenantBytes[e.meta.Tenant] += int64(e.bodyLen)
		st.TenantRecords[e.meta.Tenant]++
	}
	return st
}

// Tampered returns the damage found when the store was opened, if any.
func (l *Log) Tampered() *TamperError {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tampered
}

// Close closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active != nil {
		err := l.active.Close()
		l.active = nil
		return err
	}
	return nil
}
