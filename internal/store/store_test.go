package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeClock pins the store clock and returns a function to advance it.
// The caller's test restores the real clock on cleanup.
func fakeClock(t *testing.T) func(d time.Duration) {
	t.Helper()
	base := time.Unix(1_700_000_000, 0)
	cur := base
	now = func() time.Time { return cur }
	t.Cleanup(func() { now = time.Now })
	return func(d time.Duration) { cur = cur.Add(d) }
}

func testRecord(i int) Record {
	return Record{
		Token:   uint64(0x1000 + i),
		Session: uint64(i),
		NextSeq: uint64(10 * i),
		Flags:   uint64(i % 3),
		Tenant:  fmt.Sprintf("tenant-%d", i%2),
		JSON:    []byte(fmt.Sprintf(`{"report":%d,"races":[{"a":%d}]}`, i, i*7)),
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var prev [HashSize]byte
	prev[0], prev[31] = 0xaa, 0x55
	want := testRecord(3)
	want.Unix = 1234567
	framed := AppendRecord(nil, prev, want)
	kind, got, _, gotPrev, n, err := DecodeRecord(framed)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if kind != KindReport || n != len(framed) || gotPrev != prev {
		t.Fatalf("kind=%v n=%d prev=%x", kind, n, gotPrev)
	}
	if got.Token != want.Token || got.Session != want.Session || got.NextSeq != want.NextSeq ||
		got.Flags != want.Flags || got.Unix != want.Unix || got.Tenant != want.Tenant ||
		!bytes.Equal(got.JSON, want.JSON) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Decoding from a longer buffer consumes exactly one record.
	double := AppendRecord(append([]byte(nil), framed...), chainHash(framed), testRecord(4))
	if _, _, _, _, n2, err := DecodeRecord(double); err != nil || n2 != len(framed) {
		t.Fatalf("decode from longer buffer: n=%d err=%v", n2, err)
	}
}

func TestAnchorRoundTrip(t *testing.T) {
	var prev [HashSize]byte
	for i := range prev {
		prev[i] = byte(i)
	}
	framed := AppendAnchor(nil, prev, 42)
	kind, _, anc, gotPrev, n, err := DecodeRecord(framed)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if kind != KindAnchor || n != len(framed) || gotPrev != prev {
		t.Fatalf("kind=%v n=%d", kind, n)
	}
	if anc.Records != 42 || anc.Chain != prev {
		t.Fatalf("anchor mismatch: %+v", anc)
	}
}

// TestRecordSingleByteFlip is the framing half of the tamper guarantee:
// flipping any single byte of a framed record must fail the decode.
func TestRecordSingleByteFlip(t *testing.T) {
	var prev [HashSize]byte
	framed := AppendRecord(nil, prev, testRecord(1))
	for i := range framed {
		mut := append([]byte(nil), framed...)
		mut[i] ^= 0x40
		if _, _, _, _, _, err := DecodeRecord(mut); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

func TestDecodeRecordMalformed(t *testing.T) {
	var prev [HashSize]byte
	framed := AppendRecord(nil, prev, testRecord(2))
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", framed[:3], ErrTruncated},
		{"short body", framed[:len(framed)-5], ErrTruncated},
		{"huge length", []byte{0xff, 0xff, 0xff, 0xff, 0}, ErrCorrupt},
		{"tiny body", []byte{1, 0, 0, 0, 7}, ErrCorrupt},
	}
	for _, tc := range cases {
		if _, _, _, _, _, err := DecodeRecord(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err=%v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestMemoryStore(t *testing.T) {
	advance := fakeClock(t)
	m := NewMemory(time.Minute)
	for i := 0; i < 4; i++ {
		if err := m.Put(testRecord(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		advance(time.Second)
	}
	rec, err := m.Get(0x1002)
	if err != nil || !bytes.Equal(rec.JSON, testRecord(2).JSON) {
		t.Fatalf("Get: %v %q", err, rec.JSON)
	}
	if _, err := m.Get(0x9999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing token: %v", err)
	}
	if got := m.TenantBytes("tenant-1"); got != int64(len(testRecord(1).JSON)+len(testRecord(3).JSON)) {
		t.Fatalf("TenantBytes: %d", got)
	}
	list, _ := m.List()
	if len(list) != 4 || list[0].Token != 0x1000 || list[0].JSON != nil {
		t.Fatalf("List: %+v", list)
	}
	advance(2 * time.Minute) // everything expires
	if _, err := m.Get(0x1002); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired Get: %v", err)
	}
	if err := m.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st := m.Stats(); st.Records != 0 || st.Compactions != 1 || st.Puts != 4 {
		t.Fatalf("Stats after compact: %+v", st)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func openTestLog(t *testing.T, dir string, cfg LogConfig) *Log {
	t.Helper()
	cfg.Dir = dir
	l, err := OpenLog(cfg)
	if err != nil {
		t.Fatalf("OpenLog(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestLogPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, LogConfig{})
	const n = 10
	for i := 0; i < n; i++ {
		if err := l.Put(testRecord(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		rec, err := l.Get(uint64(0x1000 + i))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(rec.JSON, testRecord(i).JSON) || rec.Tenant != testRecord(i).Tenant {
			t.Fatalf("Get %d mismatch: %+v", i, rec)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	l.Close()

	// Reopen: the index is rebuilt from the chain; every report is
	// byte-identical and the store keeps accepting appends.
	l2 := openTestLog(t, dir, LogConfig{})
	for i := 0; i < n; i++ {
		rec, err := l2.Get(uint64(0x1000 + i))
		if err != nil || !bytes.Equal(rec.JSON, testRecord(i).JSON) {
			t.Fatalf("reopened Get %d: %v", i, err)
		}
	}
	list, _ := l2.List()
	if len(list) != n || list[0].Token != 0x1000 || list[n-1].Token != uint64(0x1000+n-1) {
		t.Fatalf("List after reopen: %d entries", len(list))
	}
	extra := testRecord(n)
	if err := l2.Put(extra); err != nil {
		t.Fatalf("Put after reopen: %v", err)
	}
	if rec, err := l2.Get(extra.Token); err != nil || !bytes.Equal(rec.JSON, extra.JSON) {
		t.Fatalf("Get appended-after-reopen: %v", err)
	}
	st := l2.Stats()
	if st.Records != n+1 || st.TenantRecords["tenant-0"] == 0 {
		t.Fatalf("Stats: %+v", st)
	}
}

func TestLogSegmentRollAndAnchors(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, LogConfig{SegmentBytes: 512, AnchorEvery: 4, NoSync: true})
	const n = 40
	for i := 0; i < n; i++ {
		if err := l.Put(testRecord(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify across segments+anchors: %v", err)
	}
	l.Close()
	l2 := openTestLog(t, dir, LogConfig{SegmentBytes: 512, AnchorEvery: 4, NoSync: true})
	for i := 0; i < n; i++ {
		if rec, err := l2.Get(uint64(0x1000 + i)); err != nil || !bytes.Equal(rec.JSON, testRecord(i).JSON) {
			t.Fatalf("reopened Get %d: %v", i, err)
		}
	}
}

func TestLogTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, LogConfig{NoSync: true})
	for i := 0; i < 3; i++ {
		if err := l.Put(testRecord(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	l.Close()
	// Simulate a crash mid-append: half a record at the live tail.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v", err)
	}
	tail := segs[len(segs)-1].path
	torn := AppendRecord(nil, [HashSize]byte{}, testRecord(99))
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn[:len(torn)/2])
	f.Close()

	l2 := openTestLog(t, dir, LogConfig{NoSync: true})
	if te := l2.Tampered(); te != nil {
		t.Fatalf("torn tail treated as tamper: %v", te)
	}
	for i := 0; i < 3; i++ {
		if _, err := l2.Get(uint64(0x1000 + i)); err != nil {
			t.Fatalf("Get %d after torn-tail recovery: %v", i, err)
		}
	}
	// The torn token was never acked; it is simply absent.
	if _, err := l2.Get(testRecord(99).Token); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn record: %v", err)
	}
	// And the store keeps appending on the repaired chain.
	if err := l2.Put(testRecord(50)); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if err := l2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
}

// TestLogRefusesOldFormat: a log whose segments announce format 01
// (JSON report bodies) or 02 (version 1 binary bodies) fails to open with a typed *FormatError naming
// the version, and is left byte for byte as it was — in particular its
// torn tail is not truncated and nothing is indexed or recovered.
func TestLogRefusesOldFormat(t *testing.T) {
	for _, old := range []string{"01", "02"} {
		dir := t.TempDir()
		l := openTestLog(t, dir, LogConfig{NoSync: true})
		for i := 0; i < 3; i++ {
			if err := l.Put(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		segs, err := listSegments(dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments: %d %v", len(segs), err)
		}
		path := segs[0].path
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Rewrite it as an old-format segment with a torn append at its
		// tail, which a current-format open would truncate away.
		copy(data, "R2DSEG"+old)
		torn := AppendRecord(nil, [HashSize]byte{}, testRecord(99))
		data = append(data, torn[:len(torn)/2]...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		l2, err := OpenLog(LogConfig{Dir: dir, NoSync: true})
		if err == nil {
			l2.Close()
			t.Fatalf("format %s log opened", old)
		}
		var fe *FormatError
		if !errors.Is(err, ErrFormat) || !errors.As(err, &fe) || fe.Version != old || fe.Segment != filepath.Base(path) {
			t.Fatalf("open error %v (%#v), want a *FormatError for version %s of %s", err, fe, old, filepath.Base(path))
		}
		if errors.Is(err, ErrTampered) {
			t.Fatalf("old format reported as tampering: %v", err)
		}
		if !strings.Contains(err.Error(), old) {
			t.Fatalf("error %q does not name the version found", err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, data) {
			t.Fatalf("refused open changed the segment: %d bytes, was %d", len(after), len(data))
		}
		if segs2, _ := listSegments(dir); len(segs2) != 1 {
			t.Fatalf("refused open created segments: %d", len(segs2))
		}
	}
}

// TestLogTamperDetection flips one byte in a closed segment: Verify
// must pinpoint the damaged segment, reopening must serve records
// before the damage and refuse everything at or past it with a
// *TamperError (never a crash), and appends must be refused.
func TestLogTamperDetection(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, LogConfig{SegmentBytes: 512, NoSync: true})
	const n = 30
	for i := 0; i < n; i++ {
		if err := l.Put(testRecord(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	l.Close()
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d (%v)", len(segs), err)
	}
	// Flip one byte mid-way through the second segment (closed: not the
	// active tail), past its header so the damage lands in a record.
	victim := segs[1].path
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	pos := segHeaderSize + (len(data)-segHeaderSize)/2
	data[pos] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openTestLog(t, dir, LogConfig{SegmentBytes: 512, NoSync: true})
	te := l2.Tampered()
	if te == nil {
		t.Fatal("tampered segment not detected on open")
	}
	if te.Segment != filepath.Base(victim) {
		t.Fatalf("damage pinned to %s, want %s", te.Segment, filepath.Base(victim))
	}
	var verr *TamperError
	if err := l2.Verify(); !errors.As(err, &verr) || !errors.Is(err, ErrTampered) {
		t.Fatalf("Verify: %v", err)
	}
	if verr.Segment != te.Segment || verr.Offset != te.Offset {
		t.Fatalf("Verify pinpointed %s+%d, open said %s+%d", verr.Segment, verr.Offset, te.Segment, te.Offset)
	}

	// Records wholly before the damaged segment still serve.
	served, refused := 0, 0
	for i := 0; i < n; i++ {
		rec, err := l2.Get(uint64(0x1000 + i))
		switch {
		case err == nil:
			if !bytes.Equal(rec.JSON, testRecord(i).JSON) {
				t.Fatalf("Get %d served wrong bytes", i)
			}
			served++
		case errors.Is(err, ErrTampered):
			refused++
		default:
			t.Fatalf("Get %d: unexpected error class %v", i, err)
		}
	}
	if served == 0 || refused == 0 {
		t.Fatalf("served=%d refused=%d: want both classes", served, refused)
	}
	// Appends are refused: the chain they would extend is damaged.
	if err := l2.Put(testRecord(77)); !errors.Is(err, ErrTampered) {
		t.Fatalf("Put on tampered store: %v", err)
	}
	if st := l2.Stats(); st.VerifyFailures == 0 || st.PutFailures == 0 {
		t.Fatalf("Stats: %+v", st)
	}
}

// TestLogEveryByteFlipDetected sweeps every byte of a small closed log
// and asserts Verify catches each single-byte flip — the acceptance
// criterion verbatim.
func TestLogEveryByteFlipDetected(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, LogConfig{AnchorEvery: 2, NoSync: true})
	for i := 0; i < 3; i++ {
		rec := testRecord(i)
		rec.JSON = rec.JSON[:8] // keep the sweep cheap
		if err := l.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %d %v", len(segs), err)
	}
	path := segs[0].path
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(orig); pos++ {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		chk := &Log{cfg: LogConfig{Dir: dir}.withDefaults()}
		if err := chk.scan(false); err == nil {
			t.Fatalf("flip at byte %d of %s went undetected", pos, filepath.Base(path))
		}
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLogRetentionAndCompact(t *testing.T) {
	advance := fakeClock(t)
	dir := t.TempDir()
	cfg := LogConfig{Retention: time.Minute, SegmentBytes: 512, NoSync: true}
	l := openTestLog(t, dir, cfg)
	const n = 30
	for i := 0; i < n; i++ {
		if err := l.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	if before.Segments < 3 {
		t.Fatalf("need several segments, got %d", before.Segments)
	}
	advance(2 * time.Minute) // all n expire
	for i := 0; i < 3; i++ {
		if err := l.Put(testRecord(100 + i)); err != nil { // fresh records in the live tail
			t.Fatal(err)
		}
	}
	if _, err := l.Get(0x1000); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired record served: %v", err)
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := l.Stats()
	if st.SegmentsPruned == 0 || st.Segments >= before.Segments {
		t.Fatalf("no segments reclaimed: before=%d after=%+v", before.Segments, st)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Get(uint64(0x1000 + 100 + i)); err != nil {
			t.Fatalf("live record lost by compaction: %v", err)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify after compaction: %v", err)
	}
	l.Close()
	// The pruned log reopens cleanly: the first retained segment's
	// header is the trust root.
	l2 := openTestLog(t, dir, cfg)
	if te := l2.Tampered(); te != nil {
		t.Fatalf("pruned log reads as tampered: %v", te)
	}
	for i := 0; i < 3; i++ {
		if _, err := l2.Get(uint64(0x1000 + 100 + i)); err != nil {
			t.Fatalf("reopened pruned log Get: %v", err)
		}
	}
}

func TestLogGetDamageAfterOpen(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, LogConfig{NoSync: true})
	rec := testRecord(0)
	if err := l.Put(rec); err != nil {
		t.Fatal(err)
	}
	// Corrupt the already-indexed record behind the store's back.
	segs, _ := listSegments(dir)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Get(rec.Token); !errors.Is(err, ErrTampered) {
		t.Fatalf("Get on post-open damage: %v", err)
	}
	if st := l.Stats(); st.VerifyFailures == 0 {
		t.Fatalf("damage not counted: %+v", st)
	}
}

func TestLogRequiresDir(t *testing.T) {
	if _, err := OpenLog(LogConfig{}); err == nil {
		t.Fatal("OpenLog without dir succeeded")
	}
}
