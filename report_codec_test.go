package race2d

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/report_golden.json from the current WriteJSON")

var allEngines = []Engine{Engine2D, EngineVC, EngineFastTrack, EngineSPBags, EngineSPOrder, EngineNaive}

// codecCase is one report of the codec corpus.
type codecCase struct {
	name string
	rep  *Report
}

// codecCorpus is every engine over the source corpus (with source-level
// location names, batched so the histogram is filled) plus a racy
// fork-join workload rendered with hex addresses.
func codecCorpus(t testing.TB) []codecCase {
	t.Helper()
	srcs := corpusPrograms(t)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var cases []codecCase
	for _, name := range names {
		for _, e := range allEngines {
			rep, err := DetectSource(strings.NewReader(srcs[name]), WithEngine(e), WithBatchSize(4))
			if err != nil {
				continue // a series-parallel engine refusing a 2D program
			}
			cases = append(cases, codecCase{fmt.Sprintf("%s/%s", name, e), rep})
		}
	}
	w := workload.ForkJoin{Seed: 41, Ops: 600, MaxDepth: 6,
		Mix: workload.Mix{Locs: 8, ReadFrac: 0.6}}
	for _, e := range allEngines {
		rep, err := Detect(w.Program(), WithEngine(e), WithBatchSize(16))
		if err != nil {
			t.Fatalf("forkjoin/%s: %v", e, err)
		}
		cases = append(cases, codecCase{fmt.Sprintf("forkjoin/%s", e), rep})
	}
	return cases
}

// TestWriteJSONGolden: WriteJSON's indented rendering of the codec
// corpus is byte-identical to the golden file, which was captured from
// the reflection-based encoder this renderer replaced.
func TestWriteJSONGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range codecCorpus(t) {
		fmt.Fprintf(&got, "== %s\n", c.name)
		if err := c.rep.WriteJSON(&got, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	path := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("WriteJSON differs from %s at line %d:\n got %q\nwant %q", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("WriteJSON differs from %s: %d lines, want %d", path, len(g), len(w))
	}
}

// reflectJSON is the reference renderer: encoding/json over reportJSON,
// the path MarshalJSON replaced.
func reflectJSON(r *Report) ([]byte, error) {
	name := r.AddrName
	if name == nil {
		name = func(a Addr) string { return fmt.Sprintf("%#x", uint64(a)) }
	}
	out := reportJSON{
		Engine:      r.Engine.String(),
		Tasks:       r.Tasks,
		Locations:   r.Locations,
		RaceCount:   r.Count,
		Races:       make([]raceJSON, 0, len(r.Races)),
		MemoryBytes: r.MemoryBytes,
		Stats:       r.Stats,
	}
	for i, race := range r.Races {
		out.Races = append(out.Races, raceJSON{
			Location: name(race.Loc),
			Kind:     race.Kind.String(),
			Current:  race.Current,
			Prior:    race.Prior,
			Precise:  i == 0,
		})
	}
	return json.Marshal(out)
}

// hostileNames is a report whose location names need every escape
// encoding/json applies.
func hostileNames() *Report {
	names := []string{
		"<script>", "a>b&c", `quote"d`, `back\slash`, "ctl\x00\x01\x1f\x7f",
		"\b\f\n\r\t", "line\u2028sep\u2029", "bad\xffutf8\xc3", "trunc\xe2\x80",
		"héllo wörld ✓", "",
	}
	rep := &Report{Engine: EngineVC, Tasks: 3, Count: len(names), Locations: len(names),
		AddrName: func(a Addr) string { return names[a] }}
	for i := range names {
		rep.Races = append(rep.Races, Race{Loc: Addr(i), Kind: core.AccessKind(i % 3), Current: i, Prior: -i})
	}
	return rep
}

// TestMarshalJSONMatchesReflection: the reflection-free MarshalJSON is
// byte-identical to encoding/json over reportJSON — every engine over
// the corpus, hostile location names, and float values on both sides of
// the exponent cutoffs.
func TestMarshalJSONMatchesReflection(t *testing.T) {
	cases := codecCorpus(t)
	cases = append(cases, codecCase{"hostile-names", hostileNames()})
	for _, f := range []float64{0, -0.0, 1, 0.5, 1e-6, 9.99e-7, 1e20, 1e21, 123456.789, 5e-324, -2.5e-9} {
		cases = append(cases, codecCase{fmt.Sprintf("float-%g", f),
			&Report{Stats: Stats{BytesPerLocation: f, BatchSizes: []uint64{0, 3}}}})
	}
	cases = append(cases, codecCase{"empty", &Report{}})
	for _, c := range cases {
		want, err := reflectJSON(c.rep)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		got, err := c.rep.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: MarshalJSON differs from encoding/json\n got %s\nwant %s", c.name, got, want)
		}
		// Through json.Marshal (which validates and compacts a
		// Marshaler's output) the bytes are the same again.
		if via, err := json.Marshal(c.rep); err != nil || !bytes.Equal(via, want) {
			t.Fatalf("%s: json.Marshal(report) = %s, %v", c.name, via, err)
		}
	}
	if _, err := (&Report{Stats: Stats{BytesPerLocation: math.NaN()}}).MarshalJSON(); err == nil {
		t.Fatal("NaN stats value rendered")
	}
}

// TestReportBinaryRoundTrip: every corpus report survives the binary
// codec — same fields, same JSON once the resolver is restored, and the
// same bytes when encoded again.
func TestReportBinaryRoundTrip(t *testing.T) {
	cases := append(codecCorpus(t), codecCase{"hostile-names", hostileNames()})
	var full Stats
	for i, f := range obs.Fields {
		if f.Counter != nil {
			*f.Counter(&full) = math.MaxUint64 - uint64(i)
		}
	}
	full.BytesPerLocation = -1.25e-300
	full.BatchSizes = []uint64{0, 1, math.MaxUint64}
	cases = append(cases, codecCase{"extremes", &Report{Engine: EngineNaive, Tasks: -1, Locations: math.MaxInt,
		Count: math.MinInt, MemoryBytes: 7, Stats: full,
		Races: []Race{{Loc: math.MaxUint64, Kind: core.WriteRead, Current: math.MinInt, Prior: math.MaxInt}, {Loc: 0}}}})
	for _, c := range cases {
		body, err := c.rep.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var back Report
		if err := back.UnmarshalBinary(body); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if back.AddrName != nil {
			t.Fatalf("%s: decoded report carries a resolver", c.name)
		}
		back.AddrName = c.rep.AddrName
		if len(back.Races) != len(c.rep.Races) || (len(back.Races) > 0 && !reflect.DeepEqual(back.Races, c.rep.Races)) ||
			!reflect.DeepEqual(back.Stats, c.rep.Stats) || back.Engine != c.rep.Engine || back.Tasks != c.rep.Tasks ||
			back.Locations != c.rep.Locations || back.Count != c.rep.Count || back.MemoryBytes != c.rep.MemoryBytes {
			t.Fatalf("%s: round trip changed the report:\n got %+v\nwant %+v", c.name, back, *c.rep)
		}
		if again, _ := back.AppendBinary(nil); !bytes.Equal(again, body) {
			t.Fatalf("%s: re-encoding differs", c.name)
		}
		want, _ := c.rep.MarshalJSON()
		if got, _ := back.MarshalJSON(); !bytes.Equal(got, want) {
			t.Fatalf("%s: decoded report renders different JSON", c.name)
		}
	}
}

// TestUnmarshalBinaryRejects: malformed bodies are errors that leave
// the target untouched, and a claimed race count the remaining bytes
// cannot hold is refused before anything is allocated for it.
func TestUnmarshalBinaryRejects(t *testing.T) {
	good, _ := hostileNames().AppendBinary(nil)
	// header is everything up to the race count: version, five ints,
	// the stats of an all-zero Stats.
	header := []byte{reportBinaryVersion, 1, 0, 0, 0, 0}
	for range obs.Fields {
		header = append(header, 0)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"version":        append([]byte{reportBinaryVersion + 1}, good[1:]...),
		"version-1":      append([]byte{1}, good[1:]...),
		"truncated":      good[:len(good)-1],
		"trailing":       append(append([]byte(nil), good...), 0),
		"overlong":       append([]byte{reportBinaryVersion, 0x81, 0x00}, good[2:]...),
		"engine":         append([]byte{reportBinaryVersion, 9}, good[2:]...),
		"kind":           append(append([]byte(nil), header...), 1, 0, 3, 0, 0),
		"huge-races":     binary.AppendUvarint(append([]byte(nil), header...), 1<<50),
		"races-too-many": append(append([]byte(nil), header...), 2, 0, 0, 0, 0),
	}
	for name, data := range cases {
		rep := Report{Count: 42}
		if err := rep.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: accepted", name)
		} else if rep.Count != 42 {
			t.Errorf("%s: failed decode modified the report", name)
		}
	}
	// The refusal costs its error value, not the claimed 2^50 races.
	huge := cases["huge-races"]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var rep Report
	for i := 0; i < 20; i++ {
		rep.UnmarshalBinary(huge)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 20<<10 {
		t.Fatalf("refusing a huge race count 20 times allocated %d bytes", n)
	}
}

// FuzzDecodeReport: UnmarshalBinary never panics, accepts no race count
// its input could not hold, and every body it accepts re-encodes byte
// for byte (and renders, unless a float stat is not finite).
func FuzzDecodeReport(f *testing.F) {
	for _, c := range codecCorpus(f) {
		body, _ := c.rep.AppendBinary(nil)
		f.Add(body)
	}
	body, _ := hostileNames().AppendBinary(nil)
	f.Add(body)
	f.Add([]byte{reportBinaryVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rep Report
		if err := rep.UnmarshalBinary(data); err != nil {
			return
		}
		if len(rep.Races)*minRaceBytes > len(data) || len(rep.Stats.BatchSizes) > len(data) {
			t.Fatalf("%d races, %d buckets accepted from %d bytes", len(rep.Races), len(rep.Stats.BatchSizes), len(data))
		}
		again, err := rep.AppendBinary(nil)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, again)
		}
		if v := rep.Stats.BytesPerLocation; !math.IsNaN(v) && !math.IsInf(v, 0) {
			if _, err := rep.MarshalJSON(); err != nil {
				t.Fatalf("decoded report does not render: %v", err)
			}
		}
	})
}
