package race2d

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/obs"
)

// A Report has two encodings. The binary one (AppendBinary /
// UnmarshalBinary) is the verdict's only internal form: raced sends it
// in the Report frame, the store persists it and replication ships it.
// JSON is rendered from a Report only at the edges — the CLI, the admin
// export and client callers that ask for it — by a reflection-free
// appender whose output is byte-identical to what encoding/json makes
// of reportJSON.

// raceJSON is the JSON shape of one race report.
type raceJSON struct {
	Location string `json:"location"`
	Kind     string `json:"kind"`
	Current  int    `json:"current_task"`
	Prior    int    `json:"prior_root_task"`
	Precise  bool   `json:"precise"`
}

// reportJSON is the JSON shape of a Report. MarshalJSON renders it
// without reflection; UnmarshalJSON parses it with encoding/json.
type reportJSON struct {
	Engine      string     `json:"engine"`
	Tasks       int        `json:"tasks"`
	Locations   int        `json:"locations"`
	RaceCount   int        `json:"race_count"`
	Races       []raceJSON `json:"races"`
	MemoryBytes int        `json:"memory_bytes"`
	Stats       Stats      `json:"stats"`
}

// MarshalJSON renders the report as compact JSON for tooling.
// Locations are resolved through Report.AddrName when set (DetectSource
// sets it to the source-level names); otherwise they render as hex
// addresses.
func (r *Report) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 512+128*len(r.Races)), r.AddrName)
}

// UnmarshalJSON restores a report from its MarshalJSON form, so stats
// pipelines can round-trip reports through files. Locations rendered as
// hex addresses parse back exactly; symbolic names (from a WriteJSON
// resolver) have no inverse and leave the race's Loc zero.
func (r *Report) UnmarshalJSON(data []byte) error {
	var in reportJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	engine, err := ParseEngine(in.Engine)
	if err != nil {
		return err
	}
	*r = Report{
		Count:       in.RaceCount,
		Tasks:       in.Tasks,
		Locations:   in.Locations,
		MemoryBytes: in.MemoryBytes,
		Engine:      engine,
		Stats:       in.Stats,
	}
	for _, race := range in.Races {
		out := Race{Current: race.Current, Prior: race.Prior}
		if a, err := strconv.ParseUint(race.Location, 0, 64); err == nil {
			out.Loc = Addr(a)
		}
		switch race.Kind {
		case core.ReadWrite.String():
			out.Kind = core.ReadWrite
		case core.WriteWrite.String():
			out.Kind = core.WriteWrite
		case core.WriteRead.String():
			out.Kind = core.WriteRead
		default:
			return fmt.Errorf("race2d: unknown race kind %q", race.Kind)
		}
		r.Races = append(r.Races, out)
	}
	return nil
}

// WriteJSON writes the report as indented JSON, resolving location
// names through locName; nil falls back to Report.AddrName and then to
// hex addresses.
func (r *Report) WriteJSON(w io.Writer, locName func(Addr) string) error {
	if locName == nil {
		locName = r.AddrName
	}
	data, err := r.appendJSON(nil, locName)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Grow(2 * len(data))
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

// appendJSON appends the compact JSON rendering of r, naming locations
// through name (nil renders hex addresses).
func (r *Report) appendJSON(dst []byte, name func(Addr) string) ([]byte, error) {
	dst = append(dst, `{"engine":`...)
	dst = appendJSONString(dst, r.Engine.String())
	dst = append(dst, `,"tasks":`...)
	dst = strconv.AppendInt(dst, int64(r.Tasks), 10)
	dst = append(dst, `,"locations":`...)
	dst = strconv.AppendInt(dst, int64(r.Locations), 10)
	dst = append(dst, `,"race_count":`...)
	dst = strconv.AppendInt(dst, int64(r.Count), 10)
	dst = append(dst, `,"races":[`...)
	for i, race := range r.Races {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"location":`...)
		if name != nil {
			dst = appendJSONString(dst, name(race.Loc))
		} else {
			dst = append(dst, `"0x`...)
			dst = strconv.AppendUint(dst, uint64(race.Loc), 16)
			dst = append(dst, '"')
		}
		dst = append(dst, `,"kind":`...)
		dst = appendJSONString(dst, race.Kind.String())
		dst = append(dst, `,"current_task":`...)
		dst = strconv.AppendInt(dst, int64(race.Current), 10)
		dst = append(dst, `,"prior_root_task":`...)
		dst = strconv.AppendInt(dst, int64(race.Prior), 10)
		if i == 0 {
			dst = append(dst, `,"precise":true}`...)
		} else {
			dst = append(dst, `,"precise":false}`...)
		}
	}
	dst = append(dst, `],"memory_bytes":`...)
	dst = strconv.AppendInt(dst, int64(r.MemoryBytes), 10)
	dst = append(dst, `,"stats":`...)
	dst, err := appendStatsJSON(dst, &r.Stats)
	return append(dst, '}'), err
}

// appendStatsJSON appends s as the JSON object encoding/json makes of
// it: fields in declaration order, zero fields omitted.
func appendStatsJSON(dst []byte, s *Stats) ([]byte, error) {
	dst = append(dst, '{')
	empty := true
	key := func(k string) {
		if !empty {
			dst = append(dst, ',')
		}
		empty = false
		dst = append(dst, '"')
		dst = append(dst, k...)
		dst = append(dst, '"', ':')
	}
	for _, f := range obs.Fields {
		switch f.Merge {
		case obs.Keep: // the float
			if v := s.BytesPerLocation; v != 0 {
				if math.IsInf(v, 0) || math.IsNaN(v) {
					return dst, fmt.Errorf("race2d: unsupported stats value %v", v)
				}
				key(f.Key)
				dst = appendJSONFloat(dst, v)
			}
		case obs.Hist:
			if len(s.BatchSizes) > 0 {
				key(f.Key)
				dst = append(dst, '[')
				for i, v := range s.BatchSizes {
					if i > 0 {
						dst = append(dst, ',')
					}
					dst = strconv.AppendUint(dst, v, 10)
				}
				dst = append(dst, ']')
			}
		default:
			if v := *f.Counter(s); v != 0 {
				key(f.Key)
				dst = strconv.AppendUint(dst, v, 10)
			}
		}
	}
	return append(dst, '}'), nil
}

// appendJSONFloat formats a finite float64 as encoding/json does: like
// ES6 number-to-string, 'f' format unless the magnitude calls for an
// exponent, whose sign digits are not zero-padded.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string with encoding/json's
// default (HTML-safe) escaping: ", \ and control characters escaped,
// <, > and & as \u00XX, U+2028/U+2029 escaped, and invalid UTF-8
// replaced by \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Binary report layout (version 2; version 1 also carried fourteen
// service counters that no report ever filled):
//
//	1 byte   encoding version
//	uvarint  engine, tasks, locations, race count, memory bytes
//	         (ints as their two's-complement uint64)
//	stats    every Stats field in obs.Fields order: counters as
//	         uvarints, BytesPerLocation as the uvarint of its IEEE 754
//	         bits, BatchSizes as a uvarint length then uvarint buckets
//	uvarint  number of retained races, then per race:
//	  varint   location minus the previous race's location (zig-zag,
//	           wrapping; the first is relative to zero)
//	  1 byte   kind
//	  varint   current task, then prior root task (zig-zag)
//
// Every varint is in its shortest form, so decoding then re-encoding
// reproduces the input byte for byte.
const reportBinaryVersion = 2

// minRaceBytes is the smallest encoding of one race: a one-byte
// location delta, the kind and two one-byte task ids.
const minRaceBytes = 4

// AppendBinary appends the report's compact binary encoding to dst
// (encoding.BinaryAppender). AddrName is not encoded: a decoded report
// renders hex addresses until the caller sets a resolver. The error is
// always nil.
func (r *Report) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, reportBinaryVersion)
	for _, v := range [...]int{int(r.Engine), r.Tasks, r.Locations, r.Count, r.MemoryBytes} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	for _, f := range obs.Fields {
		switch f.Merge {
		case obs.Keep:
			dst = binary.AppendUvarint(dst, math.Float64bits(r.Stats.BytesPerLocation))
		case obs.Hist:
			dst = binary.AppendUvarint(dst, uint64(len(r.Stats.BatchSizes)))
			for _, v := range r.Stats.BatchSizes {
				dst = binary.AppendUvarint(dst, v)
			}
		default:
			dst = binary.AppendUvarint(dst, *f.Counter(&r.Stats))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Races)))
	var prev Addr
	for _, race := range r.Races {
		dst = binary.AppendVarint(dst, int64(race.Loc-prev))
		prev = race.Loc
		dst = append(dst, byte(race.Kind))
		dst = binary.AppendVarint(dst, int64(race.Current))
		dst = binary.AppendVarint(dst, int64(race.Prior))
	}
	return dst, nil
}

// errReportBinary is the cause every UnmarshalBinary failure wraps.
var errReportBinary = errors.New("race2d: malformed binary report")

// UnmarshalBinary restores a report from its AppendBinary form
// (encoding.BinaryUnmarshaler). Malformed input is an error, never a
// panic, and a race or bucket count the remaining bytes cannot hold is
// refused before anything is allocated for it. On error r is left
// unchanged.
func (r *Report) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("%w: empty", errReportBinary)
	}
	if data[0] != reportBinaryVersion {
		return fmt.Errorf("%w: encoding version %d, want %d", errReportBinary, data[0], reportBinaryVersion)
	}
	rd := binReader{b: data[1:]}
	var out Report
	engine := rd.uvarint()
	for _, p := range [...]*int{&out.Tasks, &out.Locations, &out.Count, &out.MemoryBytes} {
		*p = int(rd.uvarint())
	}
	if rd.err == nil && engine > uint64(EngineNaive) {
		return fmt.Errorf("%w: unknown engine %d", errReportBinary, engine)
	}
	out.Engine = Engine(engine)
	for _, f := range obs.Fields {
		switch f.Merge {
		case obs.Keep:
			out.Stats.BytesPerLocation = math.Float64frombits(rd.uvarint())
		case obs.Hist:
			n := rd.count(1, "histogram buckets")
			if n > 0 {
				out.Stats.BatchSizes = make([]uint64, n)
			}
			for i := range out.Stats.BatchSizes {
				out.Stats.BatchSizes[i] = rd.uvarint()
			}
		default:
			*f.Counter(&out.Stats) = rd.uvarint()
		}
	}
	if n := rd.count(minRaceBytes, "races"); n > 0 {
		out.Races = make([]Race, n)
	}
	var loc Addr
	for i := range out.Races {
		race := &out.Races[i]
		loc += Addr(rd.varint())
		race.Loc = loc
		if kind := rd.readByte(); kind <= byte(core.WriteRead) {
			race.Kind = core.AccessKind(kind)
		} else if rd.err == nil {
			rd.err = fmt.Errorf("%w: unknown race kind %d", errReportBinary, kind)
		}
		race.Current = int(rd.varint())
		race.Prior = int(rd.varint())
	}
	if rd.err != nil {
		return rd.err
	}
	if len(rd.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errReportBinary, len(rd.b))
	}
	*r = out
	return nil
}

// binReader decodes the binary report body; the first error sticks and
// every later read returns zero.
type binReader struct {
	b   []byte
	err error
}

func (rd *binReader) uvarint() uint64 {
	if rd.err != nil {
		return 0
	}
	v, n := binary.Uvarint(rd.b)
	if n <= 0 || (n > 1 && rd.b[n-1] == 0) { // truncated, overflowing or not shortest
		rd.err = fmt.Errorf("%w: bad varint at %d bytes from the end", errReportBinary, len(rd.b))
		return 0
	}
	rd.b = rd.b[n:]
	return v
}

// varint decodes a zig-zag signed varint (binary.AppendVarint's form).
func (rd *binReader) varint() int64 {
	u := rd.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (rd *binReader) readByte() byte {
	if rd.err != nil {
		return 0
	}
	if len(rd.b) == 0 {
		rd.err = fmt.Errorf("%w: truncated", errReportBinary)
		return 0
	}
	b := rd.b[0]
	rd.b = rd.b[1:]
	return b
}

// count reads an element count and refuses one the remaining bytes
// cannot hold at minBytes per element.
func (rd *binReader) count(minBytes int, what string) int {
	n := rd.uvarint()
	if rd.err == nil && n > uint64(len(rd.b)/minBytes) {
		rd.err = fmt.Errorf("%w: %d %s claimed in %d bytes", errReportBinary, n, what, len(rd.b))
	}
	if rd.err != nil {
		return 0
	}
	return int(n)
}
