package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, n := range []int{0, 1, 2, 3, 4, 7, 8, 1024, 1 << 30} {
		h.Observe(n)
	}
	if h.Count() != 9 {
		t.Fatalf("Count = %d, want 9", h.Count())
	}
	snap := h.Snapshot()
	if len(snap) != 31 {
		t.Fatalf("Snapshot length = %d, want 31 (last bucket 30)", len(snap))
	}
	want := map[int]uint64{0: 2, 1: 2, 2: 2, 3: 1, 10: 1, 30: 1}
	for i, c := range snap {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if BucketMin(0) != 0 || BucketMin(1) != 2 || BucketMin(10) != 1024 {
		t.Errorf("BucketMin boundaries wrong: %d %d %d", BucketMin(0), BucketMin(1), BucketMin(10))
	}
	h.Reset()
	if h.Count() != 0 || h.Snapshot() != nil {
		t.Error("Reset did not clear the histogram")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(1 << 40) // beyond the covered range: clamps to the last bucket
	snap := h.Snapshot()
	if len(snap) != histBuckets || snap[histBuckets-1] != 1 {
		t.Fatalf("oversized observation not clamped to last bucket: %v", snap)
	}
}

func TestCheckAccounting(t *testing.T) {
	good := Stats{SupQueries: 100, Finds: 100, Unions: 9, PathSteps: 40, Reads: 60, Writes: 40}
	if err := CheckAccounting(good, 10); err != nil {
		t.Fatalf("valid accounting rejected: %v", err)
	}
	bad := good
	bad.Finds = 101 // a find not traceable to a query
	if err := CheckAccounting(bad, 10); err == nil || !strings.Contains(err.Error(), "finds") {
		t.Fatalf("finds != m not caught: %v", err)
	}
	bad = good
	bad.Unions = 10 // n-1 = 9
	if err := CheckAccounting(bad, 10); err == nil || !strings.Contains(err.Error(), "unions") {
		t.Fatalf("unions > n-1 not caught: %v", err)
	}
	bad = good
	bad.PathSteps = AlphaSlack*(good.Finds+good.Unions+10) + 1
	if err := CheckAccounting(bad, 10); err == nil || !strings.Contains(err.Error(), "path compression") {
		t.Fatalf("unbounded path steps not caught: %v", err)
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Reads: 30, Writes: 10, Finds: 50, Unions: 10, PathSteps: 20}
	if s.MemOps() != 40 {
		t.Errorf("MemOps = %d, want 40", s.MemOps())
	}
	if s.UnionFindOps() != 60 {
		t.Errorf("UnionFindOps = %d, want 60", s.UnionFindOps())
	}
	if got := s.AmortizedSteps(); got != 2 {
		t.Errorf("AmortizedSteps = %v, want 2", got)
	}
	if (Stats{}).AmortizedSteps() != 0 {
		t.Error("AmortizedSteps on empty stats should be 0")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, Finds: 2, BatchSizes: []uint64{1}, MaxQueueDepth: 9, BytesPerLocation: 8}
	b := Stats{Reads: 2, Unions: 3, Races: 1, BatchSizes: []uint64{4, 5}, MaxQueueDepth: 4, ShardEventsMax: 6, BytesPerLocation: 16}
	a.Add(b)
	if a.Reads != 3 || a.Finds != 2 || a.Unions != 3 || a.Races != 1 {
		t.Errorf("Add merged wrong: %+v", a)
	}
	if a.MaxQueueDepth != 9 || a.ShardEventsMax != 6 || a.BytesPerLocation != 8 {
		t.Errorf("Add merged a high-water mark or the per-engine constant wrong: %+v", a)
	}
	if len(a.BatchSizes) != 2 || a.BatchSizes[0] != 5 || a.BatchSizes[1] != 5 {
		t.Errorf("Add histogram merge wrong: %v", a.BatchSizes)
	}
}

func TestStatsJSONOmitsZeros(t *testing.T) {
	data, err := json.Marshal(Stats{Finds: 7, Unions: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if got != `{"finds":7,"unions":2}` {
		t.Errorf("zero fields leaked into JSON: %s", got)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Reads: 3, Writes: 1, SupQueries: 5, Finds: 5, Unions: 1, TableRehashSteps: 2, SetScans: 4}
	str := s.String()
	for _, want := range []string{"reads=3", "writes=1", "sup-queries=5", "finds=5", "unions=1",
		"table-rehash-steps=2", "accesses-scanned=4", "amortized-uf-steps/op="} {
		if !strings.Contains(str, want) {
			t.Errorf("String() missing %q: %s", want, str)
		}
	}
	if strings.Contains(str, "epoch-hits") {
		t.Errorf("String() printed a zero counter: %s", str)
	}
}

// TestStatsFieldsMatchDeclaration: the field table names every Stats
// field, in declaration order, under its JSON key; each counter
// accessor addresses the field it is keyed by, and the two rows without
// one are the float and the histogram.
func TestStatsFieldsMatchDeclaration(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	if typ.NumField() != len(Fields) {
		t.Fatalf("Stats has %d fields, the table %d", typ.NumField(), len(Fields))
	}
	for i, f := range Fields {
		sf := typ.Field(i)
		if key, _, _ := strings.Cut(sf.Tag.Get("json"), ","); key != f.Key {
			t.Fatalf("field %d (%s): table key %q, JSON key %q", i, sf.Name, f.Key, key)
		}
		var s Stats
		v := reflect.ValueOf(&s).Elem().Field(i)
		switch f.Merge {
		case Sum, HighWater:
			v.SetUint(uint64(i + 1))
			if got := *f.Counter(&s); got != uint64(i+1) {
				t.Fatalf("field %d (%s): accessor reads %d", i, sf.Name, got)
			}
		case Keep:
			if f.Counter != nil || sf.Type.Kind() != reflect.Float64 {
				t.Fatalf("field %d (%s) is not the float field", i, sf.Name)
			}
		case Hist:
			if f.Counter != nil || sf.Type != reflect.TypeOf([]uint64(nil)) {
				t.Fatalf("field %d (%s) is not the histogram", i, sf.Name)
			}
		default:
			t.Fatalf("field %d (%s): unknown merge rule %d", i, sf.Name, f.Merge)
		}
	}
}
