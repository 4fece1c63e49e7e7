package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// replayOps drives a detector with a scripted access sequence. Each op is
// (thread, loc, write); threads are pre-visited, thread 1 halts unjoined
// so cross-thread conflicts race.
type scriptedOp struct {
	t     int
	loc   Addr
	write bool
}

func runScript(d *Detector, ops []scriptedOp) {
	d.W.Visit(0)
	d.W.Visit(1)
	for _, op := range ops {
		d.W.Visit(op.t)
		if op.write {
			d.OnWrite(op.t, op.loc)
		} else {
			d.OnRead(op.t, op.loc)
		}
	}
}

// TestShadowMatchesMapProperty: the shadow store is observationally
// identical to the map store.
func TestShadowMatchesMapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		ops := make([]scriptedOp, n)
		for i := range ops {
			// Mix dense and sparse addresses across pages.
			loc := Addr(rng.Intn(64))
			if rng.Intn(4) == 0 {
				loc = Addr(rng.Uint64() % (1 << 20))
			}
			ops[i] = scriptedOp{t: rng.Intn(2), loc: loc, write: rng.Intn(2) == 0}
		}
		m := NewDetector(2, 8)
		s := NewDetectorShadow(2)
		runScript(m, ops)
		runScript(s, ops)
		if m.Count() != s.Count() || m.Locations() != s.Locations() {
			t.Logf("seed %d: count %d/%d locations %d/%d", seed,
				m.Count(), s.Count(), m.Locations(), s.Locations())
			return false
		}
		for i := range m.Races() {
			if m.Races()[i] != s.Races()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShadowPageCacheAcrossPages(t *testing.T) {
	d := NewDetectorShadow(1)
	d.W.Visit(0)
	// Alternate between two pages to exercise cache invalidation.
	for i := 0; i < 10; i++ {
		d.OnWrite(0, Addr(i))
		d.OnWrite(0, Addr(1<<shadowShift+i))
	}
	if d.Racy() {
		t.Fatal("same-thread accesses flagged")
	}
	if d.Locations() != 20 {
		t.Fatalf("locations = %d, want 20", d.Locations())
	}
	if d.shadow.bytes() < 2*shadowPageSize*8 {
		t.Fatal("expected two pages allocated")
	}
}

func TestShadowFigure2(t *testing.T) {
	const m, a, c = 0, 1, 2
	const r = Addr(0x10)
	d := NewDetectorShadow(3)
	w := d.W
	w.Visit(m)
	w.Visit(a)
	d.OnRead(a, r)
	w.StopArc(a)
	w.Visit(m)
	d.OnRead(m, r)
	w.LastArc(a, c)
	w.Visit(c)
	w.StopArc(c)
	w.Visit(m)
	d.OnWrite(m, r)
	if d.Count() != 1 || d.Races()[0].Kind != ReadWrite {
		t.Fatalf("shadow detector races = %v", d.Races())
	}
	if d.MemoryBytes() <= 0 {
		t.Fatal("memory accounting empty")
	}
}

func BenchmarkLocStoreOpenAddrVsShadow(b *testing.B) {
	const nOps = 1 << 14
	rng := rand.New(rand.NewSource(7))
	ops := make([]scriptedOp, nOps)
	for i := range ops {
		ops[i] = scriptedOp{t: 0, loc: Addr(rng.Intn(1 << 12)), write: i%3 == 0}
	}
	b.Run("openaddr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := NewDetector(1, 1<<12)
			runScript(d, ops)
		}
	})
	b.Run("shadow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := NewDetectorShadow(1)
			runScript(d, ops)
		}
	})
}
