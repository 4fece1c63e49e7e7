package core

import (
	"math/rand"
	"testing"
)

// tableRef is the reference model for locTable: a plain Go map.
type tableRef map[Addr]locState

func (r tableRef) get(a Addr) locState {
	st, ok := r[a]
	if !ok {
		st = locState{read: noAccess, write: noAccess}
		r[a] = st
	}
	return st
}

// addrStream mixes the regimes the detector sees in practice: dense small
// addresses, clustered mid-range addresses, uniform 64-bit addresses, and
// the two side-slot sentinels 0 and ^0.
func addrStream(rng *rand.Rand) Addr {
	switch rng.Intn(10) {
	case 0:
		return Addr(rng.Intn(16)) // dense, includes 0
	case 1:
		return ^Addr(0) - Addr(rng.Intn(4)) // near-top, includes ^0
	case 2, 3, 4:
		return 1<<20 + Addr(rng.Intn(256)) // clustered
	default:
		return Addr(rng.Uint64())
	}
}

// TestLocTableVsMap drives a locTable and the map model with the same
// random access stream — lookups, insertions and in-place mutations of
// the returned slot — and checks they agree at every step, across
// multiple growth cycles.
func TestLocTableVsMap(t *testing.T) {
	for _, hint := range []int{0, 1, 1000} {
		rng := rand.New(rand.NewSource(int64(42 + hint)))
		tab := newLocTable(hint)
		ref := tableRef{}
		var keys []Addr
		for step := 0; step < 60000; step++ {
			var a Addr
			if len(keys) > 0 && rng.Intn(3) == 0 {
				a = keys[rng.Intn(len(keys))] // revisit a known location
			} else {
				a = addrStream(rng)
			}
			if _, known := ref[a]; !known {
				keys = append(keys, a)
			}
			want := ref.get(a)
			st := tab.get(a)
			if *st != want {
				t.Fatalf("hint %d step %d: addr %#x: table %+v, model %+v", hint, step, uint64(a), *st, want)
			}
			// Mutate through the returned pointer, as OnRead/OnWrite do.
			if rng.Intn(2) == 0 {
				st.read = int32(step)
				want.read = int32(step)
			} else {
				st.write = int32(step)
				want.write = int32(step)
			}
			ref[a] = want
			if tab.locations() != len(ref) {
				t.Fatalf("hint %d step %d: locations %d, model %d", hint, step, tab.locations(), len(ref))
			}
		}
		// Every tracked location must still be retrievable with its state.
		for a, want := range ref {
			if st := tab.get(a); *st != want {
				t.Fatalf("hint %d final: addr %#x: table %+v, model %+v", hint, uint64(a), *st, want)
			}
		}
		if tab.bytes() <= 0 {
			t.Fatalf("hint %d: non-positive bytes %d", hint, tab.bytes())
		}
	}
}

// TestLocTableIncrementalRehash exercises the rehash machinery directly:
// lookups that hit the old slab mid-migration, a grow forced while a
// rehash is still in flight, and migrate skipping entries that were
// already moved by a lookup.
func TestLocTableIncrementalRehash(t *testing.T) {
	tab := newLocTable(0)
	const n = 3 * tableMinSize // enough to cross several growths
	for i := 1; i <= n; i++ {
		st := tab.get(Addr(i))
		st.write = int32(i)
	}

	// Force a rehash by hand and read an entry before migrate reaches it:
	// get must pull it from the old slab with its state intact.
	tab.grow()
	if tab.old == nil {
		t.Fatal("grow did not leave an old slab")
	}
	for i := n; i >= 1; i-- { // reverse order fights the migration scan
		if st := tab.get(Addr(i)); st.write != int32(i) {
			t.Fatalf("addr %d lost its state across rehash: %+v", i, *st)
		}
	}

	// Grow again while a rehash is in flight: grow must finish the old
	// migration first, losing nothing.
	tab.grow()
	tab.grow()
	for i := 1; i <= n; i++ {
		if st := tab.get(Addr(i)); st.write != int32(i) {
			t.Fatalf("addr %d lost its state across stacked grows: %+v", i, *st)
		}
	}
	if got := tab.locations(); got != n {
		t.Fatalf("locations = %d, want %d", got, n)
	}

	// The sentinel addresses live in side slots and count as locations.
	tab.get(0).read = 7
	tab.get(^Addr(0)).read = 9
	if got := tab.locations(); got != n+2 {
		t.Fatalf("locations with side slots = %d, want %d", got, n+2)
	}
	if tab.get(0).read != 7 || tab.get(^Addr(0)).read != 9 {
		t.Fatal("side-slot state lost")
	}
}

// TestLocTablePointerStability checks the documented contract: the slot
// returned by get stays valid until the next get, even when that next
// get triggers growth — the detector mutates the slot in between.
func TestLocTablePointerStability(t *testing.T) {
	tab := newLocTable(0)
	for i := 1; i <= 10*tableMinSize; i++ {
		st := tab.get(Addr(i))
		st.read, st.write = int32(i), int32(-i)
	}
	for i := 1; i <= 10*tableMinSize; i++ {
		st := tab.get(Addr(i))
		if st.read != int32(i) || st.write != int32(-i) {
			t.Fatalf("addr %d: state %+v written through a stale pointer", i, *st)
		}
	}
}

// TestDetectorStoragesAgree is the storage-level differential property:
// the same random access pattern through full detectors on every backend
// yields identical race reports, not merely identical verdicts.
func TestDetectorStoragesAgree(t *testing.T) {
	storages := []Storage{StorageOpenAddr, StorageShadow}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		nTasks := 2 + rng.Intn(6)
		dets := make([]*Detector, len(storages))
		for i, s := range storages {
			dets[i] = NewDetectorStorage(nTasks, 0, s)
		}
		// A random fork-join-ish schedule: visits, last-arcs and accesses
		// over a small task set and a mixed address range.
		for step := 0; step < 400; step++ {
			switch rng.Intn(10) {
			case 0:
				s, u := rng.Intn(nTasks), rng.Intn(nTasks)
				for _, d := range dets {
					d.W.LastArc(s, u)
				}
			default:
				task := rng.Intn(nTasks)
				a := Addr(rng.Intn(32)) // small range, shadow-friendly
				if rng.Intn(4) == 0 {
					a = 1<<30 + Addr(rng.Intn(32))
				}
				write := rng.Intn(2) == 0
				for _, d := range dets {
					d.W.Visit(task)
					if write {
						d.OnWrite(task, a)
					} else {
						d.OnRead(task, a)
					}
				}
			}
		}
		want := dets[0].Races()
		for i, d := range dets[1:] {
			got := d.Races()
			if len(got) != len(want) {
				t.Fatalf("trial %d: %v reports %d races, %v reports %d",
					trial, storages[0], len(want), storages[i+1], len(got))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d race %d: %v got %v, %v got %v",
						trial, k, storages[i+1], got[k], storages[0], want[k])
				}
			}
			if d.Locations() != dets[0].Locations() {
				t.Fatalf("trial %d: location counts differ: %d vs %d",
					trial, d.Locations(), dets[0].Locations())
			}
		}
	}
}
