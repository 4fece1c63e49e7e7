package core

// Open-addressing storage for per-location detector state.
//
// A Go map (`map[Addr]*locState`) would cost one heap allocation per
// tracked location plus a hash-bucket walk and a pointer chase on every
// access; the constant factors drown the Θ(1)-per-location asymptotics
// of Theorem 5 in measurements. This table stores the two
// identifiers *by value* in a flat slab of locEntry records probed
// linearly from a multiplicative hash — no per-location allocation, no
// indirection, one predictable probe sequence per access. It is the
// detector's default storage; the paged shadow table remains available
// behind the Storage option for differential testing and for workloads
// with different locality profiles.
//
// Growth is incremental: when the load factor passes 3/4 the table
// allocates a doubled slab and migrates a bounded number of old entries
// per subsequent access, so no single memory operation pays a full-table
// rehash. Entries are never deleted (the detector only accumulates
// locations), which keeps probing tombstone-free.

const (
	// tableMinSize is the initial slab size (power of two).
	tableMinSize = 64
	// tableMigrateStep bounds the old-slab slots scanned per access
	// during an incremental rehash.
	tableMigrateStep = 64
)

// locEntry is one slab slot: the location address plus its R/W suprema,
// held by value. addr 0 marks an empty slot; the real address 0 lives in
// a dedicated side slot (see locTable.zero).
type locEntry struct {
	addr  Addr
	state locState
}

// locTable is a linear-probing open-addressing table from Addr to
// locState with power-of-two capacity and incremental rehash.
type locTable struct {
	entries []locEntry
	mask    uint64
	count   int // distinct locations, including the side slots

	// Incremental rehash: old holds the previous slab until every live
	// entry has been migrated; lookups consult it on a miss in entries.
	old      []locEntry
	oldMask  uint64
	migrated int // next old slot to examine

	// Side slots for the two addresses that cannot live in the slab:
	// 0 doubles as the empty-slot marker.
	zero    locState
	hasZero bool
	top     locState // state for ^Addr(0)
	hasTop  bool

	// Operation counters (plain uint64s, serial structure): probes
	// counts slots examined across all lookups, rehashSteps counts
	// old-slab slots migrated incrementally, grows counts slab
	// doublings. They expose the table's constant factors next to the
	// union-find counts in core.Stats.
	probes      uint64
	rehashSteps uint64
	grows       uint64
}

// newLocTable returns a table presized for about locHint locations.
func newLocTable(locHint int) *locTable {
	size := tableMinSize
	for size*3 < locHint*4 { // keep the hinted load under 3/4
		size <<= 1
	}
	return &locTable{
		entries: make([]locEntry, size),
		mask:    uint64(size - 1),
	}
}

// tableHash mixes the address into a slab index distribution
// (Fibonacci multiplicative hash, folded so the masked low bits carry
// the high-entropy product bits).
func tableHash(a Addr) uint64 {
	h := uint64(a) * 0x9E3779B97F4A7C15
	return h ^ (h >> 32)
}

// get returns the state slot for a, inserting a fresh {noAccess,
// noAccess} record on first touch. The returned pointer stays valid
// until the next call to get: growth and migration run before the
// probe, never after.
func (t *locTable) get(a Addr) *locState {
	switch a {
	case 0:
		t.probes++
		if !t.hasZero {
			t.zero = locState{read: noAccess, write: noAccess}
			t.hasZero = true
			t.count++
		}
		return &t.zero
	case ^Addr(0):
		t.probes++
		if !t.hasTop {
			t.top = locState{read: noAccess, write: noAccess}
			t.hasTop = true
			t.count++
		}
		return &t.top
	}
	if t.old != nil {
		t.migrate(tableMigrateStep)
	}
	if (t.count+1)*4 > len(t.entries)*3 {
		t.grow()
	}
	i := tableHash(a) & t.mask
	probed := uint64(0) // accumulated locally; one store on exit keeps the loop tight
	for {
		probed++
		e := &t.entries[i]
		if e.addr == a {
			t.probes += probed
			return &e.state
		}
		if e.addr == 0 {
			t.probes += probed
			if t.old != nil {
				if st, ok := t.lookupOld(a); ok {
					// Move the still-unmigrated entry over; the stale
					// old copy is shadowed (entries probes first) and
					// skipped by migrate's insert-if-absent.
					*e = locEntry{addr: a, state: st}
					return &e.state
				}
			}
			e.addr = a
			e.state = locState{read: noAccess, write: noAccess}
			t.count++
			return &e.state
		}
		i = (i + 1) & t.mask
	}
}

// lookupOld probes the pre-rehash slab for a.
func (t *locTable) lookupOld(a Addr) (locState, bool) {
	i := tableHash(a) & t.oldMask
	probed := uint64(0)
	for {
		probed++
		e := &t.old[i]
		if e.addr == a {
			t.probes += probed
			return e.state, true
		}
		if e.addr == 0 {
			t.probes += probed
			return locState{}, false
		}
		i = (i + 1) & t.oldMask
	}
}

// grow starts (or, if one is still running, completes and restarts) an
// incremental rehash into a doubled slab.
func (t *locTable) grow() {
	if t.old != nil {
		t.migrate(len(t.old)) // finish the in-flight rehash first
	}
	t.grows++
	t.old = t.entries
	t.oldMask = t.mask
	t.migrated = 0
	t.entries = make([]locEntry, 2*len(t.old))
	t.mask = uint64(len(t.entries) - 1)
}

// migrate examines up to steps slots of the old slab, inserting live
// entries absent from the new one, and drops the old slab once every
// slot has been examined.
func (t *locTable) migrate(steps int) {
	for ; steps > 0 && t.migrated < len(t.old); steps-- {
		e := t.old[t.migrated]
		t.migrated++
		t.rehashSteps++
		if e.addr != 0 {
			t.insertIfAbsent(e)
		}
	}
	if t.migrated >= len(t.old) {
		t.old = nil
	}
}

// insertIfAbsent places a migrated entry into the current slab unless a
// fresher copy already moved (via lookupOld during a get).
func (t *locTable) insertIfAbsent(src locEntry) {
	i := tableHash(src.addr) & t.mask
	for {
		e := &t.entries[i]
		if e.addr == src.addr {
			return
		}
		if e.addr == 0 {
			*e = src
			return
		}
		i = (i + 1) & t.mask
	}
}

// locations returns the number of distinct locations ever touched.
func (t *locTable) locations() int { return t.count }

// stats returns the table's operation counters.
func (t *locTable) stats() (probes, rehashSteps, grows uint64) {
	return t.probes, t.rehashSteps, t.grows
}

// bytes reports the table's real memory footprint (both slabs while a
// rehash is in flight).
func (t *locTable) bytes() int {
	const entrySize = 16 // addr + two int32
	return (len(t.entries) + len(t.old)) * entrySize
}
