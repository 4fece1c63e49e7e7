package core

import (
	"fmt"

	"repro/internal/obs"
)

// Addr identifies a monitored memory location.
type Addr uint64

// AccessKind distinguishes the conflicting pair of a race report.
type AccessKind uint8

const (
	// ReadWrite: the current operation writes, a prior read races with it.
	ReadWrite AccessKind = iota
	// WriteWrite: the current operation writes, a prior write races.
	WriteWrite
	// WriteRead: the current operation reads, a prior write races.
	WriteRead
)

func (k AccessKind) String() string {
	switch k {
	case ReadWrite:
		return "read-write"
	case WriteWrite:
		return "write-write"
	case WriteRead:
		return "write-read"
	}
	return fmt.Sprintf("AccessKind(%d)", uint8(k))
}

// Race is one race report. Current is the vertex (or thread, after
// compression) executing the racy access; Prior is the representative
// returned by Sup for the conflicting earlier accesses — the root of the
// last-arc tree standing in for their supremum, not necessarily an access
// to the same location itself (see Section 4: "sup K need not even access
// the same memory location").
type Race struct {
	Loc     Addr
	Current int
	Prior   int
	Kind    AccessKind
}

func (r Race) String() string {
	return fmt.Sprintf("%s race on %#x: current %d vs prior rooted at %d", r.Kind, uint64(r.Loc), r.Current, r.Prior)
}

// locState is the per-location detector state: the accumulated suprema of
// reads and writes (Figure 6's R[loc] and W[loc]). Exactly two vertex
// identifiers — the Θ(1) space per tracked location of Theorem 5.
type locState struct {
	read, write int32
}

const noAccess int32 = -1

// Storage selects the per-location state backend. All backends hold the
// identical two identifiers per location (Theorem 5's Θ(1)) and report
// identical races; they differ only in constant factors, and the
// differential tests hold them to that.
type Storage uint8

const (
	// StorageOpenAddr is the default: a value-typed open-addressing
	// table (table.go) — allocation-free accesses, one linear probe per
	// operation.
	StorageOpenAddr Storage = iota
	// StorageShadow is the paged shadow-memory backend (shadow.go),
	// tuned for dense address ranges.
	StorageShadow
)

func (s Storage) String() string {
	switch s {
	case StorageOpenAddr:
		return "openaddr"
	case StorageShadow:
		return "shadow"
	}
	return fmt.Sprintf("Storage(%d)", uint8(s))
}

// ParseStorage converts a backend name to a Storage.
func ParseStorage(s string) (Storage, error) {
	switch s {
	case "openaddr", "oa", "table":
		return StorageOpenAddr, nil
	case "shadow":
		return StorageShadow, nil
	}
	return 0, fmt.Errorf("core: unknown storage %q", s)
}

// Access is one memory operation of a batch (see OnAccessBatch): task T
// reads or writes Loc. The layout is chosen so a batch packs densely
// (16 bytes per access).
type Access struct {
	Loc   Addr
	T     int32
	Write bool
}

// Detector is the online race detector of Figure 6 driven by the suprema
// walker of Figure 8. Feed it the traversal of the executing program
// (loops, last-arcs and stop-arcs — typically the thread-compressed stream
// emitted by a fork-join runtime) and call OnRead/OnWrite at every memory
// operation of the current vertex, or OnAccessBatch for whole runs.
type Detector struct {
	W *Walker

	table  *locTable    // non-nil for the default open-addressing storage
	shadow *shadowTable // non-nil for shadow-memory storage

	// MaxRaces bounds the retained race reports (the count keeps
	// increasing); 0 means keep everything. The paper's precision
	// guarantee covers the first report, so retaining a bounded prefix
	// loses nothing. Set it before the first report to pre-size the
	// retention buffer in one allocation.
	MaxRaces int

	races []Race
	count int

	// Operation counters (plain uint64s on the serial hot path) and the
	// batch-size histogram; Stats() snapshots them together with the
	// walker and storage counters.
	reads   uint64
	writes  uint64
	batches obs.Histogram
}

// NewDetector returns a detector expecting about n vertices/threads
// (growable) and locHint distinct locations (hint only), using the
// default open-addressing storage for per-location state.
func NewDetector(n, locHint int) *Detector {
	return NewDetectorStorage(n, locHint, StorageOpenAddr)
}

// NewDetectorStorage returns a detector with an explicit per-location
// storage backend; see Storage for the choices.
func NewDetectorStorage(n, locHint int, s Storage) *Detector {
	d := &Detector{W: NewWalker(n)}
	if s == StorageShadow {
		d.shadow = newShadowTable()
	} else {
		d.table = newLocTable(locHint)
	}
	return d
}

// NewDetectorShadow returns a detector using paged shadow-memory storage
// for per-location state — same Θ(1) per location, better locality for
// dense address ranges (see shadow.go).
func NewDetectorShadow(n int) *Detector {
	return NewDetectorStorage(n, 0, StorageShadow)
}

// Storage reports the selected per-location storage backend.
func (d *Detector) Storage() Storage {
	if d.shadow != nil {
		return StorageShadow
	}
	return StorageOpenAddr
}

// loc returns the state slot for a; OnRead and OnWrite call it exactly
// once per access and reuse the slot between their conflict checks and
// the supremum update, so each memory operation costs a single table
// probe. The pointer is valid until the next loc call (table growth
// happens before the probe, never after).
func (d *Detector) loc(a Addr) *locState {
	if d.table != nil {
		return d.table.get(a)
	}
	return d.shadow.get(a)
}

func (d *Detector) report(r Race) {
	d.count++
	if d.races == nil && d.MaxRaces > 0 {
		d.races = make([]Race, 0, d.MaxRaces)
	}
	if d.MaxRaces == 0 || len(d.races) < d.MaxRaces {
		d.races = append(d.races, r)
	}
}

// OnRead handles a read of loc by the current vertex t (Figure 6 On-Read).
// A read conflicts with prior writes only (K = W, Section 2.3); the
// supplied text's Figure 6 comparing against R is an extraction artifact —
// read-read sharing is never a race.
//
// Accesses whose recorded supremum is t itself skip the query outright:
// sup{t, t} = t can neither race nor change the accumulated state. This
// is the common repeated-access-by-one-task case in real traces.
func (d *Detector) OnRead(t int, loc Addr) {
	d.reads++
	st := d.loc(loc)
	tt := int32(t)
	if w := st.write; w != noAccess && w != tt {
		if s := d.W.Sup(int(w), t); s != t {
			d.report(Race{Loc: loc, Current: t, Prior: s, Kind: WriteRead})
		}
	}
	if r := st.read; r == noAccess || r == tt {
		st.read = tt
	} else {
		st.read = int32(d.W.Sup(int(r), t))
	}
}

// OnWrite handles a write of loc by the current vertex t (Figure 6
// On-Write): it conflicts with prior reads and prior writes (K = R ∪ W).
// The write-write check and the write-supremum update pose the same
// query Sup(W[loc], t), so one union-find lookup serves both.
func (d *Detector) OnWrite(t int, loc Addr) {
	d.writes++
	st := d.loc(loc)
	tt := int32(t)
	if r := st.read; r != noAccess && r != tt {
		if s := d.W.Sup(int(r), t); s != t {
			d.report(Race{Loc: loc, Current: t, Prior: s, Kind: ReadWrite})
		}
	}
	if w := st.write; w == noAccess || w == tt {
		st.write = tt
	} else {
		s := d.W.Sup(int(w), t)
		if s != t {
			d.report(Race{Loc: loc, Current: t, Prior: s, Kind: WriteWrite})
		}
		st.write = int32(s)
	}
}

// OnAccessBatch processes a run of memory accesses in one call,
// amortizing the per-operation call and dispatch overhead of
// OnRead/OnWrite. Each access performs the loop step for its task (the
// walker Visit that OnRead/OnWrite leave to the caller) followed by the
// Figure 6 checks, so a batch of accesses by the current task is
// equivalent to the corresponding Visit+OnRead/OnWrite sequence.
// Control events (fork/join/halt) delimit batches; see fj.EventBuffer.
func (d *Detector) OnAccessBatch(batch []Access) {
	d.batches.Observe(len(batch))
	w := d.W
	for i := range batch {
		a := &batch[i]
		t := int(a.T)
		w.Visit(t)
		if a.Write {
			d.OnWrite(t, a.Loc)
		} else {
			d.OnRead(t, a.Loc)
		}
	}
}

// Races returns the retained race reports (all of them when MaxRaces is 0).
func (d *Detector) Races() []Race { return d.races }

// Count returns the total number of race reports, including any dropped
// beyond MaxRaces.
func (d *Detector) Count() int { return d.count }

// Racy reports whether any race has been detected so far.
func (d *Detector) Racy() bool { return d.count > 0 }

// Locations returns the number of tracked memory locations.
func (d *Detector) Locations() int {
	if d.table != nil {
		return d.table.locations()
	}
	return d.shadow.locations()
}

// BytesPerLocation reports the detector's per-location state size in
// bytes: constant by construction (Theorem 5).
func (d *Detector) BytesPerLocation() int { return 8 }

// MemoryBytes estimates the detector's total state: walker (Θ(1) per
// thread) plus per-location records (Θ(1) per location; whole pages for
// the shadow store).
func (d *Detector) MemoryBytes() int {
	if d.table != nil {
		return d.W.MemoryBytes() + d.table.bytes()
	}
	return d.W.MemoryBytes() + d.shadow.bytes()
}
