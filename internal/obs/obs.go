// Package obs is the detector observability layer: a flat snapshot of
// operation counters shared by every engine, turning the paper's
// accounting theorems into live numbers.
//
// Theorems 2/3/5 are accounting claims — m supremum queries cost exactly
// m union-find finds and at most n−1 unions, so the amortized cost per
// memory operation is Θ(α). The counters here make those claims
// observable on every run instead of reconstructed offline: each engine
// exposes a Stats() snapshot, cmd/bench2d embeds it in every
// BENCH_race2d.json cell, and CheckAccounting asserts the bounds online
// so tests and CI gate on them directly.
//
// The counters themselves are plain uint64 fields on the hot structures
// (no atomics: the detector is serial by construction), so the steady
// state stays allocation-free and the cost per memory operation is a
// handful of integer increments.
//
// Stats holds only what a verdict reports: every field may be filled
// by an engine or by the ingestion that feeds it, and every field is
// carried by each Report. Counters of the service around the detector
// belong to the package that fills them: server.Stats (sessions,
// frames, resumes, refusals; it embeds Stats for the queue and shard
// totals it folds from its sessions), client.Stats (reconnects,
// resends, heartbeats missed) and wire.BlockStats (compressed blocks
// and their bytes, which both ends count).
package obs

import (
	"fmt"
	"strings"
)

// Stats is a snapshot of operation counters. It is a union of the
// fields every engine family reports; an engine fills the counters it
// tracks and leaves the rest zero (omitted from JSON). All counts are
// cumulative since the engine was created.
type Stats struct {
	// Memory operations observed by the engine.
	Reads  uint64 `json:"reads,omitempty"`
	Writes uint64 `json:"writes,omitempty"`

	// Fork-join structure events (reported by the runtime's line).
	Forks uint64 `json:"forks,omitempty"`
	Joins uint64 `json:"joins,omitempty"`
	Halts uint64 `json:"halts,omitempty"`

	// Suprema walker (the 2D detector's Figure 5/8 state).
	SupQueries uint64 `json:"sup_queries,omitempty"` // Sup(x, t) queries posed — the paper's m
	Visits     uint64 `json:"visits,omitempty"`      // loop steps (t, t)

	// Union-find (Theorem 3: exactly m finds, at most n−1 unions).
	Finds     uint64 `json:"finds,omitempty"`
	Unions    uint64 `json:"unions,omitempty"`
	PathSteps uint64 `json:"path_steps,omitempty"` // parent rewrites during path halving

	// Open-addressing / shadow location storage.
	TableProbes      uint64 `json:"table_probes,omitempty"`       // slots examined across all lookups
	TableRehashSteps uint64 `json:"table_rehash_steps,omitempty"` // old-slab slots migrated incrementally
	TableGrows       uint64 `json:"table_grows,omitempty"`        // slab doublings (shadow: pages allocated)

	// Vector-clock family (vc, fasttrack, naive).
	ClockJoins   uint64 `json:"clock_joins,omitempty"`           // pointwise clock merges
	ClockEntries uint64 `json:"clock_entries_scanned,omitempty"` // entries touched by merges and race checks — the Θ(n) factor
	EpochHits    uint64 `json:"epoch_hits,omitempty"`            // FastTrack same-epoch fast paths
	ReadShares   uint64 `json:"read_shares,omitempty"`           // FastTrack epoch→vector promotions
	SetScans     uint64 `json:"accesses_scanned,omitempty"`      // naive R/W-set elements compared

	// Order-maintenance family (sporder). SP-bags reports its bag
	// operations through Finds/Unions: its bags are union-find sets.
	ListInserts  uint64 `json:"list_inserts,omitempty"`  // OM list insertions (two per segment)
	OrderQueries uint64 `json:"order_queries,omitempty"` // OM precedence queries (two Before calls each)

	// Common reporting surface.
	Races            uint64  `json:"races,omitempty"`
	Locations        uint64  `json:"locations,omitempty"`
	BytesPerLocation float64 `json:"bytes_per_location,omitempty"`

	// Batched ingestion: histogram of OnAccessBatch run lengths in
	// power-of-two buckets (see Histogram.Snapshot).
	Batches    uint64   `json:"batches,omitempty"`
	BatchSizes []uint64 `json:"batch_size_hist,omitempty"`

	// Concurrent ingestion pipeline (goinstr): backpressure accounting
	// for the bounded per-producer queues feeding the merge stage.
	Producers      uint64 `json:"producers,omitempty"`       // event queues created (tasks that produced)
	EventsBuffered uint64 `json:"events_buffered,omitempty"` // events that passed through the queues
	MaxQueueDepth  uint64 `json:"max_queue_depth,omitempty"` // high-water mark of any single queue (events)
	ProducerStalls uint64 `json:"producer_stalls,omitempty"` // pushes that blocked on a full queue

	// Sharded detection backend (core.ShardedDetector): the serial
	// structure stage dispatching per-location work to N shard workers.
	Shards             uint64 `json:"shards,omitempty"`               // location shards (1 = serial path, field omitted)
	ShardEventsMax     uint64 `json:"shard_events_max,omitempty"`     // busiest shard's accesses — the imbalance ceiling
	CrossShardHandoffs uint64 `json:"cross_shard_handoffs,omitempty"` // accesses handed from the structure stage to shard queues
	ShardStalls        uint64 `json:"shard_stalls,omitempty"`         // dispatches that blocked on a full shard queue
}

// Merge is how Stats.Add combines one field of two snapshots.
type Merge uint8

const (
	Sum       Merge = iota // a volume: the counts add
	HighWater              // a high-water mark: the larger one stays
	Keep                   // BytesPerLocation, a per-engine constant: the receiver's value stays
	Hist                   // the batch-size histogram: the buckets add
)

// Field is one row of Fields: a Stats field by its JSON key.
type Field struct {
	Key   string
	Merge Merge
	// Counter addresses the field of a Sum or HighWater row; it is nil
	// for the two others, the float (Keep) and the histogram (Hist).
	Counter func(*Stats) *uint64
}

// Fields lists every Stats field in declaration order — the order of
// its JSON object and of a Report's binary encoding. Add, String, the
// JSON renderer and the binary codec all iterate it, so a field added
// to Stats needs one row here and nothing else.
var Fields = [...]Field{
	{"reads", Sum, func(s *Stats) *uint64 { return &s.Reads }},
	{"writes", Sum, func(s *Stats) *uint64 { return &s.Writes }},
	{"forks", Sum, func(s *Stats) *uint64 { return &s.Forks }},
	{"joins", Sum, func(s *Stats) *uint64 { return &s.Joins }},
	{"halts", Sum, func(s *Stats) *uint64 { return &s.Halts }},
	{"sup_queries", Sum, func(s *Stats) *uint64 { return &s.SupQueries }},
	{"visits", Sum, func(s *Stats) *uint64 { return &s.Visits }},
	{"finds", Sum, func(s *Stats) *uint64 { return &s.Finds }},
	{"unions", Sum, func(s *Stats) *uint64 { return &s.Unions }},
	{"path_steps", Sum, func(s *Stats) *uint64 { return &s.PathSteps }},
	{"table_probes", Sum, func(s *Stats) *uint64 { return &s.TableProbes }},
	{"table_rehash_steps", Sum, func(s *Stats) *uint64 { return &s.TableRehashSteps }},
	{"table_grows", Sum, func(s *Stats) *uint64 { return &s.TableGrows }},
	{"clock_joins", Sum, func(s *Stats) *uint64 { return &s.ClockJoins }},
	{"clock_entries_scanned", Sum, func(s *Stats) *uint64 { return &s.ClockEntries }},
	{"epoch_hits", Sum, func(s *Stats) *uint64 { return &s.EpochHits }},
	{"read_shares", Sum, func(s *Stats) *uint64 { return &s.ReadShares }},
	{"accesses_scanned", Sum, func(s *Stats) *uint64 { return &s.SetScans }},
	{"list_inserts", Sum, func(s *Stats) *uint64 { return &s.ListInserts }},
	{"order_queries", Sum, func(s *Stats) *uint64 { return &s.OrderQueries }},
	{"races", Sum, func(s *Stats) *uint64 { return &s.Races }},
	{"locations", Sum, func(s *Stats) *uint64 { return &s.Locations }},
	{"bytes_per_location", Keep, nil},
	{"batches", Sum, func(s *Stats) *uint64 { return &s.Batches }},
	{"batch_size_hist", Hist, nil},
	{"producers", Sum, func(s *Stats) *uint64 { return &s.Producers }},
	{"events_buffered", Sum, func(s *Stats) *uint64 { return &s.EventsBuffered }},
	{"max_queue_depth", HighWater, func(s *Stats) *uint64 { return &s.MaxQueueDepth }},
	{"producer_stalls", Sum, func(s *Stats) *uint64 { return &s.ProducerStalls }},
	{"shards", Sum, func(s *Stats) *uint64 { return &s.Shards }},
	{"shard_events_max", HighWater, func(s *Stats) *uint64 { return &s.ShardEventsMax }},
	{"cross_shard_handoffs", Sum, func(s *Stats) *uint64 { return &s.CrossShardHandoffs }},
	{"shard_stalls", Sum, func(s *Stats) *uint64 { return &s.ShardStalls }},
}

// MemOps returns the total memory operations observed.
func (s Stats) MemOps() uint64 { return s.Reads + s.Writes }

// UnionFindOps returns the total union-find operations (Theorem 3's
// m + n accounting unit).
func (s Stats) UnionFindOps() uint64 { return s.Finds + s.Unions }

// AmortizedSteps returns the union-find work (finds + unions + path
// compression steps) per memory operation — the quantity Theorem 5
// bounds by Θ(α). Zero when no memory operations were observed.
func (s Stats) AmortizedSteps() float64 {
	ops := s.MemOps()
	if ops == 0 {
		return 0
	}
	return float64(s.Finds+s.Unions+s.PathSteps) / float64(ops)
}

// Add accumulates other into s field by field, each by its Fields
// merge rule, for aggregating shards of a fleet.
func (s *Stats) Add(other Stats) {
	for _, f := range Fields {
		switch f.Merge {
		case Sum:
			*f.Counter(s) += *f.Counter(&other)
		case HighWater:
			*f.Counter(s) = max(*f.Counter(s), *f.Counter(&other))
		case Hist:
			for len(s.BatchSizes) < len(other.BatchSizes) {
				s.BatchSizes = append(s.BatchSizes, 0)
			}
			for i, v := range other.BatchSizes {
				s.BatchSizes[i] += v
			}
		}
	}
}

// String renders the non-zero counters compactly, in declaration order,
// each under its JSON key with '_' spelled '-'.
func (s Stats) String() string {
	var b strings.Builder
	for _, f := range Fields {
		if f.Counter == nil {
			continue
		}
		if v := *f.Counter(&s); v != 0 {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", strings.ReplaceAll(f.Key, "_", "-"), v)
		}
	}
	if s.MemOps() > 0 && s.UnionFindOps() > 0 {
		fmt.Fprintf(&b, " amortized-uf-steps/op=%.2f", s.AmortizedSteps())
	}
	return b.String()
}

// Source is the common observability surface: anything that can report
// an operation-count snapshot.
type Source interface {
	Stats() Stats
}

// AlphaSlack bounds the amortized union-find steps per operation that
// CheckAccounting accepts. Tarjan's bound is α(m, n) per operation with
// α ≤ 4 for every feasible input; path halving rewrites at most one
// parent per node visited, so total steps stay within a small constant
// of (m + n)·α. The slack is deliberately generous — it catches a
// broken structure (linear chains), not a lost micro-optimization.
const AlphaSlack = 8

// CheckAccounting verifies the paper's operation-accounting claims on a
// snapshot from the 2D detector family:
//
//   - Theorem 2/3: answering the m supremum queries posed so far cost
//     exactly m union-find finds (Finds == SupQueries) and at most n−1
//     unions for n tracked vertices.
//   - Theorem 5 (amortization): total union-find work, including path
//     compression steps, is within AlphaSlack·(m + n).
//
// n is the number of vertices the walker tracks. A nil error means the
// live counters match the theorems' accounting.
func CheckAccounting(s Stats, n int) error {
	if s.Finds != s.SupQueries {
		return fmt.Errorf("obs: finds = %d, want exactly m = %d sup queries (Theorem 3)", s.Finds, s.SupQueries)
	}
	if n > 0 && s.Unions > uint64(n-1) {
		return fmt.Errorf("obs: unions = %d exceeds n-1 = %d for n = %d vertices (Theorem 3)", s.Unions, n-1, n)
	}
	if budget := AlphaSlack * (s.Finds + s.Unions + uint64(n)); s.PathSteps > budget {
		return fmt.Errorf("obs: path compression steps = %d exceed %d·(m+n) = %d (Theorem 5 amortization)",
			s.PathSteps, AlphaSlack, budget)
	}
	return nil
}
