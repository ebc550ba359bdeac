// Package faults is a deterministic, seed-driven fault injector for
// chaos-testing the evaluation pipeline. It produces the failure modes
// that dominate the service at scale — transient store errors, lost
// acknowledgements, injected latency, a device that dies mid-run, and
// crash-torn shard tails — as pure functions of a seed and an
// operation index, so every failure schedule is reproducible: the
// N-th store operation (or the cell with canonical index N) always
// draws the same fault decision from the same Plan, via the same
// internal/rng derivation the harness uses for experiment randomness.
//
// Three entry points:
//
//   - Wrap(store, plan) decorates any store.Store with injected Get
//     misses, Put errors, lost acks and latency;
//   - New(plan).CellStart is a harness.Config.CellHook that injects
//     deterministic per-cell latency into the worker path, reshuffling
//     completion order without (provably) changing the event stream;
//   - TearShards(dir, seed) deterministically tears the tails of disk
//     shards, simulating the partial appends a crash leaves behind.
//
// The package is production-shaped but test-purposed: nothing in the
// serving path imports it, while chaos tests use it to prove the
// robustness guarantees hold under seeded fault schedules.
package faults

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"correctbench/internal/rng"
	"correctbench/internal/store"
)

// ErrInjected is the error every injected Put fault returns; callers
// can distinguish injected faults from real ones with errors.Is.
var ErrInjected = errors.New("faults: injected store fault")

// Plan is one deterministic fault schedule. All rates are
// probabilities in [0,1]; each operation's decision is a pure function
// of (Seed, operation kind, operation index), so a schedule replays
// identically for the same operation sequence.
type Plan struct {
	// Seed drives every fault decision via internal/rng.
	Seed int64

	// GetMissRate forces store lookups to miss (unreadable data): the
	// harness must re-simulate the cell and still produce the same
	// stream.
	GetMissRate float64
	// PutErrorRate fails store write-backs with ErrInjected before the
	// inner store sees them (transient write fault).
	PutErrorRate float64
	// LostAckRate performs the write-back on the inner store but still
	// reports ErrInjected (the classic acknowledged-write-lost-ack
	// tear): a retry must be a harmless no-op, never a duplicate.
	LostAckRate float64
	// LatencyRate injects a uniform delay in (0, MaxLatency] into store
	// operations (slow disk, contended volume).
	LatencyRate float64
	MaxLatency  time.Duration

	// FailAfterOps, when > 0, kills the store at operation N: every
	// store operation from the N-th on fails (Get misses, Put returns
	// ErrInjected) — the pulled-disk schedule that must degrade the
	// harness to cache-bypass mode, not fail the job.
	FailAfterOps int64

	// CellDelayRate injects a uniform delay in (0, MaxCellDelay] before
	// a cell simulates (Injector.CellStart). Keyed by the canonical
	// cell index — not arrival order — so the delayed set is identical
	// at any worker count.
	CellDelayRate float64
	MaxCellDelay  time.Duration
}

// decide is the one deterministic coin: operation (kind, n) under this
// plan fires iff its derived uniform draw lands under rate.
func (p Plan) decide(kind string, n int64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	return rng.New(p.Seed).Child("fault", kind).ChildN("op", int(n)).Rand().Float64() < rate
}

// delay derives the deterministic latency for operation (kind, n), or
// 0 when the latency coin does not fire.
func (p Plan) delay(kind string, n int64, rate float64, max time.Duration) time.Duration {
	if rate <= 0 || max <= 0 {
		return 0
	}
	r := rng.New(p.Seed).Child("delay", kind).ChildN("op", int(n)).Rand()
	if r.Float64() >= rate {
		return 0
	}
	return time.Duration(1 + r.Int63n(int64(max)))
}

// Counts reports what an injector (or fault-wrapped store) has
// injected so far. All fields are totals since construction.
type Counts struct {
	GetMisses int64 `json:"get_misses"`
	PutErrors int64 `json:"put_errors"`
	LostAcks  int64 `json:"lost_acks"`
	Delays    int64 `json:"delays"`
	DeadOps   int64 `json:"dead_ops"`
}

// Store decorates an inner store.Store with the Plan's fault
// schedule. It is safe for concurrent use; the operation counter is
// global across goroutines, so under concurrency the decision
// *sequence* is fixed while the victim of the N-th decision depends on
// scheduling — which is exactly the chaos being tested.
type Store struct {
	inner store.Store
	plan  Plan
	ops   atomic.Int64

	mu     sync.Mutex
	counts Counts
}

// Wrap decorates a store with a fault schedule.
func Wrap(inner store.Store, plan Plan) *Store {
	return &Store{inner: inner, plan: plan}
}

// Counts returns the injected-fault totals.
func (s *Store) Counts() Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts
}

func (s *Store) sleep(kind string, n int64) {
	if d := s.plan.delay(kind, n, s.plan.LatencyRate, s.plan.MaxLatency); d > 0 {
		s.mu.Lock()
		s.counts.Delays++
		s.mu.Unlock()
		time.Sleep(d)
	}
}

func (s *Store) dead(n int64) bool {
	if s.plan.FailAfterOps > 0 && n >= s.plan.FailAfterOps {
		s.mu.Lock()
		s.counts.DeadOps++
		s.mu.Unlock()
		return true
	}
	return false
}

// Get implements store.Store: injected faults surface as misses (the
// interface has no read error), which is also how a real store
// degrades — an unreadable cell is simply re-simulated.
func (s *Store) Get(k store.Key) (store.Outcome, bool) {
	n := s.ops.Add(1) - 1
	s.sleep("get", n)
	if s.dead(n) {
		return store.Outcome{}, false
	}
	if s.plan.decide("getmiss", n, s.plan.GetMissRate) {
		s.mu.Lock()
		s.counts.GetMisses++
		s.mu.Unlock()
		return store.Outcome{}, false
	}
	return s.inner.Get(k)
}

// Put implements store.Store with three injected failure modes: a
// clean error before the write (transient fault), a lost ack after a
// successful write (torn acknowledgement — the retry must dedup), and
// the dead-store mode.
func (s *Store) Put(k store.Key, o store.Outcome) error {
	n := s.ops.Add(1) - 1
	s.sleep("put", n)
	if s.dead(n) {
		return fmt.Errorf("%w (store dead at op %d)", ErrInjected, n)
	}
	if s.plan.decide("puterr", n, s.plan.PutErrorRate) {
		s.mu.Lock()
		s.counts.PutErrors++
		s.mu.Unlock()
		return fmt.Errorf("%w (put op %d)", ErrInjected, n)
	}
	if s.plan.decide("lostack", n, s.plan.LostAckRate) {
		err := s.inner.Put(k, o)
		s.mu.Lock()
		s.counts.LostAcks++
		s.mu.Unlock()
		if err != nil {
			return err
		}
		return fmt.Errorf("%w (ack lost, op %d)", ErrInjected, n)
	}
	return s.inner.Put(k, o)
}

// Stats implements store.Store, passing the inner store's counters
// through — what actually landed, not what was attempted.
func (s *Store) Stats() store.Stats { return s.inner.Stats() }

// Close implements store.Store.
func (s *Store) Close() error { return s.inner.Close() }

// Injector drives the harness worker path (Config.CellHook): a
// deterministic per-cell latency schedule that reshuffles completion
// order under concurrency. The event-stream contract says reshuffling
// must be invisible; chaos tests prove it.
type Injector struct {
	plan   Plan
	delays atomic.Int64
}

// New returns an injector over a plan.
func New(plan Plan) *Injector { return &Injector{plan: plan} }

// CellStart injects the cell's deterministic delay; pass it as
// harness.Config.CellHook. Keyed by the canonical cell index, so the
// same cells are delayed no matter how cells land on workers.
func (i *Injector) CellStart(index int) {
	if d := i.plan.delay("cell", int64(index), i.plan.CellDelayRate, i.plan.MaxCellDelay); d > 0 {
		i.delays.Add(1)
		time.Sleep(d)
	}
}

// Delays reports how many cells were delayed.
func (i *Injector) Delays() int64 { return i.delays.Load() }

// TearShards simulates crash-torn appends on a disk store directory:
// for every *.shard file (sorted, so the schedule is path-order
// independent), a per-file coin decides whether to tear it, and a torn
// file loses a uniform 1..40 byte tail — enough to clip a record
// boundary or CRC, never the whole shard. The store's loader must
// skip-and-count the torn record and the harness must re-simulate the
// lost cells with a byte-identical stream. Returns the torn file
// count. The directory must not have a live writer.
func TearShards(dir string, seed int64) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("faults: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".shard") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	torn := 0
	for _, name := range names {
		r := rng.New(seed).Child("tear", name).Rand()
		if r.Float64() >= 0.5 {
			continue
		}
		path := filepath.Join(dir, name)
		info, err := os.Stat(path)
		if err != nil {
			return torn, fmt.Errorf("faults: %w", err)
		}
		cut := 1 + r.Int63n(40)
		// Never tear into the header: a headerless file is a different
		// failure mode (stale shard), covered separately.
		if info.Size()-cut < 8 {
			continue
		}
		if err := os.Truncate(path, info.Size()-cut); err != nil {
			return torn, fmt.Errorf("faults: %w", err)
		}
		torn++
	}
	return torn, nil
}
