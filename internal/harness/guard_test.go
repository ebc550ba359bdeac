package harness

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"correctbench/internal/store"
)

// flakyStore fails the first failPuts write-backs of each key (or all
// of them with failPuts < 0), delegating everything else to an inner
// memory store.
type flakyStore struct {
	inner    store.Store
	failPuts int // per-key failures; -1 = always fail

	mu       sync.Mutex
	attempts map[store.Key]int
	puts     int
}

func newFlakyStore(failPuts int) *flakyStore {
	return &flakyStore{
		inner:    store.NewMemory(0),
		failPuts: failPuts,
		attempts: map[store.Key]int{},
	}
}

var errFlaky = errors.New("flaky store: injected put failure")

func (f *flakyStore) Get(k store.Key) (store.Outcome, bool) { return f.inner.Get(k) }

func (f *flakyStore) Put(k store.Key, o store.Outcome) error {
	f.mu.Lock()
	f.puts++
	f.attempts[k]++
	fail := f.failPuts < 0 || f.attempts[k] <= f.failPuts
	f.mu.Unlock()
	if fail {
		return errFlaky
	}
	return f.inner.Put(k, o)
}

func (f *flakyStore) putCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.puts
}

func (f *flakyStore) Stats() store.Stats { return f.inner.Stats() }
func (f *flakyStore) Close() error       { return f.inner.Close() }

// TestFaultGuardRetriesTransientPuts: a store that fails each cell's
// first write-back once is fully absorbed by the retry budget — every
// cell lands, drops stay zero, and the run never degrades.
func TestFaultGuardRetriesTransientPuts(t *testing.T) {
	probs := storeTestProblems(t)
	fs := newFlakyStore(1)
	res, err := RunContext(context.Background(), Config{Seed: 33, Reps: 1, Problems: probs, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	total := len(AllMethods()) * len(probs)
	if res.Store.PutRetries < total {
		t.Errorf("put retries = %d, want >= %d (one per cell)", res.Store.PutRetries, total)
	}
	if res.Store.PutDrops != 0 || res.Store.Degraded {
		t.Errorf("drops/degraded = %d/%v, want 0/false", res.Store.PutDrops, res.Store.Degraded)
	}
	if s := fs.Stats(); s.Entries != total {
		t.Errorf("store entries = %d, want %d (every retry must land)", s.Entries, total)
	}

	// The retried cold run must have produced exactly what a clean run
	// does, and the now-populated store must serve a fully warm rerun.
	clean, err := RunContext(context.Background(), Config{Seed: 33, Reps: 1, Problems: probs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Outcomes, clean.Outcomes) {
		t.Error("outcomes under put faults differ from a clean run")
	}
	warm, err := RunContext(context.Background(), Config{Seed: 33, Reps: 1, Problems: probs, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Store.Hits != total || warm.Store.Misses != 0 {
		t.Errorf("warm hits/misses = %d/%d, want %d/0", warm.Store.Hits, warm.Store.Misses, total)
	}
}

// TestFaultGuardBreakerOpensOnDeadStore: with every write-back
// failing, the breaker opens after the consecutive-drop threshold and
// the run degrades to cache-bypass mode — bounded put attempts (no
// 3x-retry per cell forever), zero stored cells, and outcomes still
// identical to a clean run.
func TestFaultGuardBreakerOpensOnDeadStore(t *testing.T) {
	probs := storeTestProblems(t)
	fs := newFlakyStore(-1)
	res, err := RunContext(context.Background(), Config{Seed: 33, Reps: 2, Problems: probs, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	total := len(AllMethods()) * 2 * len(probs)
	if !res.Store.Degraded || res.Store.BreakerTrips == 0 {
		t.Fatalf("run did not degrade: %+v", res.Store)
	}
	if res.Store.PutDrops < storeBreakerThreshold {
		t.Errorf("drops = %d, want >= breaker threshold %d", res.Store.PutDrops, storeBreakerThreshold)
	}
	// Once open, only every probeEvery-th put reaches the store; the
	// worst case is every put attempted with the full retry budget.
	if max := total * storePutAttempts; fs.putCalls() > max {
		t.Errorf("put calls = %d, want <= %d", fs.putCalls(), max)
	}
	if res.Store.Bypassed == 0 {
		t.Error("no operations bypassed despite an open breaker")
	}
	clean, err := RunContext(context.Background(), Config{Seed: 33, Reps: 2, Problems: probs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Outcomes, clean.Outcomes) {
		t.Error("outcomes with a dead store differ from a clean run")
	}
}

// TestFaultGuardBreakerRecovers: a store that heals mid-run is
// rediscovered by the half-open probes — the breaker closes again and
// later write-backs land.
func TestFaultGuardBreakerRecovers(t *testing.T) {
	g := newStoreGuard(newFlakyStore(0), 1)
	ctx := context.Background()
	key := func(i byte) store.Key { return store.Key{i} }
	o := store.Outcome{}

	// Trip the breaker against a dead store...
	dead := newFlakyStore(-1)
	g.st = dead
	for i := byte(0); int(i) < storeBreakerThreshold; i++ {
		g.put(ctx, key(i), o)
	}
	if !g.snapshot().Degraded {
		t.Fatalf("breaker not open after %d drops", storeBreakerThreshold)
	}
	// ...heal the store and push enough puts to reach a probe.
	healthy := newFlakyStore(0)
	g.st = healthy
	for i := byte(100); int(i) < 100+storeBreakerProbeEvery; i++ {
		g.put(ctx, key(i), o)
	}
	g.mu.Lock()
	open := g.open
	g.mu.Unlock()
	if open {
		t.Error("breaker still open after a successful probe")
	}
	g.put(ctx, key(200), o)
	if healthy.putCalls() < 2 {
		t.Errorf("healed store saw %d puts, want the probe plus post-recovery writes", healthy.putCalls())
	}
}

// TestFaultGuardPutAbortsOnCancel: a cancelled context cuts backoff
// waits short, so a drain against an erroring store cannot hang on
// retry sleeps.
func TestFaultGuardPutAbortsOnCancel(t *testing.T) {
	g := newStoreGuard(newFlakyStore(-1), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g.put(ctx, store.Key{1}, store.Outcome{})
	u := g.snapshot()
	if u.PutDrops != 1 {
		t.Errorf("drops = %d, want 1 (cancelled retry must drop, not block)", u.PutDrops)
	}
}

// TestFaultBackoffDeterministicAndBounded: the jittered backoff is a
// pure function of (seed, op, attempt) and stays inside [base/2, cap).
func TestFaultBackoffDeterministicAndBounded(t *testing.T) {
	for op := 0; op < 50; op++ {
		for attempt := 1; attempt < storePutAttempts; attempt++ {
			d1, d2 := backoff(9, op, attempt), backoff(9, op, attempt)
			if d1 != d2 {
				t.Fatalf("backoff(9,%d,%d) nondeterministic: %v vs %v", op, attempt, d1, d2)
			}
			if d1 < storeBackoffBase/2 || d1 >= storeBackoffMax {
				t.Fatalf("backoff(9,%d,%d) = %v out of [%v,%v)", op, attempt, d1, storeBackoffBase/2, storeBackoffMax)
			}
		}
	}
}

// TestFaultCellHookSeesEverySimulatedCell: the hook fires exactly once
// per simulated cell with its canonical index, and store-replayed
// cells never reach it.
func TestFaultCellHookSeesEverySimulatedCell(t *testing.T) {
	probs := storeTestProblems(t)
	st := store.NewMemory(0)
	var mu sync.Mutex
	seen := map[int]int{}
	cfg := Config{
		Seed: 21, Reps: 1, Problems: probs, Store: st,
		CellHook: func(i int) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		},
	}
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	total := len(AllMethods()) * len(probs)
	if len(seen) != total {
		t.Fatalf("hook saw %d distinct cells, want %d", len(seen), total)
	}
	for i := 0; i < total; i++ {
		if seen[i] != 1 {
			t.Errorf("cell %d hooked %d times, want 1", i, seen[i])
		}
	}

	// Fully warm rerun: every cell replays, the hook must stay silent.
	seen = map[int]int{}
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 0 {
		t.Errorf("hook fired %d times on a fully warm run, want 0", len(seen))
	}
}
