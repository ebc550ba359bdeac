package harness

import (
	"context"
	"sync"
	"time"

	"correctbench/internal/rng"
	"correctbench/internal/store"
)

// StoreUsage is one run's result-store accounting, surfaced as
// Results.Store. Beyond the hit/miss split it records what the
// fault-tolerance layer did: write-back retries, write-backs dropped
// after the bounded retry budget, operations skipped while the
// circuit breaker was open, and whether the run ever degraded to
// cache-bypass mode. The invariant the guard enforces is that none of
// these numbers can change a run's outcomes or event stream — a
// misbehaving store costs cache efficiency, never correctness.
type StoreUsage struct {
	// Hits and Misses count cells replayed from the store versus
	// simulated.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// PutRetries counts write-back attempts beyond each cell's first
	// (capped exponential backoff with jitter between attempts).
	PutRetries int `json:"put_retries,omitempty"`
	// PutDrops counts write-backs abandoned after the retry budget:
	// those cells stay uncached (re-simulated on resume) but the run
	// itself is unaffected.
	PutDrops int `json:"put_drops,omitempty"`
	// Bypassed counts store operations skipped while the breaker was
	// open — the cache-bypass (NoStore-equivalent) degraded mode.
	Bypassed int `json:"bypassed,omitempty"`
	// BreakerTrips counts closed->open transitions; Degraded reports
	// the run entered cache-bypass mode at least once.
	BreakerTrips int  `json:"breaker_trips,omitempty"`
	Degraded     bool `json:"degraded,omitempty"`
}

// Store fault-tolerance policy. The budgets are deliberately small: a
// healthy store succeeds on the first attempt, a flaky one gets two
// cheap retries, and a dead one trips the breaker after a handful of
// dropped write-backs so the run stops paying backoff latency at all.
const (
	// storePutAttempts bounds write-back attempts per cell (1 initial
	// + retries).
	storePutAttempts = 3
	// storeBackoffBase/Max cap the exponential backoff between
	// attempts; the actual wait is jittered into [d/2, d).
	storeBackoffBase = 2 * time.Millisecond
	storeBackoffMax  = 50 * time.Millisecond
	// storeBreakerThreshold is the consecutive-drop count that opens
	// the breaker.
	storeBreakerThreshold = 5
	// storeBreakerProbeEvery: while open, every N-th write-back is
	// attempted as a half-open probe; one success closes the breaker
	// (the store recovered mid-run).
	storeBreakerProbeEvery = 16
)

// storeGuard wraps Config.Store for one run with the policy above. A
// fresh guard (breaker closed) is created per run, so a recovered
// store is re-probed by the next job at the latest. All methods are
// safe for concurrent use by the worker pool.
type storeGuard struct {
	st   store.Store
	seed int64

	mu          sync.Mutex
	open        bool
	consecDrops int
	sinceProbe  int
	ops         int
	usage       StoreUsage
}

func newStoreGuard(st store.Store, seed int64) *storeGuard {
	return &storeGuard{st: st, seed: seed}
}

// get resolves a cell against the store; while the breaker is open
// every lookup is a bypassed miss (cache-bypass mode).
func (g *storeGuard) get(k store.Key) (store.Outcome, bool) {
	g.mu.Lock()
	if g.open {
		g.usage.Bypassed++
		g.mu.Unlock()
		return store.Outcome{}, false
	}
	g.mu.Unlock()
	return g.st.Get(k)
}

// put writes a finished cell back with bounded retries. It never
// returns an error: a write-back that exhausts its budget is dropped
// and counted, and enough consecutive drops open the breaker. ctx
// cancellation aborts any backoff wait immediately, which is what
// keeps Client.Close's drain bounded even against a hanging-error
// store.
func (g *storeGuard) put(ctx context.Context, k store.Key, o store.Outcome) {
	g.mu.Lock()
	if g.open {
		g.sinceProbe++
		if g.sinceProbe < storeBreakerProbeEvery {
			g.usage.Bypassed++
			g.mu.Unlock()
			return
		}
		g.sinceProbe = 0 // this put is the half-open probe
	}
	op := g.ops
	g.ops++
	g.mu.Unlock()

	for attempt := 0; attempt < storePutAttempts; attempt++ {
		if attempt > 0 {
			g.mu.Lock()
			g.usage.PutRetries++
			g.mu.Unlock()
			if !sleepCtx(ctx, backoff(g.seed, op, attempt)) {
				g.drop()
				return
			}
		}
		if err := g.st.Put(k, o); err == nil {
			g.mu.Lock()
			g.consecDrops = 0
			g.open = false // closes the breaker when this was a probe
			g.mu.Unlock()
			return
		}
	}
	g.drop()
}

// drop records an abandoned write-back and trips the breaker at the
// threshold.
func (g *storeGuard) drop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.usage.PutDrops++
	g.consecDrops++
	if !g.open && g.consecDrops >= storeBreakerThreshold {
		g.open = true
		g.sinceProbe = 0
		g.usage.BreakerTrips++
		g.usage.Degraded = true
	}
}

// snapshot returns the usage counters so far.
func (g *storeGuard) snapshot() StoreUsage {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.usage
}

// backoff derives attempt N's capped, jittered wait. The jitter is a
// pure function of (run seed, write-back index, attempt) via
// internal/rng — reproducible like every other random choice — and
// lands in [d/2, d) so concurrent retries against a recovering store
// do not stampede in lockstep.
func backoff(seed int64, op, attempt int) time.Duration {
	d := storeBackoffBase << (attempt - 1)
	if d > storeBackoffMax {
		d = storeBackoffMax
	}
	r := rng.New(seed).Child("store", "backoff").ChildN("op", op*storePutAttempts+attempt).Rand()
	return d/2 + time.Duration(r.Int63n(int64(d/2)))
}

// sleepCtx sleeps for d unless ctx ends first; reports whether the
// full wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
