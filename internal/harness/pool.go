// The harness's ordered worker pool, and the cell pool built on it:
// how the harness simulates the cells no store could replay, on a
// bounded set of worker goroutines, and lands each one — result slot,
// store write-back, trace, ordered release.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"correctbench/internal/autoeval"
	"correctbench/internal/obs"
)

// forEachOrdered calls run(i, queued) for every i in [0, n) on a pool
// of workers goroutines (workers <= 0: GOMAXPROCS; never more than n),
// where queued is the moment item i was handed to the pool. Items feed
// in canonical order and feeding stops at the first failure or
// cancellation; items already handed out still run, so every item
// ordered before a failure executes, which makes the earliest recorded
// error the one a sequential run would hit first. A cancelled ctx
// returns ctx.Err(). Completion order is free; callers that need
// ordered output write into per-item slots or re-sequence.
func forEachOrdered(ctx context.Context, n, workers int, run func(i int, queued time.Time) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	type item struct {
		i      int
		queued time.Time
	}
	var (
		jobs   = make(chan item)
		wg     sync.WaitGroup
		errs   = make([]error, n) // by item, so the canonically earliest is the first set
		failed atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				err := ctx.Err()
				if err == nil {
					err = run(it.i, it.queued)
				}
				if err != nil {
					errs[it.i] = err
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !failed.Load() && ctx.Err() == nil; i++ {
		jobs <- item{i: i, queued: time.Now()} //detlint:allow queue_wait is wall-clock metadata, excluded from the deterministic surface
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runPending simulates the pending cells, which are in canonical
// order, on the ordered pool. The ordered emitter re-sequences
// releases, so the event stream is byte-identical at any worker count.
func runPending(ctx context.Context, cfg *Config, pending []cell, eval *autoeval.Evaluator,
	guard *storeGuard, emit *orderedEmitter, res *Results, epoch time.Time) error {

	// Each cell is simulated and landed: its result slot, the store
	// write-back (before release, so any observer that has seen the
	// cell's event can rely on it being resumable), its trace, and its
	// event. A traced cell's collector numbers its samples in execution
	// order — store_lookup (store-backed runs only, timed during cell
	// resolution), queue_wait, simulate and grade with their sim_*
	// children, store_writeback last — and span IDs derive from those
	// sequence numbers.
	return forEachOrdered(ctx, len(pending), cfg.Workers, func(i int, queuedAt time.Time) error {
		c := pending[i]
		method, p := cfg.Methods[c.mi], cfg.Problems[c.pi]
		start := time.Now() //detlint:allow CellEvent.Duration is documented wall-clock metadata, excluded from the deterministic surface
		runCtx := ctx
		var col *obs.Collector
		if cfg.Trace != nil {
			col = obs.NewCollector(epoch)
			seq := 0
			if guard != nil {
				col.Add(obs.PhaseSample{
					Phase: obs.PhaseLookup, Seq: seq, ParentSeq: -1,
					StartUS: c.lookStartUS, DurUS: c.lookDurUS,
				})
				seq++
			}
			// queue_wait: enqueue (canonical-order feed) to the moment a
			// pool worker picked the cell up.
			col.Add(obs.PhaseSample{
				Phase: obs.PhaseQueueWait, Seq: seq, ParentSeq: -1,
				StartUS: queuedAt.Sub(epoch).Microseconds(),
				DurUS:   start.Sub(queuedAt).Microseconds(),
			})
			runCtx = obs.WithCollector(ctx, col)
		}
		if cfg.CellHook != nil {
			cfg.CellHook(c.idx)
		}
		r := CellStream(cfg.Seed, method, c.ri, p.Name).Rand()
		o, err := runTask(runCtx, method, p, *cfg, eval, r)
		if err != nil {
			return fmt.Errorf("%s/%s rep %d: %w", method, p.Name, c.ri, err)
		}
		dur := time.Since(start)
		res.Outcomes[method][c.ri][c.pi] = o
		if guard != nil {
			// Write-backs are retried with backoff and then deliberately
			// dropped, never fatal (the guard counts retries, drops, and
			// breaker trips): a full disk degrades the run to uncached,
			// it does not fail it.
			endWriteback := col.Start(obs.PhaseWriteback)
			guard.put(ctx, c.key, toStoreOutcome(o))
			endWriteback()
		}
		if cfg.Trace != nil {
			recordCellTrace(cfg, c, method, p.Name, false, col.Samples())
		}
		emit.cellDone(CellEvent{
			Index: c.idx, Method: method, Rep: c.ri, Problem: p.Name,
			Outcome: o, Duration: dur,
		})
		return nil
	})
}

// recordCellTrace lands one finished cell's span tree in Config.Trace,
// with span IDs derived deterministically from the cell's content
// address.
func recordCellTrace(cfg *Config, c cell, method Method, problem string, cached bool, samples []obs.PhaseSample) {
	traceID := c.key.String()
	cfg.Trace.Add(obs.CellTrace{
		Index: c.idx, Method: string(method), Rep: c.ri, Problem: problem,
		Key: traceID, Cached: cached,
		Spans: obs.BuildSpans(traceID, samples),
	})
}
