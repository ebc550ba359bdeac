// The cell pool: how the harness simulates the cells no store could
// replay, on a bounded set of worker goroutines, and lands each one —
// result slot, store write-back, trace, ordered release.
package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"correctbench/internal/autoeval"
	"correctbench/internal/obs"
)

// runPending simulates the pending cells on workers goroutines. Cells
// feed in canonical order and scheduling stops at the first failure or
// cancellation; already-queued cells still run, so every cell ordered
// before a failure executes, which makes the earliest recorded error
// the one a sequential run would hit first. Completion order is free:
// the ordered emitter re-sequences releases, so the event stream is
// byte-identical at any worker count.
func runPending(ctx context.Context, cfg *Config, pending []cell, workers int, eval *autoeval.Evaluator,
	guard *storeGuard, emit *orderedEmitter, res *Results, epoch time.Time) error {

	traceOn := cfg.Trace != nil || cfg.Observer != nil

	// runCell simulates one cell and lands it: its result slot, the
	// store write-back (before release, so any observer that has seen
	// the cell's event can rely on it being resumable), its trace, and
	// its event. A traced cell's collector numbers its samples in
	// execution order — store_lookup (store-backed runs only, timed
	// during cell resolution), queue_wait, simulate and grade with
	// their sim_* children, store_writeback last — and span IDs derive
	// from those sequence numbers.
	runCell := func(c cell, queuedAt time.Time) error {
		method, p := cfg.Methods[c.mi], cfg.Problems[c.pi]
		start := time.Now() //detlint:allow CellEvent.Duration is documented wall-clock metadata, excluded from the deterministic surface
		runCtx := ctx
		var col *obs.Collector
		if traceOn {
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
		if traceOn {
			recordCellTrace(cfg, c, method, p.Name, false, col.Samples())
		}
		emit.cellDone(CellEvent{
			Index: c.idx, Method: method, Rep: c.ri, Problem: p.Name,
			Outcome: o, Duration: dur,
		})
		return nil
	}

	type queued struct {
		c  cell
		at time.Time // enqueue time, for the queue_wait sample (zero when not tracing)
	}
	var (
		errs = newErrorCollector()
		jobs = make(chan queued)
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range jobs {
				err := ctx.Err()
				if err == nil {
					err = runCell(q.c, q.at)
				}
				if err != nil {
					errs.record(q.c.idx, err)
				}
			}
		}()
	}
	for _, c := range pending {
		if errs.failed() || ctx.Err() != nil {
			break
		}
		q := queued{c: c}
		if traceOn {
			q.at = time.Now() //detlint:allow queue_wait is wall-clock metadata, excluded from the deterministic surface
		}
		jobs <- q
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	return errs.first()
}

// recordCellTrace lands one finished cell's phase samples in the
// run's tracing sinks: the span tree (Config.Trace, with span IDs
// derived deterministically from the cell's content address) and the
// latency aggregator (Config.Observer).
func recordCellTrace(cfg *Config, c cell, method Method, problem string, cached bool, samples []obs.PhaseSample) {
	if cfg.Observer != nil {
		cfg.Observer.ObserveSamples(samples)
	}
	if cfg.Trace != nil {
		traceID := c.key.String()
		cfg.Trace.Add(obs.CellTrace{
			Index: c.idx, Method: string(method), Rep: c.ri, Problem: problem,
			Key: traceID, Cached: cached,
			Spans: obs.BuildSpans(traceID, samples),
		})
	}
}
