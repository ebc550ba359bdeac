package correctbench

import (
	"context"
	"errors"
	"sync"
	"time"

	"correctbench/internal/harness"
	"correctbench/internal/obs"
)

// JobState is a job's lifecycle state as reported by Snapshot.
type JobState string

// Job states.
const (
	JobRunning   JobState = "running"
	JobSucceeded JobState = "succeeded"
	JobFailed    JobState = "failed"
	JobCanceled  JobState = "canceled"
)

// Job is one submitted experiment. It exposes a typed event stream
// (Events), blocking completion (Wait), cooperative cancellation
// (Cancel) and live partial results (Snapshot). All methods are safe
// for concurrent use.
type Job struct {
	id     string
	spec   ExperimentSpec
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	update chan struct{} // closed and replaced on every publish
	events []Event       // full history, replayed to late subscribers
	closed bool          // true once JobDone has been published

	total     int
	cellsDone int
	grades    map[string]map[string]int // method -> grade -> count
	tables    map[string]string
	exp       *Experiment
	err       error

	// Result-store usage. storeEnabled is set at submission when the
	// client's store applies to this job; the counters tally released
	// cells (CellFinished.Cached) and therefore track live progress —
	// a fully warm job reaches storeHits == total with zero simulated.
	storeEnabled bool
	storeHits    int
	storeMisses  int
	// storeUsage is the harness's final store accounting (retries,
	// drops, degraded mode), available once the run finished.
	storeUsage StoreUsage

	// trace collects the job's per-cell span trees (nil when the job
	// was submitted with NoTrace) and feeds the client's phase
	// histograms; observer is the client's aggregator, whose
	// /metrics completion-rate window every released cell bumps,
	// traced or not. Both are internally synchronized.
	trace    *obs.JobTrace
	observer *obs.Observer

	// cellHook, when non-nil (tests only), sees the job's cells in one
	// order with every other job's: called with finished false in the
	// worker goroutine just before a cell is simulated
	// (harness.Config.CellHook), and with finished true as each cell's
	// event is released, before the run returns.
	cellHook func(job string, index int, finished bool)
}

// ID returns the job's client-assigned identifier.
func (j *Job) ID() string { return j.id }

// finished reports whether the job has published JobDone.
func (j *Job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Spec returns the spec exactly as submitted — zero/empty fields are
// not rewritten to their defaults (the normalized grid is what
// JobStarted and Snapshot report), and slice fields alias the
// caller's slices.
func (j *Job) Spec() ExperimentSpec { return j.spec }

// Cancel requests cooperative cancellation: workers stop within one
// simulation step batch, the event stream terminates with
// JobDone{Err: context.Canceled}, and Wait returns context.Canceled.
// Cancelling a finished job is a no-op.
func (j *Job) Cancel() { j.cancel() }

// Wait blocks until the job finishes (or ctx is cancelled, which does
// NOT cancel the job — use Cancel for that) and returns the final
// results. A cancelled job returns context.Canceled.
func (j *Job) Wait(ctx context.Context) (*Experiment, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.exp, j.err
}

// Events returns a channel that replays the job's full event history
// and then follows it live, closing after JobDone. Each call returns
// an independent subscription; the caller must drain the channel (use
// EventsContext to abandon one early).
func (j *Job) Events() <-chan Event {
	return j.EventsContext(context.Background())
}

// EventsContext is Events with a subscription lifetime: when ctx is
// cancelled the channel is closed early and the subscription's
// resources are released. Cancelling the subscription does not cancel
// the job.
func (j *Job) EventsContext(ctx context.Context) <-chan Event {
	out := make(chan Event, 16)
	go func() {
		defer close(out)
		i := 0
		for {
			j.mu.Lock()
			for i < len(j.events) {
				ev := j.events[i]
				i++
				j.mu.Unlock()
				select {
				case out <- ev:
				case <-ctx.Done():
					return
				}
				j.mu.Lock()
			}
			closed, update := j.closed, j.update
			j.mu.Unlock()
			if closed {
				return
			}
			select {
			case <-update:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// Snapshot reports the job's live state: progress counters and
// per-method grade tallies over the cells released so far (canonical
// order), plus the rendered tables once the job has succeeded.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:         j.id,
		State:      JobRunning,
		CellsDone:  j.cellsDone,
		TotalCells: j.total,
		Grades:     map[string]map[string]int{},
		Tables:     map[string]string{},
	}
	if j.closed {
		switch {
		case j.err == nil:
			s.State = JobSucceeded
		case errors.Is(j.err, context.Canceled):
			s.State = JobCanceled
		default:
			s.State = JobFailed
		}
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	for m, byGrade := range j.grades {
		cp := make(map[string]int, len(byGrade))
		for g, n := range byGrade {
			cp[g] = n
		}
		s.Grades[m] = cp
	}
	for name, text := range j.tables {
		s.Tables[name] = text
	}
	s.StoreHits = j.storeHits
	s.StoreMisses = j.storeMisses
	s.StorePutRetries = j.storeUsage.PutRetries
	s.StorePutDrops = j.storeUsage.PutDrops
	s.StoreDegraded = j.storeUsage.Degraded
	return s
}

// Snapshot is a point-in-time view of a job (see Job.Snapshot). Maps
// marshal with sorted keys, so equal snapshots serialize to equal
// bytes.
type Snapshot struct {
	ID         string                    `json:"id"`
	State      JobState                  `json:"state"`
	CellsDone  int                       `json:"cells_done"`
	TotalCells int                       `json:"total_cells"`
	Grades     map[string]map[string]int `json:"grades,omitempty"`
	Tables     map[string]string         `json:"tables,omitempty"`
	Error      string                    `json:"error,omitempty"`
	// StoreHits and StoreMisses count released cells replayed from
	// the client's result store versus simulated; both are zero (and
	// omitted) when the job ran without a store.
	StoreHits   int `json:"store_hits,omitempty"`
	StoreMisses int `json:"store_misses,omitempty"`
	// Store fault-tolerance accounting, populated when the run has
	// finished: write-backs retried, write-backs dropped after the
	// retry budget, and whether the run degraded to cache-bypass mode
	// because the store was unhealthy. A degraded job still succeeds
	// with the same results — these fields are how that shows up.
	StorePutRetries int  `json:"store_put_retries,omitempty"`
	StorePutDrops   int  `json:"store_put_drops,omitempty"`
	StoreDegraded   bool `json:"store_degraded,omitempty"`
}

// publish appends an event to the history and wakes subscribers.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	if cf, ok := ev.(CellFinished); ok {
		j.cellsDone++
		j.observer.CellDone(time.Now()) // nil-safe; feeds the /metrics sliding-window rate
		if j.storeEnabled {
			if cf.Cached {
				j.storeHits++
			} else {
				j.storeMisses++
			}
		}
		byGrade := j.grades[cf.Method]
		if byGrade == nil {
			byGrade = map[string]int{}
			j.grades[cf.Method] = byGrade
		}
		byGrade[cf.Outcome.Grade.String()]++
	}
	close(j.update)
	j.update = make(chan struct{})
	j.mu.Unlock()
}

// run executes the job; it owns the event stream end to end.
func (j *Job) run(ctx context.Context, hcfg harness.Config) {
	methods := make([]string, len(hcfg.Methods))
	for i, m := range hcfg.Methods {
		methods[i] = string(m)
	}
	j.publish(JobStarted{
		Job: j.id, Methods: methods, Problems: len(hcfg.Problems),
		Reps: hcfg.Reps, TotalCells: j.total,
	})

	if j.cellHook != nil {
		hcfg.CellHook = func(index int) { j.cellHook(j.id, index, false) }
	}
	hcfg.OnCell = func(ev harness.CellEvent) {
		if j.cellHook != nil {
			j.cellHook(j.id, ev.Index, true)
		}
		j.publish(CellFinished{
			Index: ev.Index, Method: string(ev.Method), Rep: ev.Rep,
			Problem: ev.Problem, Outcome: ev.Outcome, Duration: ev.Duration,
			Cached: ev.Cached,
		})
	}
	hcfg.OnGroup = func(m harness.Method, rep int) {
		j.publish(MethodRepDone{
			Method: string(m), Rep: rep, Reps: hcfg.Reps, Tasks: len(hcfg.Problems),
		})
	}

	res, err := harness.RunContext(ctx, hcfg)

	j.mu.Lock()
	if err == nil {
		j.exp = &Experiment{Results: res}
		j.tables["table1"] = j.exp.Table1()
		j.tables["table3"] = j.exp.Table3()
		j.storeUsage = res.Store
	}
	j.err = err
	exp := j.exp
	t1, t3 := j.tables["table1"], j.tables["table3"]
	hits, misses := j.storeHits, j.storeMisses
	usage := j.storeUsage
	j.mu.Unlock()

	if err == nil {
		j.publish(TableReady{Name: "table1", Text: t1})
		j.publish(TableReady{Name: "table3", Text: t3})
	}
	j.publish(JobDone{Results: exp, Err: err, StoreHits: hits, StoreMisses: misses, Store: usage})

	j.mu.Lock()
	j.closed = true
	close(j.update)
	j.update = make(chan struct{})
	j.mu.Unlock()
	close(j.done)
}
