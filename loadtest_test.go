package correctbench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

// loadJobResult is what one concurrent streaming job observed.
type loadJobResult struct {
	cells []int // cell indices in arrival order
	err   error
}

// streamLoadJob submits one streaming experiment and drains it,
// recording cell arrival order.
func streamLoadJob(base string, spec ExperimentSpec) loadJobResult {
	var res loadJobResult
	resp := func() *http.Response {
		r, err := postStream(base, spec)
		if err != nil {
			res.err = err
		}
		return r
	}()
	if res.err != nil {
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("submit status %s", resp.Status)
		return res
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	finished := false
	for sc.Scan() {
		ev, err := UnmarshalEvent(sc.Bytes())
		if err != nil {
			res.err = err
			return res
		}
		switch e := ev.(type) {
		case CellFinished:
			res.cells = append(res.cells, e.Index)
		case JobDone:
			if e.Err != nil {
				res.err = fmt.Errorf("job failed: %v", e.Err)
				return res
			}
			finished = true
		}
	}
	if err := sc.Err(); err != nil {
		res.err = err
		return res
	}
	if !finished {
		res.err = fmt.Errorf("stream ended without job_done")
	}
	return res
}

func postStream(base string, spec ExperimentSpec) (*http.Response, error) {
	raw, err := json.Marshal(struct {
		ExperimentSpec
		Stream bool `json:"stream"`
	}{spec, true})
	if err != nil {
		return nil, err
	}
	return http.Post(base+"/v1/experiments", "application/json", bytes.NewReader(raw))
}

// cellMark is one entry of the cell order recorded across jobs: a
// cell dispatched to a worker, or a cell whose event was released.
type cellMark struct {
	job      string
	index    int
	finished bool
}

// cellOrder records the cells of concurrent jobs as one sequence
// through the client's cell hook. Every dispatched cell is held in the
// hook until each of the jobs has dispatched its first cell (or the
// deadline passes), so how the goroutines that submit the jobs are
// scheduled cannot let one job finish before another's request reaches
// its pool: the order then depends only on the pools. A pool that
// cannot run every job's first cell at once (say, one that queues jobs
// behind each other) waits out the deadline and lets a job finish
// before the next job's first dispatch.
type cellOrder struct {
	jobs     int
	deadline time.Time

	mu      sync.Mutex
	marks   []cellMark
	started map[string]bool
	all     chan struct{} // closed once every job dispatched a cell
}

func newCellOrder(jobs int, wait time.Duration) *cellOrder {
	return &cellOrder{jobs: jobs, deadline: time.Now().Add(wait), started: map[string]bool{}, all: make(chan struct{})}
}

func (o *cellOrder) hook(job string, index int, finished bool) {
	o.mu.Lock()
	o.marks = append(o.marks, cellMark{job, index, finished})
	if !finished && !o.started[job] {
		o.started[job] = true
		if len(o.started) == o.jobs {
			close(o.all)
		}
	}
	o.mu.Unlock()
	if !finished {
		select {
		case <-o.all:
		case <-time.After(time.Until(o.deadline)):
		}
	}
}

// starved checks the recorded order: every job's first cell must be
// dispatched before any job's last cell completes (its event, the
// last of the job's cells in canonical order, is released right after
// the job's last cell finishes). It returns one message per violation.
func (o *cellOrder) starved(cellsPerJob int) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	first, last := map[string]int{}, map[string]int{}
	for pos, m := range o.marks {
		if _, ok := first[m.job]; !ok && !m.finished {
			first[m.job] = pos
		}
		if m.finished && m.index == cellsPerJob-1 {
			last[m.job] = pos
		}
	}
	if len(first) != o.jobs || len(last) != o.jobs {
		return []string{fmt.Sprintf("recorded %d jobs dispatching and %d completing, want %d each", len(first), len(last), o.jobs)}
	}
	doneJob, donePos := "", len(o.marks)
	for job, pos := range last {
		if pos < donePos {
			doneJob, donePos = job, pos
		}
	}
	var out []string
	for job, pos := range first {
		if pos > donePos {
			out = append(out, fmt.Sprintf("job %s starved: its first cell was dispatched at step %d of the cell order, after job %s's last cell completed at step %d",
				job, pos, doneJob, donePos))
		}
	}
	sort.Strings(out)
	return out
}

// TestLoadConcurrentStreamingJobs is the CI load harness: N concurrent
// streaming jobs against one server sharing one result store. Every
// job must receive exactly its own cells in canonical order
// (zero lost, zero duplicated, zero cross-talk), no job may starve
// while others finish, the shared store must end up holding every
// simulated cell, and a warm resubmit must replay entirely from it.
func TestLoadConcurrentStreamingJobs(t *testing.T) {
	const jobs = 4
	specFor := func(i int) ExperimentSpec {
		return ExperimentSpec{
			Seed: 101 + int64(i), Reps: 1, Workers: 4,
			Problems: []string{"halfadd", "dff"},
		}
	}
	const cellsPerJob = 2 * 3

	run := func(t *testing.T) {
		st := NewMemoryStore(0)
		c := NewClient(WithStore(st))
		order := newCellOrder(jobs, 10*time.Second)
		c.cellHook = order.hook
		ts := httptest.NewServer(NewServer(c))
		t.Cleanup(ts.Close)

		results := make([]loadJobResult, jobs)
		var wg sync.WaitGroup
		for i := 0; i < jobs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = streamLoadJob(ts.URL, specFor(i))
			}(i)
		}
		wg.Wait()

		for i, r := range results {
			if r.err != nil {
				t.Fatalf("job %d: %v", i, r.err)
			}
			if len(r.cells) != cellsPerJob {
				t.Fatalf("job %d received %d cells, want %d (lost or duplicated cells)", i, len(r.cells), cellsPerJob)
			}
			for j, idx := range r.cells {
				if idx != j {
					t.Fatalf("job %d cell %d has index %d: canonical order violated", i, j, idx)
				}
			}
		}
		// Fairness: concurrent jobs make progress together instead of
		// queueing behind each other. This is an order, not a time, so
		// it holds whatever the machine's load.
		for _, msg := range order.starved(cellsPerJob) {
			t.Error(msg)
		}

		// Zero lost cells, store-side: distinct seeds mean distinct cell
		// keys, so the shared store must hold every simulated cell.
		stats := st.Stats()
		if want := uint64(jobs * cellsPerJob); stats.Puts != want || stats.Entries != jobs*cellsPerJob {
			t.Errorf("store holds %d entries after %d puts, want %d/%d", stats.Entries, stats.Puts, jobs*cellsPerJob, want)
		}

		// Resume-by-spec: a warm resubmit replays every cell.
		job, _, _ := drainJob(t, c, specFor(0))
		if snap := job.Snapshot(); snap.StoreHits != cellsPerJob || snap.StoreMisses != 0 {
			t.Errorf("warm resubmit: hits=%d misses=%d, want %d/0", snap.StoreHits, snap.StoreMisses, cellsPerJob)
		}
	}

	t.Run("local-pool", run)
}
