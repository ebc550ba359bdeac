package correctbench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// loadJobResult is what one concurrent streaming job observed.
type loadJobResult struct {
	cells []int // cell indices in arrival order
	// started is when the job's first cell began executing: its
	// arrival minus its reported execution time. Canonical cell 0 is
	// released as soon as it finishes, so this is the moment the job
	// started running, free of how much work its seed carries.
	started time.Time
	done    time.Time
	err     error
}

// streamLoadJob submits one streaming experiment and drains it,
// recording cell arrival order and timing.
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
			if len(res.cells) == 0 {
				res.started = time.Now().Add(-e.Duration)
			}
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
		return res
	}
	res.done = time.Now()
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
		ts := httptest.NewServer(NewServer(c))
		t.Cleanup(ts.Close)

		start := time.Now()
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

		var earliestDone, latestDone time.Time
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
			if earliestDone.IsZero() || r.done.Before(earliestDone) {
				earliestDone = r.done
			}
			if r.done.After(latestDone) {
				latestDone = r.done
			}
		}
		// Fairness: every job must have started running its first cell
		// by the time the fastest job finished (with a quarter-of-the-run
		// slack for per-seed fixture warm-up) — concurrent jobs make
		// progress together instead of queueing behind each other.
		// Comparing start times, not first-cell arrivals, keeps a seed
		// whose cell 0 is slow from reading as starved. Serialized
		// execution puts the last job's start far past this bound.
		slack := latestDone.Sub(start) / 4
		for i, r := range results {
			if r.started.After(earliestDone.Add(slack)) {
				t.Errorf("job %d starved: first cell started at %v, but another job had fully finished by %v",
					i, r.started.Sub(start), earliestDone.Sub(start))
			}
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
