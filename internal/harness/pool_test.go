package harness

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"correctbench/internal/dataset"
)

// badProblem is an unelaboratable problem: every cell that touches it
// fails.
func badProblem(name string) *dataset.Problem {
	return &dataset.Problem{
		Name: name, Kind: dataset.CMB, Spec: "broken",
		Source: "module " + name + "(input a, output b); endmodule garbage",
		Top:    name, Difficulty: 1,
	}
}

// TestPoolCompletesAllCells checks that the cell pool simulates every
// cell exactly once at any worker count, including one larger than the
// grid: each canonical index is released once and every outcome slot
// is filled.
func TestPoolCompletesAllCells(t *testing.T) {
	probs := subset(t)[:3]
	total := len(AllMethods()) * len(probs)
	for _, workers := range []int{1, 8, 64} {
		seen := map[int]int{}
		var mu sync.Mutex
		res, err := RunContext(context.Background(), Config{
			Reps: 1, Seed: 13, Problems: probs, Workers: workers,
			OnCell: func(ev CellEvent) {
				mu.Lock()
				seen[ev.Index]++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != total {
			t.Errorf("workers=%d: released %d distinct cells, want %d", workers, len(seen), total)
		}
		for idx, n := range seen {
			if idx < 0 || idx >= total || n != 1 {
				t.Errorf("workers=%d: cell %d released %d times", workers, idx, n)
			}
		}
		for _, m := range AllMethods() {
			for pi, o := range res.Outcomes[m][0] {
				if o.Problem != probs[pi].Name {
					t.Errorf("workers=%d: %s slot %d holds %q, want %q", workers, m, pi, o.Problem, probs[pi].Name)
				}
			}
		}
	}
}

// TestPoolCellEvents pins the pool's release contract: OnCell events
// arrive in canonical index order and, apart from the wall-clock
// Duration, equal the sequential run's events, as do the Results.
func TestPoolCellEvents(t *testing.T) {
	probs := subset(t)[:4]
	run := func(t *testing.T, workers int) (*Results, []CellEvent) {
		t.Helper()
		var events []CellEvent
		var mu sync.Mutex
		res, err := RunContext(context.Background(), Config{
			Reps: 1, Seed: 29, Problems: probs, Workers: workers,
			OnCell: func(ev CellEvent) {
				ev.Duration = 0
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, events
	}

	baseRes, baseEvents := run(t, 1)
	if total := len(AllMethods()) * len(probs); len(baseEvents) != total {
		t.Fatalf("sequential run released %d cells, want %d", len(baseEvents), total)
	}
	for _, workers := range []int{2, 4, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res, events := run(t, workers)
			if len(events) != len(baseEvents) {
				t.Fatalf("released %d cells, want %d", len(events), len(baseEvents))
			}
			for i, ev := range events {
				if ev.Index != i {
					t.Fatalf("event %d has index %d: canonical order violated", i, ev.Index)
				}
				if !reflect.DeepEqual(ev, baseEvents[i]) {
					t.Fatalf("cell %d differs from sequential run:\n got %+v\nwant %+v", i, ev, baseEvents[i])
				}
			}
			if !reflect.DeepEqual(res.Outcomes, baseRes.Outcomes) {
				t.Fatal("Results.Outcomes differ from sequential run")
			}
		})
	}
}

// TestPoolReportsEarliestError makes later cells fail first — lower
// indices sleep longer, so zz_bad2's cell fails before zz_bad1's — and
// requires the pool to report the canonically earliest error anyway,
// the one a sequential run hits first.
func TestPoolReportsEarliestError(t *testing.T) {
	probs := append(subset(t)[:2], badProblem("zz_bad1"), badProblem("zz_bad2"))
	total := len(AllMethods()) * len(probs)
	_, seqErr := RunContext(context.Background(), Config{Reps: 1, Seed: 3, Problems: probs, Workers: 1})
	if seqErr == nil {
		t.Fatal("sequential run: expected an error")
	}
	_, err := RunContext(context.Background(), Config{
		Reps: 1, Seed: 3, Problems: probs, Workers: 8,
		CellHook: func(i int) { time.Sleep(time.Duration(total-i) * 2 * time.Millisecond) },
	})
	if err == nil || !strings.Contains(err.Error(), "zz_bad1") {
		t.Fatalf("want the canonically earliest error (zz_bad1), got %v", err)
	}
	if err.Error() != seqErr.Error() {
		t.Errorf("error %q differs from sequential %q", err.Error(), seqErr.Error())
	}
}

// TestPoolCancellation checks that cancellation wins over cell errors:
// a context cancelled before the run, or by the first simulated cell,
// ends the run with context.Canceled itself.
func TestPoolCancellation(t *testing.T) {
	probs := append(subset(t)[:2], badProblem("zz_bad1"))
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(pre, Config{Reps: 1, Seed: 3, Problems: probs, Workers: 8}); err != context.Canceled {
		t.Errorf("pre-cancelled run: want context.Canceled, got %v", err)
	}
	mid, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	_, err := RunContext(mid, Config{
		Reps: 1, Seed: 3, Problems: probs, Workers: 2, CellHook: func(int) { cancelMid() },
	})
	if err != context.Canceled {
		t.Errorf("run cancelled by its first cell: want context.Canceled, got %v", err)
	}
}
