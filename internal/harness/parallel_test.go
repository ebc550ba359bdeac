package harness

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"correctbench/internal/dataset"
)

// TestParallelMatchesSequential is the harness's core reproducibility
// guarantee: a worker pool of any size produces bit-for-bit the
// results of a sequential run, including the formatted tables and the
// progress text.
func TestParallelMatchesSequential(t *testing.T) {
	probs := subset(t)
	run := func(workers int) (*Results, string) {
		var progress bytes.Buffer
		res, err := RunContext(context.Background(), Config{
			Reps: 2, Seed: 33, Problems: probs, Workers: workers,
			OnGroup: func(method Method, rep int) {
				fmt.Fprintf(&progress, "%s rep %d/%d done (%d tasks)\n", method, rep+1, 2, len(probs))
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, progress.String()
	}
	seqRes, seqProg := run(1)
	for _, workers := range []int{2, 8} {
		parRes, parProg := run(workers)
		if !reflect.DeepEqual(seqRes.Outcomes, parRes.Outcomes) {
			t.Errorf("workers=%d: outcomes differ from sequential run", workers)
		}
		if got, want := parRes.Table1(), seqRes.Table1(); got != want {
			t.Errorf("workers=%d: Table1 differs:\n%s\n---\n%s", workers, got, want)
		}
		if got, want := parRes.Table3(), seqRes.Table3(); got != want {
			t.Errorf("workers=%d: Table3 differs", workers)
		}
		if parProg != seqProg {
			t.Errorf("workers=%d: progress text differs:\n%q\n---\n%q", workers, parProg, seqProg)
		}
	}
}

// TestCellStreamIndependence checks that a cell's stream does not
// depend on which other cells exist: restricting the problem set must
// reproduce the surviving cells exactly.
func TestCellStreamIndependence(t *testing.T) {
	probs := subset(t)
	full, err := RunContext(context.Background(), Config{Reps: 1, Seed: 55, Problems: probs, Methods: []Method{MethodAutoBench}})
	if err != nil {
		t.Fatal(err)
	}
	part, err := RunContext(context.Background(), Config{Reps: 1, Seed: 55, Problems: probs[3:], Methods: []Method{MethodAutoBench}})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range part.Outcomes[MethodAutoBench][0] {
		want := full.Outcomes[MethodAutoBench][0][3+i]
		if !reflect.DeepEqual(o, want) {
			t.Errorf("task %s: outcome changed when run in a smaller set", o.Problem)
		}
	}
}

// TestMethodStreamsDiffer guards the fixed seed-mixing bug: the old
// int64(len(method))*104729 term gave every same-length method name
// the same stream.
func TestMethodStreamsDiffer(t *testing.T) {
	a := CellStream(1, Method("AAAA"), 0, "cnt8")
	b := CellStream(1, Method("BBBB"), 0, "cnt8")
	if a.Seed() == b.Seed() {
		t.Fatal("same-length method names derive identical streams")
	}
}

// TestParallelFirstErrorIsDeterministic checks that the error
// reported by a parallel run is the canonically earliest one — what a
// sequential run would hit first.
func TestParallelFirstErrorIsDeterministic(t *testing.T) {
	// An unelaboratable problem makes every cell that touches it fail.
	bad := func(name string) *dataset.Problem {
		return &dataset.Problem{
			Name: name, Kind: dataset.CMB, Spec: "broken",
			Source: "module " + name + "(input a, output b); endmodule garbage",
			Top:    name, Difficulty: 1,
		}
	}
	probs := append(subset(t), bad("zz_bad1"), bad("zz_bad2"))
	var firstMsg string
	for _, workers := range []int{1, 4} {
		_, err := RunContext(context.Background(), Config{Reps: 1, Seed: 3, Problems: probs, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		if !strings.Contains(err.Error(), "zz_bad1") {
			t.Errorf("workers=%d: error is not the canonically first one: %v", workers, err)
		}
		if firstMsg == "" {
			firstMsg = err.Error()
		} else if err.Error() != firstMsg {
			t.Errorf("workers=%d: error %q differs from sequential %q", workers, err.Error(), firstMsg)
		}
	}
}

// TestCriteriaAccuracyParallelMatchesSequential pins the corpus-study
// variant of the same guarantee.
func TestCriteriaAccuracyParallelMatchesSequential(t *testing.T) {
	probs := subset(t)
	run := func(workers int) []CriterionAccuracy {
		rows, err := CriteriaAccuracyContext(context.Background(), CriteriaAccuracyConfig{
			PerTask: 2, NR: 10, Seed: 19, Problems: probs, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows
	}
	seq := run(1)
	for _, workers := range []int{3, 8} {
		if par := run(workers); !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: accuracy rows differ from sequential run", workers)
		}
	}
}
