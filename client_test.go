package correctbench

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

var testProblems = []string{"mux2_w4", "cnt4", "halfadd", "dff"}

func TestSubmitSpecErrors(t *testing.T) {
	c := NewClient()
	ctx := context.Background()
	cases := []struct {
		name string
		spec ExperimentSpec
	}{
		{"unknown llm", ExperimentSpec{LLM: "gpt-9"}},
		{"unknown criterion", ExperimentSpec{Criterion: "99%-wrong"}},
		{"unknown problem", ExperimentSpec{Problems: []string{"nonexistent"}}},
		{"unknown method", ExperimentSpec{Methods: []string{"GuessBench"}}},
		{"negative budget", ExperimentSpec{MaxReboots: Int(-1)}},
		{"zero rtl group", ExperimentSpec{RTLGroupSize: Int(0)}},
		// Out-of-range work: each of these once ran the process out of
		// memory or would run for days.
		{"reps 2^40", ExperimentSpec{Reps: 1 << 40, Problems: []string{"halfadd"}}},
		{"reps over cap", ExperimentSpec{Reps: maxReps + 1, Problems: []string{"halfadd"}}},
		{"rtl group over cap", ExperimentSpec{RTLGroupSize: Int(maxRTLGroupSize + 1)}},
		{"corrections over cap", ExperimentSpec{MaxCorrections: Int(maxCorrectionsCap + 1)}},
		{"reboots over cap", ExperimentSpec{MaxReboots: Int(maxRebootsCap + 1)}},
		{"too many problems", ExperimentSpec{Problems: append(allProblemNames(), "halfadd")}},
	}
	for _, tc := range cases {
		if _, err := c.Submit(ctx, tc.spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if len(c.Jobs()) != 0 {
		t.Errorf("failed submissions registered jobs: %d", len(c.Jobs()))
	}
}

// TestSpecLimitsAdmitTheirBounds resolves specs at every work bound:
// the caps themselves are legal.
func TestSpecLimitsAdmitTheirBounds(t *testing.T) {
	hcfg, err := ExperimentSpec{
		Reps: maxReps, Problems: allProblemNames(), RTLGroupSize: Int(maxRTLGroupSize),
		MaxCorrections: Int(maxCorrectionsCap), MaxReboots: Int(maxRebootsCap),
	}.resolve()
	if err != nil {
		t.Fatalf("experiment spec at the caps: %v", err)
	}
	if hcfg.Reps != maxReps || len(hcfg.Problems) != len(allProblemNames()) {
		t.Errorf("resolved reps %d, %d problems", hcfg.Reps, len(hcfg.Problems))
	}
	opt, err := TaskSpec{RTLGroupSize: Int(maxRTLGroupSize), MaxCorrections: Int(maxCorrectionsCap), MaxReboots: Int(maxRebootsCap)}.resolve()
	if err != nil {
		t.Fatalf("task spec at the caps: %v", err)
	}
	if opt.NR != maxRTLGroupSize || opt.MaxCorrections != maxCorrectionsCap || opt.MaxReboots != maxRebootsCap {
		t.Errorf("resolved task options %+v", opt)
	}
}

func TestSubmitPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewClient().Submit(ctx, ExperimentSpec{Problems: testProblems})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTaskSpecErrors(t *testing.T) {
	c := NewClient()
	ctx := context.Background()
	if _, err := c.GenerateTestbench(ctx, "adder4", TaskSpec{LLM: "gpt-9"}); err == nil {
		t.Error("bad LLM accepted")
	}
	if _, err := c.GenerateTestbench(ctx, "adder4", TaskSpec{Criterion: "99%-wrong"}); err == nil {
		t.Error("bad criterion accepted")
	}
	if _, err := c.GenerateTestbench(ctx, "nonexistent", TaskSpec{}); err == nil {
		t.Error("bad problem accepted")
	}
	if _, err := c.GenerateTestbench(ctx, "adder4", TaskSpec{RTLGroupSize: Int(0)}); err == nil {
		t.Error("zero RTL group accepted")
	}
	for _, spec := range []TaskSpec{
		{RTLGroupSize: Int(maxRTLGroupSize + 1)},
		{RTLGroupSize: Int(1 << 40)},
		{MaxCorrections: Int(maxCorrectionsCap + 1)},
		{MaxReboots: Int(maxRebootsCap + 1)},
	} {
		if _, err := c.GenerateTestbench(ctx, "adder4", spec); err == nil {
			t.Errorf("over-cap task spec %+v accepted", spec)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.GenerateTestbench(cancelled, "adder4", TaskSpec{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled generate err = %v, want context.Canceled", err)
	}
}

// TestJobCancelMidRun is the tentpole's cancellation guarantee: a
// mid-run Cancel stops the workers promptly and Wait returns
// context.Canceled.
func TestJobCancelMidRun(t *testing.T) {
	c := NewClient()
	job, err := c.Submit(context.Background(), ExperimentSpec{
		Seed: 5, Reps: 20, Problems: testProblems, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel as soon as the first cell lands — with 240 cells pending
	// the job cannot have finished.
	events := job.Events()
	for ev := range events {
		if _, ok := ev.(CellFinished); ok {
			job.Cancel()
			break
		}
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err = job.Wait(waitCtx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	t.Logf("cancel propagated in %v", time.Since(start))
	// The remaining events must drain and terminate with JobDone.
	var last Event
	for ev := range events {
		last = ev
	}
	done, ok := last.(JobDone)
	if !ok {
		t.Fatalf("stream ended with %T, want JobDone", last)
	}
	if !errors.Is(done.Err, context.Canceled) {
		t.Errorf("JobDone.Err = %v, want context.Canceled", done.Err)
	}
	if s := job.Snapshot(); s.State != JobCanceled {
		t.Errorf("state = %s, want %s", s.State, JobCanceled)
	}
}

// collectEvents runs a job to completion and returns its full event
// history.
func collectEvents(t *testing.T, workers int) []Event {
	t.Helper()
	job, err := NewClient().Submit(context.Background(), ExperimentSpec{
		Seed: 9, Reps: 2, Problems: testProblems, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	for ev := range job.Events() {
		out = append(out, ev)
	}
	return out
}

// TestEventStreamDeterminism asserts the tentpole's reproducibility
// guarantee: Workers:1 and Workers:8 stream byte-identical event
// sequences (Duration, wall clock, is the only exempt field and is
// zeroed before marshaling).
func TestEventStreamDeterminism(t *testing.T) {
	marshalAll := func(events []Event) []byte {
		var buf bytes.Buffer
		for _, ev := range events {
			if cf, ok := ev.(CellFinished); ok {
				cf.Duration = 0
				ev = cf
			}
			if js, ok := ev.(JobStarted); ok {
				js.Job = "" // IDs are per-client, not part of the determinism contract
				ev = js
			}
			line, err := MarshalEvent(ev)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	seq := marshalAll(collectEvents(t, 1))
	par := marshalAll(collectEvents(t, 8))
	if !bytes.Equal(seq, par) {
		t.Fatalf("event streams differ between Workers:1 and Workers:8:\n--- w1 ---\n%s\n--- w8 ---\n%s", seq, par)
	}
	// Sanity: the stream has the full shape.
	events := collectEvents(t, 8)
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Type()]++
	}
	want := map[string]int{
		"job_started": 1, "cell_finished": 3 * 2 * len(testProblems),
		"method_rep_done": 3 * 2, "table_ready": 2, "job_done": 1,
	}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("event counts = %v, want %v", counts, want)
	}
	// Cells arrive in canonical index order.
	idx := 0
	for _, ev := range events {
		if cf, ok := ev.(CellFinished); ok {
			if cf.Index != idx {
				t.Fatalf("cell index %d out of order (want %d)", cf.Index, idx)
			}
			idx++
		}
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	job, err := NewClient().Submit(context.Background(), ExperimentSpec{
		Seed: 2, Reps: 1, Problems: []string{"halfadd", "dff"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := job.Snapshot()
	if s.State != JobSucceeded {
		t.Errorf("state = %s", s.State)
	}
	if s.CellsDone != s.TotalCells || s.TotalCells != 6 {
		t.Errorf("cells = %d/%d, want 6/6", s.CellsDone, s.TotalCells)
	}
	if s.Tables["table1"] == "" {
		t.Error("snapshot missing table1")
	}
	total := 0
	for _, byGrade := range s.Grades {
		for _, n := range byGrade {
			total += n
		}
	}
	if total != 6 {
		t.Errorf("grade tally = %d, want 6", total)
	}
}

// TestExplicitZeroBudgets exercises the pointer-valued budgets: an
// explicit zero disables corrections/reboots, distinct from an unset
// field, which keeps the paper default.
func TestExplicitZeroBudgets(t *testing.T) {
	opt, err := TaskSpec{MaxCorrections: Int(0), MaxReboots: Int(0)}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if opt.MaxCorrections != 0 || opt.MaxReboots != 0 {
		t.Fatalf("explicit zeros not honored: %d/%d", opt.MaxCorrections, opt.MaxReboots)
	}
	unset, err := TaskSpec{}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if unset.MaxCorrections != 3 || unset.MaxReboots != 10 || unset.NR != 20 {
		t.Fatalf("unset budgets must keep paper defaults, got %d/%d/%d",
			unset.MaxCorrections, unset.MaxReboots, unset.NR)
	}

	// A no-correction, no-reboot run can never correct or reboot.
	res, err := NewClient().GenerateTestbench(context.Background(), "cnt8", TaskSpec{
		Seed: 3, MaxCorrections: Int(0), MaxReboots: Int(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrections != 0 || res.Reboots != 0 {
		t.Errorf("ablation run acted anyway: corrections=%d reboots=%d", res.Corrections, res.Reboots)
	}
}

// TestRetentionCaps checks that a long-lived client stays bounded:
// old finished jobs and old evaluator seeds are evicted, while
// running jobs are never dropped.
func TestRetentionCaps(t *testing.T) {
	c := NewClient()
	mkJob := func(id string, finished bool) *Job {
		j := &Job{id: id, done: make(chan struct{}), update: make(chan struct{})}
		if finished {
			close(j.done)
		}
		return j
	}
	running := mkJob("exp-running", false)
	c.jobs[running.id] = running
	c.order = append(c.order, running.id)
	for i := 0; i < maxRetainedJobs+10; i++ {
		id := string(rune('a'+i%26)) + string(rune('0'+i/26))
		c.jobs[id] = mkJob(id, true)
		c.order = append(c.order, id)
		c.pruneJobsLocked()
	}
	if len(c.order) != maxRetainedJobs || len(c.jobs) != maxRetainedJobs {
		t.Errorf("retained %d/%d jobs, want %d", len(c.order), len(c.jobs), maxRetainedJobs)
	}
	if c.Job("exp-running") == nil {
		t.Error("running job was evicted")
	}

	for seed := int64(0); seed < int64(maxRetainedEvaluators)+5; seed++ {
		c.evaluator(seed)
	}
	if len(c.evals) != maxRetainedEvaluators {
		t.Errorf("retained %d evaluators, want %d", len(c.evals), maxRetainedEvaluators)
	}
	// Re-requesting a seed yields the same instance while cached.
	e := c.evaluator(99)
	if c.evaluator(99) != e {
		t.Error("evaluator cache not reused")
	}
}

// TestNameListsStableOrder pins the documented orderings and their
// round trips, the byte-stability contract of GET /v1/llms and
// /v1/criteria.
func TestNameListsStableOrder(t *testing.T) {
	wantLLMs := []string{"gpt-4o", "claude-3.5-sonnet", "gpt-4o-mini"}
	if got := LLMNames(); !reflect.DeepEqual(got, wantLLMs) {
		t.Errorf("LLMNames() = %v, want %v", got, wantLLMs)
	}
	wantCrit := []string{"100%-wrong", "70%-wrong", "50%-wrong"}
	if got := CriterionNames(); !reflect.DeepEqual(got, wantCrit) {
		t.Errorf("CriterionNames() = %v, want %v", got, wantCrit)
	}
	// Round trip: every listed name resolves.
	for _, name := range LLMNames() {
		if _, err := (TaskSpec{LLM: name}).resolve(); err != nil {
			t.Errorf("LLM %q does not round-trip: %v", name, err)
		}
	}
	for _, name := range CriterionNames() {
		if _, err := (TaskSpec{Criterion: name}).resolve(); err != nil {
			t.Errorf("criterion %q does not round-trip: %v", name, err)
		}
	}
}

// TestEventWireRoundTrip checks MarshalEvent/UnmarshalEvent are
// inverses for every event type.
func TestEventWireRoundTrip(t *testing.T) {
	events := []Event{
		JobStarted{Job: "exp-1", Methods: []string{"CorrectBench"}, Problems: 4, Reps: 2, TotalCells: 8},
		CellFinished{Index: 3, Method: "AutoBench", Rep: 1, Problem: "cnt8",
			Outcome: TaskOutcome{Problem: "cnt8", Grade: Eval2, TokensIn: 10, TokensOut: 5}, Duration: 2 * time.Millisecond},
		MethodRepDone{Method: "Baseline", Rep: 0, Reps: 2, Tasks: 4},
		TableReady{Name: "table1", Text: "...table..."},
		JobDone{},
	}
	for _, ev := range events {
		line, err := MarshalEvent(ev)
		if err != nil {
			t.Fatalf("%T: %v", ev, err)
		}
		back, err := UnmarshalEvent(line)
		if err != nil {
			t.Fatalf("%T: %v", ev, err)
		}
		if back.Type() != ev.Type() {
			t.Errorf("round trip changed type: %s -> %s", ev.Type(), back.Type())
		}
		line2, err := MarshalEvent(back)
		if err != nil {
			t.Fatalf("%T re-marshal: %v", back, err)
		}
		if !bytes.Equal(line, line2) {
			t.Errorf("%T: wire form not stable:\n%s\n%s", ev, line, line2)
		}
	}
	// Outcome fields survive (Problem/Kind of the outcome are carried
	// by the event envelope, not the wire outcome).
	back, err := UnmarshalEvent([]byte(`{"type":"cell_finished","index":1,"method":"AutoBench","rep":0,"problem":"cnt8","duration_ms":1.5,"outcome":{"grade":"Eval1","kind":"CMB","tokens_in":7,"tokens_out":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	cf := back.(CellFinished)
	if cf.Outcome.Grade != Eval1 || cf.Outcome.TokensIn != 7 {
		t.Errorf("outcome lost in round trip: %+v", cf.Outcome)
	}
}

// allProblemNames lists every dataset problem by name.
func allProblemNames() []string {
	var names []string
	for _, p := range Problems() {
		names = append(names, p.Name)
	}
	return names
}
