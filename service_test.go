package correctbench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	c := NewClient()
	ts := httptest.NewServer(NewServer(c))
	t.Cleanup(ts.Close)
	return ts, c
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServiceSmoke is the end-to-end service check the CI smoke job
// runs: submit a 2-problem experiment over HTTP, stream its NDJSON
// events to completion, and assert the streamed Table I matches the
// in-process run of the same spec.
func TestServiceSmoke(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := ExperimentSpec{Seed: 11, Reps: 1, Problems: []string{"adder4", "dff"}}

	resp := postJSON(t, ts.URL+"/v1/experiments", struct {
		ExperimentSpec
		Stream bool `json:"stream"`
	}{spec, true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}

	var (
		table string
		cells int
		done  bool
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		ev, err := UnmarshalEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		switch e := ev.(type) {
		case CellFinished:
			cells++
		case TableReady:
			if e.Name == "table1" {
				table = e.Text
			}
		case JobDone:
			if e.Err != nil {
				t.Fatalf("job failed: %v", e.Err)
			}
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done || cells != 6 {
		t.Fatalf("stream incomplete: done=%v cells=%d", done, cells)
	}

	job, err := NewClient().Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if table != exp.Table1() {
		t.Errorf("streamed Table I differs from in-process run:\n%s\n---\n%s", table, exp.Table1())
	}
	if !strings.Contains(table, "CorrectBench") {
		t.Errorf("table snippet missing methods:\n%s", table)
	}
}

func TestServiceSubmitSnapshotAndEvents(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/experiments", ExperimentSpec{
		Seed: 3, Reps: 1, Problems: []string{"halfadd"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %s", resp.Status)
	}
	var sub struct {
		ID         string `json:"id"`
		TotalCells int    `json:"total_cells"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.ID == "" || sub.TotalCells != 3 {
		t.Fatalf("submit response %+v", sub)
	}

	// The detached events stream replays history and follows to done.
	eresp, err := http.Get(ts.URL + "/v1/experiments/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	var done bool
	sc := bufio.NewScanner(eresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		ev, err := UnmarshalEvent(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if jd, ok := ev.(JobDone); ok {
			if jd.Err != nil {
				t.Fatalf("job failed: %v", jd.Err)
			}
			done = true
		}
	}
	if !done {
		t.Fatal("events stream ended without job_done")
	}

	sresp, err := http.Get(ts.URL + "/v1/experiments/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != JobSucceeded || snap.CellsDone != 3 {
		t.Errorf("snapshot %+v", snap)
	}
	if snap.Tables["table1"] == "" {
		t.Error("snapshot missing table1")
	}

	if r, err := http.Get(ts.URL + "/v1/experiments/nope"); err != nil || r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: %v %v", r.Status, err)
	}
}

func TestServiceCancel(t *testing.T) {
	ts, c := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/experiments", ExperimentSpec{
		Seed: 5, Reps: 20, Problems: testProblems, Workers: 2,
	})
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/experiments/"+sub.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status = %s", dresp.Status)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Job(sub.ID).Wait(waitCtx); err == nil {
		t.Fatal("cancelled job completed successfully")
	}
	if s := c.Job(sub.ID).Snapshot(); s.State != JobCanceled {
		t.Errorf("state = %s, want canceled", s.State)
	}
}

// TestServiceStreamDisconnectCancelsJob asserts the acceptance
// criterion that a streaming submitter's disconnect stops the
// workers: the job's lifetime is bound to the request context.
func TestServiceStreamDisconnectCancelsJob(t *testing.T) {
	ts, c := newTestServer(t)
	raw, _ := json.Marshal(struct {
		ExperimentSpec
		Stream bool `json:"stream"`
	}{ExperimentSpec{Seed: 7, Reps: 20, Problems: testProblems, Workers: 2}, true})
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Read a single event so the job is provably running, then drop
	// the connection.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	jobs := c.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := jobs[0].Wait(waitCtx); err == nil {
		t.Fatal("job survived client disconnect")
	}
	if s := jobs[0].Snapshot(); s.State != JobCanceled {
		t.Errorf("state = %s, want canceled", s.State)
	}
}

func TestServiceLists(t *testing.T) {
	ts, _ := newTestServer(t)
	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var problems []struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(get("/v1/problems"), &problems); err != nil {
		t.Fatal(err)
	}
	if len(problems) != 156 {
		t.Errorf("problems = %d", len(problems))
	}
	// Responses are byte-stable (the caching contract).
	if a, b := get("/v1/problems"), get("/v1/problems"); !bytes.Equal(a, b) {
		t.Error("/v1/problems is not byte-stable")
	}
	var llms, criteria []string
	if err := json.Unmarshal(get("/v1/llms"), &llms); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(get("/v1/criteria"), &criteria); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(llms) != fmt.Sprint(LLMNames()) || fmt.Sprint(criteria) != fmt.Sprint(CriterionNames()) {
		t.Errorf("lists differ from facade: %v %v", llms, criteria)
	}
}

func TestServiceGrade(t *testing.T) {
	ts, _ := newTestServer(t)

	// Generate-and-grade path.
	resp := postJSON(t, ts.URL+"/v1/grade", map[string]any{"problem": "adder4", "seed": 1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	var gr struct {
		Grade     string `json:"grade"`
		Generated bool   `json:"generated"`
		Scenarios int    `json:"scenarios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	if !gr.Generated || gr.Scenarios == 0 || gr.Grade == "Failed" {
		t.Errorf("grade response %+v", gr)
	}

	// Explicit-testbench path: the golden checker with a tiny stimulus
	// set parses and passes the golden RTL (Eval1+).
	resp2 := postJSON(t, ts.URL+"/v1/grade", map[string]any{
		"problem": "halfadd",
		"seed":    1,
		"testbench": map[string]any{
			"checker_source": ProblemByName("halfadd").Source,
			"scenarios": []map[string]any{
				{"name": "s1", "steps": []map[string]uint64{
					{"a": 0, "b": 0}, {"a": 1, "b": 1}, {"a": 1, "b": 0},
				}},
			},
		},
	})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp2.Status)
	}
	var gr2 struct {
		Grade     string `json:"grade"`
		Generated bool   `json:"generated"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&gr2); err != nil {
		t.Fatal(err)
	}
	if gr2.Generated {
		t.Error("explicit testbench reported as generated")
	}
	if gr2.Grade != "Eval1" && gr2.Grade != "Eval2" {
		t.Errorf("golden-checker testbench graded %s", gr2.Grade)
	}

	// Error paths.
	if r := postJSON(t, ts.URL+"/v1/grade", map[string]any{"problem": "nope"}); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown problem: %s", r.Status)
	}
	if r := postJSON(t, ts.URL+"/v1/grade", map[string]any{"problem": "adder4", "llm": "gpt-9"}); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad task spec: %s", r.Status)
	}
	if r := postJSON(t, ts.URL+"/v1/experiments", map[string]any{"llm": "gpt-9"}); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown llm: %s", r.Status)
	}
}

// TestServiceRejectsOutOfRangeWork sends specs over the per-request
// work bounds to both endpoints: each is a 400 spec error, answered
// before any job or grade runs, and the server keeps serving.
func TestServiceRejectsOutOfRangeWork(t *testing.T) {
	ts, c := newTestServer(t)
	for _, body := range []map[string]any{
		{"seed": 1, "reps": 1 << 40, "problems": []string{"halfadd"}},
		{"seed": 1, "reps": maxReps + 1, "problems": []string{"halfadd"}},
		{"seed": 1, "rtl_group_size": maxRTLGroupSize + 1},
		{"seed": 1, "max_corrections": maxCorrectionsCap + 1},
		{"seed": 1, "max_reboots": maxRebootsCap + 1},
		{"seed": 1, "problems": append(allProblemNames(), "halfadd")},
	} {
		r := postJSON(t, ts.URL+"/v1/experiments", body)
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %v: %s, want 400", body, r.Status)
		}
	}
	for _, body := range []map[string]any{
		{"problem": "adder4", "rtl_group_size": 1 << 40},
		{"problem": "adder4", "max_corrections": maxCorrectionsCap + 1},
		{"problem": "adder4", "max_reboots": maxRebootsCap + 1},
	} {
		r := postJSON(t, ts.URL+"/v1/grade", body)
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("grade %v: %s, want 400", body, r.Status)
		}
	}
	if n := len(c.Jobs()); n != 0 {
		t.Errorf("rejected submits registered %d jobs", n)
	}
	r := postJSON(t, ts.URL+"/v1/grade", map[string]any{"problem": "halfadd", "seed": 1})
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("grade after the rejections: %s", r.Status)
	}
}

// TestServiceStoreStats covers GET /v1/store/stats and the snapshot
// counters on a store-backed server: 404 without a store, live
// counters with one, and resume-by-spec visible as a fully warm
// resubmit.
func TestServiceStoreStats(t *testing.T) {
	// Without a store the endpoint 404s.
	plain, _ := newTestServer(t)
	resp, err := http.Get(plain.URL + "/v1/store/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("no-store stats status = %s, want 404", resp.Status)
	}

	c := NewClient(WithStore(NewMemoryStore(0)))
	ts := httptest.NewServer(NewServer(c))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { c.Close(context.Background()) })

	submit := func() Snapshot {
		resp := postJSON(t, ts.URL+"/v1/experiments", ExperimentSpec{
			Seed: 3, Reps: 1, Problems: []string{"halfadd", "dff"},
		})
		defer resp.Body.Close()
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Job(sub.ID).Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		sresp, err := http.Get(ts.URL + "/v1/experiments/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer sresp.Body.Close()
		if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	coldSnap := submit()
	if coldSnap.StoreHits != 0 || coldSnap.StoreMisses != 6 {
		t.Errorf("cold snapshot counters = %d/%d, want 0/6", coldSnap.StoreHits, coldSnap.StoreMisses)
	}
	warmSnap := submit() // resume-by-spec: identical spec, fully warm
	if warmSnap.StoreHits != 6 || warmSnap.StoreMisses != 0 {
		t.Errorf("warm snapshot counters = %d/%d, want 6/0", warmSnap.StoreHits, warmSnap.StoreMisses)
	}
	if warmSnap.Tables["table1"] != coldSnap.Tables["table1"] {
		t.Error("warm resubmit rendered a different Table I")
	}

	var stats StoreStats
	resp, err = http.Get(ts.URL + "/v1/store/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Backend != "memory" || stats.Entries != 6 || stats.Hits != 6 || stats.Misses != 6 {
		t.Errorf("stats = %+v, want memory/6 entries/6 hits/6 misses", stats)
	}
}
