// Command correctbenchd serves the CorrectBench evaluation pipeline
// over HTTP: experiments are submitted as jobs, progress streams as
// NDJSON events, and results are queried as snapshots. It is the
// service front end of the correctbench.Client/Job API — the same
// contract, the same byte-reproducible event streams.
//
// With -store-dir the service keeps a persistent content-addressed
// result store: every finished experiment cell is written through to
// disk, an identical spec resubmitted later (including after a crash
// or rolling restart) replays the finished cells and simulates only
// the remainder, and SIGTERM drains in-flight jobs and flushes the
// store before the listener shuts down.
//
// The daemon ships with admission control on by default: bounded
// concurrent jobs globally (-max-jobs) and per client
// (-max-jobs-per-client), a per-client token-bucket rate limit on
// submit/grade (-rate/-burst), a grading request timeout
// (-request-timeout), and request body caps (-max-body-bytes).
// Refused work is answered with 429 + Retry-After (never queued), and
// a store that errors mid-job degrades that job to cache-bypass mode
// instead of failing it — see the README's "Operations & fault
// tolerance" section.
//
// Usage:
//
//	correctbenchd -addr :8080
//	correctbenchd -addr :8080 -store-dir /var/lib/correctbench
//	correctbenchd -selfcheck        # start, drive one experiment over
//	                                # HTTP, verify against in-process,
//	                                # then prove a warm resubmit
//	                                # simulates zero cells
//
// Endpoints:
//
//	POST   /v1/experiments          submit (add "stream": true for NDJSON);
//	                                resume-by-spec when a store is configured
//	GET    /v1/experiments/{id}     snapshot (incl. store_hits/store_misses)
//	GET    /v1/experiments/{id}/events  NDJSON stream (replay + live)
//	DELETE /v1/experiments/{id}     cancel
//	GET    /v1/problems             dataset listing
//	GET    /v1/llms, /v1/criteria   stable name lists
//	POST   /v1/grade                grade a testbench (or generate+grade)
//	GET    /v1/store/stats          result-store counters
//	GET    /metrics                 Prometheus text exposition (gauges,
//	                                counters, phase latency summaries)
//	GET    /v1/experiments/{id}/trace  per-cell span trees as NDJSON
//	                                   (render with cmd/traceview)
//
// With -pprof the standard net/http/pprof profiling handlers are
// mounted under /debug/pprof/ on the same listener. Off by default:
// profiles expose internals and cost CPU to capture, so the surface is
// strictly opt-in.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"correctbench"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		storeDir  = flag.String("store-dir", "", "directory for the persistent result store (empty: no store; completed cells are then never reused across restarts)")
		selfcheck = flag.Bool("selfcheck", false, "start an ephemeral server, run a 2-problem experiment over HTTP, compare with the in-process run, prove a warm resubmit replays every cell from the store, and exit")
		withPprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the same listener (opt-in profiling surface)")

		maxJobs       = flag.Int("max-jobs", 16, "max concurrently running experiments across all clients; over the cap submits get 429 + Retry-After (0: unlimited)")
		maxJobsClient = flag.Int("max-jobs-per-client", 4, "max concurrently running experiments per client, keyed by X-Client-ID or remote host (0: unlimited)")
		rate          = flag.Float64("rate", 5, "per-client token-bucket rate for submit/grade, requests per second (0: unlimited)")
		burst         = flag.Int("burst", 10, "per-client token-bucket burst for submit/grade")
		reqTimeout    = flag.Duration("request-timeout", 5*time.Minute, "per-request timeout for synchronous grading work; exceeding it answers 504 (0: none)")
		maxBody       = flag.Int64("max-body-bytes", 8<<20, "request body cap for submit/grade; overflow answers 413")
		retryAfter    = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	)
	flag.Parse()

	if *selfcheck {
		if err := runSelfcheck(); err != nil {
			fmt.Fprintln(os.Stderr, "correctbenchd: selfcheck FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("correctbenchd: selfcheck ok")
		return
	}

	var opts []correctbench.ClientOption
	if *storeDir != "" {
		st, err := correctbench.OpenDiskStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "correctbenchd:", err)
			os.Exit(1)
		}
		stats := st.Stats()
		fmt.Fprintf(os.Stderr, "correctbenchd: result store %s: %d cells in %d shards", *storeDir, stats.Entries, stats.Shards)
		if stats.CorruptRecords > 0 || stats.StaleShards > 0 {
			fmt.Fprintf(os.Stderr, " (skipped %d corrupt records, %d stale shards — run storectl gc)", stats.CorruptRecords, stats.StaleShards)
		}
		fmt.Fprintln(os.Stderr)
		opts = append(opts, correctbench.WithStore(st))
	}
	client := correctbench.NewClient(opts...)

	limits := correctbench.Limits{
		MaxActiveJobs:    *maxJobs,
		MaxJobsPerClient: *maxJobsClient,
		RatePerSec:       *rate,
		Burst:            *burst,
		RequestTimeout:   *reqTimeout,
		MaxBodyBytes:     *maxBody,
		RetryAfter:       *retryAfter,
	}
	handler := http.Handler(correctbench.NewServer(client, correctbench.WithLimits(limits)))
	if *withPprof {
		// Wrap rather than touch the service mux: the profiling surface
		// stays an operator-side add-on, never part of the API contract.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		fmt.Fprintln(os.Stderr, "correctbenchd: pprof enabled on /debug/pprof/")
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Slow-loris defense: a client gets 10s to finish its headers.
		// No blanket write timeout — NDJSON streams are long-lived by
		// design and bounded by their own job lifecycle instead.
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Drain before stopping the listener: cancel every in-flight
		// job, wait for the workers to finish their last cells (each
		// one a store write-back), and flush/close the store — so a
		// rolling restart never loses a completed cell. Closing the
		// client also ends the jobs' NDJSON streams, which is what lets
		// srv.Shutdown finish inside its timeout.
		if err := client.Close(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "correctbenchd: drain:", err)
		}
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "correctbenchd: shutdown:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "correctbenchd: listening on %s\n", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "correctbenchd:", err)
		os.Exit(1)
	}
	<-done // the drain goroutine owns the store; let it finish
}

// runSelfcheck exercises the full service path end to end: it binds a
// real TCP port, submits a small experiment with a streaming POST,
// consumes the NDJSON event stream to completion, and asserts the
// streamed Table I equals the one computed in-process from the same
// spec — the service must add nothing and lose nothing.
func runSelfcheck() (err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: correctbench.NewServer(correctbench.NewClient())}
	go func() { _ = srv.Serve(ln) }()
	defer closeWith(&err, "selfcheck server", srv.Close)
	base := "http://" + ln.Addr().String()

	// The dataset must be served.
	resp, err := http.Get(base + "/v1/problems")
	if err != nil {
		return err
	}
	var problems []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&problems); err != nil {
		return err
	}
	resp.Body.Close()
	if len(problems) != 156 {
		return fmt.Errorf("GET /v1/problems: got %d problems, want 156", len(problems))
	}

	spec := correctbench.ExperimentSpec{
		Seed: 11, Reps: 1, Problems: []string{"adder4", "dff"},
	}
	run, err := runStreamed(base, spec)
	if err != nil {
		return err
	}
	if want := 2 * 3; run.cells != want {
		return fmt.Errorf("streamed %d cell events, want %d", run.cells, want)
	}

	// In-process reference run with the identical spec.
	job, err := correctbench.NewClient().Submit(context.Background(), spec)
	if err != nil {
		return err
	}
	exp, err := job.Wait(context.Background())
	if err != nil {
		return err
	}
	if run.table != exp.Table1() {
		return fmt.Errorf("streamed Table I differs from in-process run:\n--- HTTP ---\n%s\n--- in-process ---\n%s", run.table, exp.Table1())
	}
	if !strings.Contains(run.table, "CorrectBench") {
		return fmt.Errorf("Table I snippet missing methods:\n%s", run.table)
	}
	fmt.Fprintf(os.Stderr, "correctbenchd: selfcheck streamed %d cells; Table I matches in-process run\n", run.cells)

	return storeSelfcheck(spec, run.table)
}

// storeSelfcheck proves the store round trip and resume-by-spec over
// HTTP: a store-backed server runs the spec cold (all cells
// simulated and persisted), then an identical resubmit replays every
// cell from the store — zero simulated, byte-identical Table I — and
// /v1/store/stats agrees.
func storeSelfcheck(spec correctbench.ExperimentSpec, wantTable string) (err error) {
	dir, err := os.MkdirTemp("", "correctbenchd-selfcheck-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := correctbench.OpenDiskStore(dir)
	if err != nil {
		return err
	}
	client := correctbench.NewClient(correctbench.WithStore(st))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: correctbench.NewServer(client)}
	go func() { _ = srv.Serve(ln) }()
	defer closeWith(&err, "store selfcheck server", srv.Close)
	defer closeWith(&err, "store selfcheck client", func() error { return client.Close(context.Background()) })
	base := "http://" + ln.Addr().String()

	cold, err := runStreamed(base, spec)
	if err != nil {
		return fmt.Errorf("store cold run: %w", err)
	}
	var stats correctbench.StoreStats
	if err := getJSON(base+"/v1/store/stats", &stats); err != nil {
		return err
	}
	if stats.Entries != cold.cells {
		return fmt.Errorf("store holds %d cells after a %d-cell cold run", stats.Entries, cold.cells)
	}

	warm, err := runStreamed(base, spec)
	if err != nil {
		return fmt.Errorf("store warm resubmit: %w", err)
	}
	if warm.table != cold.table || warm.table != wantTable {
		return fmt.Errorf("warm Table I differs from cold:\n--- warm ---\n%s\n--- cold ---\n%s", warm.table, cold.table)
	}
	var snap correctbench.Snapshot
	if err := getJSON(base+"/v1/experiments/"+warm.jobID, &snap); err != nil {
		return err
	}
	if snap.StoreHits != warm.cells || snap.StoreMisses != 0 {
		return fmt.Errorf("warm resubmit simulated cells: hits=%d misses=%d, want %d/0", snap.StoreHits, snap.StoreMisses, warm.cells)
	}
	fmt.Fprintf(os.Stderr, "correctbenchd: selfcheck store: warm resubmit replayed %d/%d cells, Table I byte-identical\n", snap.StoreHits, warm.cells)
	return nil
}

// closeWith runs a deferred close and, when the function was about to
// succeed, returns the close's error in *err instead.
func closeWith(err *error, what string, close func() error) {
	if cerr := close(); cerr != nil && *err == nil {
		*err = fmt.Errorf("closing %s: %w", what, cerr)
	}
}

// streamedRun is what one streaming POST /v1/experiments produced.
type streamedRun struct {
	jobID string
	cells int
	table string
}

// runStreamed submits a spec with "stream": true and drains the
// NDJSON event stream to completion.
func runStreamed(base string, spec correctbench.ExperimentSpec) (streamedRun, error) {
	var run streamedRun
	body, _ := json.Marshal(struct {
		correctbench.ExperimentSpec
		Stream bool `json:"stream"`
	}{spec, true})
	resp, err := http.Post(base+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		return run, err
	}
	defer resp.Body.Close() //detlint:allow a response body only read; its close reports nothing to act on
	if resp.StatusCode != http.StatusOK {
		return run, fmt.Errorf("POST /v1/experiments: status %s", resp.Status)
	}
	run.jobID = resp.Header.Get("X-Correctbench-Job")
	done := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		ev, err := correctbench.UnmarshalEvent(sc.Bytes())
		if err != nil {
			return run, err
		}
		switch e := ev.(type) {
		case correctbench.CellFinished:
			run.cells++
		case correctbench.TableReady:
			if e.Name == "table1" {
				run.table = e.Text
			}
		case correctbench.JobDone:
			if e.Err != nil {
				return run, fmt.Errorf("job failed: %v", e.Err)
			}
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return run, err
	}
	if !done {
		return run, fmt.Errorf("event stream ended without job_done")
	}
	return run, nil
}

// getJSON fetches a URL and decodes its JSON body.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //detlint:allow a response body only read; its close reports nothing to act on
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
