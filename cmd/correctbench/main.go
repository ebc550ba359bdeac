// Command correctbench runs the paper's main experiments: Table I
// (main results), Table II (AutoEval criteria) and Table III
// (validator/corrector attribution), or a single task end to end.
//
// It drives the job-oriented Client API: the experiment is submitted
// as a job, progress is rendered from the typed event stream, and
// Ctrl-C cancels the job cleanly (workers stop within one simulation
// step batch).
//
// Usage:
//
//	correctbench -table1 -reps 5 -seed 42
//	correctbench -table2
//	correctbench -table3 -reps 5
//	correctbench -task shift18 -seed 1
//
// With -store-dir every finished experiment cell is persisted to a
// content-addressed result store: rerunning the same experiment (or
// resuming one cancelled with Ctrl-C) replays the finished cells and
// simulates only the remainder, producing byte-identical tables.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"correctbench"
	"correctbench/internal/harness"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "run the Table I experiment")
		table2    = flag.Bool("table2", false, "print the Table II criterion definitions")
		table3    = flag.Bool("table3", false, "run the Table III attribution experiment")
		task      = flag.String("task", "", "run a single named task through CorrectBench")
		reps      = flag.Int("reps", 5, "experiment repetitions (paper: 5)")
		seed      = flag.Int64("seed", 42, "master random seed")
		llmName   = flag.String("llm", "gpt-4o", "LLM profile: gpt-4o | claude-3.5-sonnet | gpt-4o-mini")
		criterion = flag.String("criterion", "70%-wrong", "validation criterion")
		workers   = flag.Int("workers", 0, "concurrent experiment cells (0: all CPUs, 1: sequential; results are identical either way)")
		storeDir  = flag.String("store-dir", "", "persist finished cells to this result store; reruns and resumed runs replay them instead of simulating")
		csvPath   = flag.String("csv", "", "also write per-task outcomes as CSV to this path")
		quiet     = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Every exit path below goes through this drain-aware exitOn, so
	// the client is always closed — including on Ctrl-C, where Close
	// waits out the workers' in-flight cells and their store
	// write-backs. That is what makes -store-dir runs resumable, and
	// why a failed close (the store's final flush) fails the run.
	var client *correctbench.Client
	drain := func() error {
		if client == nil {
			return nil
		}
		c := client
		client = nil
		return c.Close(context.Background())
	}
	exitOn := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "correctbench:", err)
			if err := drain(); err != nil {
				fmt.Fprintln(os.Stderr, "correctbench: close:", err)
			}
			os.Exit(1)
		}
	}
	var opts []correctbench.ClientOption
	if *storeDir != "" {
		st, err := correctbench.OpenDiskStore(*storeDir)
		exitOn(err)
		opts = append(opts, correctbench.WithStore(st))
	}
	client = correctbench.NewClient(opts...)

	if *table2 {
		fmt.Print(harness.Table2())
	}

	if *task != "" {
		res, err := client.GenerateTestbench(ctx, *task, correctbench.TaskSpec{
			Seed: *seed, LLM: *llmName, Criterion: *criterion,
		})
		exitOn(err)
		grade, err := client.Grade(ctx, res.Testbench, *seed)
		exitOn(err)
		fmt.Printf("task %s: grade=%s validated=%v corrections=%d reboots=%d tokens=%d/%d scenarios=%d\n",
			*task, grade, res.Validated, res.Corrections, res.Reboots,
			res.TokensIn, res.TokensOut, res.Testbench.ScenarioCount())
	}

	if *table1 || *table3 {
		job, err := client.Submit(ctx, correctbench.ExperimentSpec{
			Seed: *seed, Reps: *reps, LLM: *llmName, Criterion: *criterion,
			Workers: *workers,
		})
		exitOn(err)
		// Progress from the typed event stream: one line per finished
		// (method, rep) group, in canonical order.
		for ev := range job.Events() {
			if g, ok := ev.(correctbench.MethodRepDone); ok && !*quiet {
				fmt.Fprintf(os.Stderr, "%s rep %d/%d done (%d tasks)\n", g.Method, g.Rep+1, g.Reps, g.Tasks)
			}
		}
		exp, err := job.Wait(ctx)
		exitOn(err)
		if s := job.Snapshot(); *storeDir != "" && !*quiet {
			fmt.Fprintf(os.Stderr, "store: replayed %d/%d cells, simulated %d\n",
				s.StoreHits, s.TotalCells, s.StoreMisses)
		}
		if *table1 {
			fmt.Println(exp.Table1())
		}
		if *table3 {
			fmt.Println(exp.Table3())
		}
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			exitOn(err)
			exitOn(exp.WriteCSV(f))
			exitOn(f.Close())
		}
	}

	if !*table1 && !*table2 && !*table3 && *task == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := drain(); err != nil {
		exitOn(fmt.Errorf("close: %w", err))
	}
}
