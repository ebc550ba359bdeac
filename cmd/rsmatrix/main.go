// Command rsmatrix reproduces Fig. 4: it builds RTL-Scenario matrices
// for a task — one for a correct testbench and one with an injected
// checker fault — and renders them as ASCII art together with each
// criterion's verdict. The probe logic lives in the Client API
// (Client.RSMatrix); this command is a thin renderer over it.
//
// Usage:
//
//	rsmatrix -task cnt8 -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"correctbench"
)

func main() {
	var (
		taskName = flag.String("task", "cnt8", "dataset task")
		seed     = flag.Int64("seed", 7, "random seed")
		nr       = flag.Int("nr", 20, "imperfect RTL group size (paper: 20)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := correctbench.NewClient().RSMatrix(ctx, correctbench.RSMatrixSpec{
		Problem: *taskName, Seed: *seed, RTLGroupSize: correctbench.Int(*nr),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsmatrix:", err)
		os.Exit(1)
	}
	fmt.Print(rep.Clean)
	if rep.Fault == "" {
		fmt.Fprintln(os.Stderr, "rsmatrix: no observable checker fault found")
		return
	}
	fmt.Printf("\nWRONG testbench: checker fault %s\n", rep.Fault)
	fmt.Print(rep.Wrong)
}
