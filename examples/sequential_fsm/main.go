// Sequential-circuit walkthrough: the paper's headline improvement is
// on sequential tasks, where reference models must track state across
// cycles. This example runs CorrectBench on shift18 — the 64-bit
// arithmetic shifter used as the corrector demo in the paper's Fig. 5 —
// under all three validation criteria and reports how the action agent
// behaved.
//
// Run with:
//
//	go run ./examples/sequential_fsm
package main

import (
	"context"
	"fmt"
	"log"

	"correctbench"
)

func main() {
	const task = "shift18"
	ctx := context.Background()
	c := correctbench.NewClient()
	p := correctbench.ProblemByName(task)
	fmt.Printf("Task %s (%s, difficulty %d): %s\n\n", p.Name, p.Kind, p.Difficulty, p.Spec)

	for _, criterion := range correctbench.CriterionNames() {
		res, err := c.GenerateTestbench(ctx, task, correctbench.TaskSpec{
			Seed:      7,
			Criterion: criterion,
		})
		if err != nil {
			log.Fatal(err)
		}
		grade, err := c.Grade(ctx, res.Testbench, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("criterion %-12s -> grade %-6s validated=%-5v corrections=%d reboots=%d tokens=%d/%d\n",
			criterion, grade, res.Validated, res.Corrections, res.Reboots, res.TokensIn, res.TokensOut)
	}

	fmt.Println("\nStricter criteria reject more testbenches, which buys extra")
	fmt.Println("corrections/reboots (more tokens) in exchange for a better chance")
	fmt.Println("of a functionally correct final testbench — the Fig. 6(b) trade-off.")
}
