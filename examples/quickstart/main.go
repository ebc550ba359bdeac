// Quickstart: generate a self-validated testbench for one dataset
// problem with the CorrectBench workflow, then grade it with AutoEval.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"correctbench"
)

func main() {
	const task = "adder8"
	ctx := context.Background()
	c := correctbench.NewClient()

	p := correctbench.ProblemByName(task)
	fmt.Printf("Task %s (%s, difficulty %d)\n", p.Name, p.Kind, p.Difficulty)
	fmt.Printf("Spec: %s\n\n", p.Spec)

	res, err := c.GenerateTestbench(ctx, task, correctbench.TaskSpec{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CorrectBench finished: validated=%v corrections=%d reboots=%d\n",
		res.Validated, res.Corrections, res.Reboots)
	fmt.Printf("Simulated LLM cost: %d input / %d output tokens\n",
		res.TokensIn, res.TokensOut)
	fmt.Printf("Testbench: %d scenarios\n\n", res.Testbench.ScenarioCount())

	grade, err := c.Grade(ctx, res.Testbench, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AutoEval grade: %s (Eval2 = verdicts agree with the golden testbench on >= 80%% of RTL mutants)\n", grade)

	fmt.Println("\nGenerated driver track (first lines):")
	printHead(res.Testbench.Driver(), 12)
}

func printHead(s string, lines int) {
	n := 0
	for _, line := range splitLines(s) {
		fmt.Println("  " + line)
		n++
		if n == lines {
			fmt.Println("  ...")
			return
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
