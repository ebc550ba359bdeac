// Validator study: builds a labeled corpus of generated testbenches
// for a handful of tasks and measures each validation criterion's
// accuracy — a scaled-down Fig. 6(a). It demonstrates direct use of
// the internal experiment harness through the same entry points the
// paper-scale cmd/criteria tool uses.
//
// Run with:
//
//	go run ./examples/validator_study
package main

import (
	"context"
	"fmt"
	"log"

	"correctbench/internal/dataset"
	"correctbench/internal/harness"
)

func main() {
	var probs []*dataset.Problem
	for _, name := range []string{"adder8", "alu4", "prio_enc8", "cnt8", "det101", "shift18", "fifo2", "timer8"} {
		p := dataset.ByName(name)
		if p == nil {
			log.Fatalf("problem %s missing", name)
		}
		probs = append(probs, p)
	}
	rows, err := harness.CriteriaAccuracyContext(context.Background(), harness.CriteriaAccuracyConfig{
		PerTask:  8,
		Seed:     2025,
		Problems: probs,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(harness.RenderFig6a(rows))
	fmt.Println("Expected trend (paper Section IV-C): as the threshold loosens from")
	fmt.Println("100%-wrong to 50%-wrong the validator gets stricter — accuracy on")
	fmt.Println("wrong testbenches rises while accuracy on correct testbenches falls;")
	fmt.Println("70%-wrong gives the best overall accuracy and is the shipped default.")
}
