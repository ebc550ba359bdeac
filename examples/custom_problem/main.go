// Custom problem: CorrectBench only needs a natural-language spec (the
// golden RTL here serves as the behavioural oracle the simulated LLM's
// statistics are anchored to). This example defines a new sequential
// design — a pulse-width measurer — outside the built-in dataset, runs
// the full workflow on it, and simulates the generated driver on the
// embedded Verilog simulator.
//
// Run with:
//
//	go run ./examples/custom_problem
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"correctbench"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
)

const goldenSource = `module pulsewidth(
    input clk,
    input rst,
    input x,
    output reg [3:0] width
);
    reg [3:0] run;
    always @(posedge clk) begin
        if (rst) begin
            run <= 4'd0;
            width <= 4'd0;
        end else if (x) begin
            if (run != 4'd15) run <= run + 4'd1;
        end else begin
            if (run != 4'd0) width <= run;
            run <= 4'd0;
        end
    end
endmodule
`

const spec = "A pulse-width measurer: while the input x is sampled high, an internal counter counts the pulse length (saturating at 15). When x returns low after a pulse, the 4-bit output width latches the measured length and holds it until the next pulse completes. rst clears both the counter and the latched width."

func main() {
	p, err := correctbench.NewProblem("pulsewidth", "SEQ", spec, goldenSource, "rst", 4)
	if err != nil {
		log.Fatal(err)
	}
	res, err := correctbench.NewClient().GenerateTestbenchFor(context.Background(), p, correctbench.TaskSpec{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pulsewidth: validated=%v corrections=%d reboots=%d scenarios=%d\n\n",
		res.Validated, res.Corrections, res.Reboots, res.Testbench.ScenarioCount())

	// The emitted driver is real Verilog: run it on the embedded
	// simulator against the golden RTL, exactly as cmd/vsim would.
	file, err := verilog.Parse(res.Testbench.Driver() + "\n" + goldenSource)
	if err != nil {
		log.Fatal(err)
	}
	design, err := sim.ElaborateContext(context.Background(), file, "pulsewidth_tb")
	if err != nil {
		log.Fatal(err)
	}
	inst := sim.NewInstance(design)
	inst.Stdout = os.Stdout
	fmt.Println("Driver simulation output (first scenario):")
	if err := sim.Run(inst, 2000); err != nil {
		log.Fatal(err)
	}
}
