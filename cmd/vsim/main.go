// Command vsim is the standalone Verilog simulator built for this
// reproduction (the Icarus Verilog stand-in): it parses a source file,
// elaborates the requested top module and simulates it.
//
// Usage:
//
//	vsim -top tb design.v [more.v ...]
//
// Two run modes:
//
//   - timed (default): executes initial blocks and delay-driven always
//     blocks on the interpreter until -maxtime, printing $display
//     output, like a conventional simulator run.
//   - cycle (-clock C -cycles N): zeroes the inputs and toggles the
//     named clock N times, reporting steps/s. This is the mode the
//     evaluation harness exercises. It runs -batch identical lanes of
//     the design through one batch program, or one interpreter
//     instance when some body of the design runs on the interpreter's
//     rules inside a batch program (BatchProgram.Interpreted: e.g. it
//     uses $display, whose output only the interpreter prints); the
//     report names the engine that ran.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"correctbench/internal/logic"
	"correctbench/internal/sim"
	"correctbench/internal/verilog"
)

func main() {
	var (
		top     = flag.String("top", "", "top module (default: last module in the input)")
		maxTime = flag.Uint64("maxtime", 1_000_000, "simulation time limit (timed mode)")
		dump    = flag.Bool("ports", false, "print final port values after simulation")
		clock   = flag.String("clock", "", "clock port name (enables cycle mode with -cycles)")
		cycles  = flag.Int("cycles", 0, "run N clock cycles instead of event-driven time")
		batch   = flag.Int("batch", 10, "lane count of the batch engine (cycle mode)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: vsim [-top name] [-clock C -cycles N [-batch L]] file.v ...")
		os.Exit(2)
	}
	var srcs []string
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		srcs = append(srcs, string(data))
	}
	file, err := verilog.Parse(strings.Join(srcs, "\n"))
	if err != nil {
		fail(err)
	}
	topName := *top
	if topName == "" {
		topName = file.Modules[len(file.Modules)-1].Name
	}
	design, err := sim.ElaborateContext(context.Background(), file, topName)
	if err != nil {
		fail(err)
	}

	if *cycles > 0 || *clock != "" {
		runCycles(design, *clock, *cycles, *batch, *dump)
		return
	}

	inst := sim.NewInstance(design)
	inst.Stdout = os.Stdout
	if err := sim.Run(inst, *maxTime); err != nil {
		fail(err)
	}
	if *dump {
		for _, p := range design.Ports {
			v, err := inst.Get(p.Name)
			if err != nil {
				continue
			}
			fmt.Printf("%s %s = %s\n", p.Dir, p.Name, v)
		}
	}
	fmt.Fprintf(os.Stderr, "vsim: finished at t=%d (finish=%v)\n", inst.Now, inst.Finished)
}

// runCycles zeroes the inputs and drives the named clock for the
// requested cycle count on the batch engine, or on the interpreter when
// the batch program would run some body on the interpreter's rules,
// printing throughput as steps/s (one step = one cycle of one lane; the
// interpreter is a single lane).
func runCycles(design *sim.Design, clock string, cycles, batch int, dump bool) {
	if clock == "" || cycles <= 0 {
		fail(errors.New("cycle mode needs both -clock and -cycles"))
	}
	if batch < 1 {
		fail(errors.New("-batch must be at least 1"))
	}
	start := time.Now()
	eng, lanes, sched := "batched", batch, "event"
	variants := make([]*sim.Design, batch)
	for i := range variants {
		variants[i] = design
	}
	var get func(name string) (logic.Vector, error)
	// Copies of one design share one program.
	if prog := sim.CompileBatch(design, variants)[0]; !prog.Interpreted() {
		b := sim.NewBatchInstance(prog)
		if err := b.ZeroInputs(); err != nil {
			fail(err)
		}
		if err := b.TickN(clock, cycles); err != nil {
			fail(err)
		}
		for lane := 0; lane < b.Lanes(); lane++ {
			if err := b.LaneErr(lane); err != nil {
				fail(fmt.Errorf("lane %d: %w", lane, err))
			}
		}
		if prog.Levelized() {
			sched = "levelized"
		}
		get = func(name string) (logic.Vector, error) { return b.Get(name, 0) }
	} else {
		fmt.Fprintln(os.Stderr, "vsim: the design has bodies the batch compiler leaves to the interpreter; running on the interpreter")
		eng, lanes = "interp", 1
		inst := sim.NewInstance(design)
		inst.Stdout = os.Stdout
		if err := inst.ZeroInputs(); err != nil {
			fail(err)
		}
		if err := inst.TickN(clock, cycles); err != nil {
			fail(err)
		}
		get = inst.Get
	}
	secs := time.Since(start).Seconds()
	if dump {
		for _, p := range design.Ports {
			v, err := get(p.Name)
			if err != nil {
				continue
			}
			fmt.Printf("%s %s = %s\n", p.Dir, p.Name, v)
		}
	}
	steps := float64(cycles) * float64(lanes)
	rate := "inf"
	if secs > 0 {
		rate = fmt.Sprintf("%.0f", steps/secs)
	}
	fmt.Fprintf(os.Stderr, "vsim: engine %s (%s scheduling): %d cycles x %d lane(s) in %.3fs — %s steps/s\n",
		eng, sched, cycles, lanes, secs, rate)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vsim:", err)
	os.Exit(1)
}
