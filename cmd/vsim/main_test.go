package main

import (
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"correctbench/internal/dataset"
	"correctbench/internal/testbench"
)

// buildVsim compiles the command into a temporary directory.
func buildVsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func writeFile(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// vsim runs the binary and returns stdout and stderr.
func vsim(t *testing.T, bin string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("vsim %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestVsimModes runs the command end to end: timed mode on an emitted
// driver plus its golden RTL (interpreter, $display output), and cycle
// mode on cnt8 (batch engine) and on a $display design, which runs on
// the interpreter so that its $display lines print.
func TestVsimModes(t *testing.T) {
	bin := buildVsim(t)

	p := dataset.ByName("cnt8")
	tb, err := testbench.Golden(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	drv := writeFile(t, "cnt8_tb.v", tb.Driver())
	rtl := writeFile(t, "cnt8.v", p.Source)

	out, log := vsim(t, bin, "-top", "cnt8_tb", drv, rtl)
	if !strings.Contains(out, "scenario: 1, rst = ") {
		t.Errorf("timed mode printed no $display samples:\n%s", out)
	}
	if !strings.Contains(log, "finished at t=") {
		t.Errorf("timed mode did not report its end time:\n%s", log)
	}

	out, log = vsim(t, bin, "-clock", "clk", "-cycles", "300", "-ports", rtl)
	if !strings.Contains(out, "output q = xxxxxxxx") { // never reset
		t.Errorf("cycle mode final ports:\n%s", out)
	}
	if !strings.Contains(log, "engine batched (levelized scheduling): 300 cycles x 10 lane(s)") {
		t.Errorf("cycle mode did not run on the batch engine:\n%s", log)
	}

	display := writeFile(t, "cnt8_display.v", strings.Replace(p.Source, "endmodule",
		"always @(posedge clk) $display(\"tick\");\nendmodule", 1))
	out, log = vsim(t, bin, "-clock", "clk", "-cycles", "5", display)
	if out != strings.Repeat("tick\n", 5) {
		t.Errorf("cycle mode on a $display design printed %q, want its $display lines", out)
	}
	if !strings.Contains(log, "engine interp (event scheduling): 5 cycles x 1 lane(s)") {
		t.Errorf("cycle mode on a $display design did not run on the interpreter:\n%s", log)
	}
}
