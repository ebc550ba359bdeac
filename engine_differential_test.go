package correctbench

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"correctbench/internal/harness"
)

// TestTableOutputEngineDifferential runs the full Table-I pipeline —
// three methods over the benchmark problem mix — and asserts that the
// published Table I and Table III hash to the SHA-256 digests recorded
// when every simulation ran on the reference interpreter. Together with
// validator.TestCompiledEngineDifferential (RS matrices over all
// dataset problems) this is the end-to-end proof that compiling the
// simulator changed only speed, never results.
//
// The digests were recorded at commit 37e86f6, the last commit with a
// process-wide engine switch, by running this pipeline there with the
// switch set to the interpreter:
//
//	go test -count=1 -run TestTableOutputEngineDifferential .
//
// Since the switch is gone, a later commit cannot re-derive these
// digests from the interpreter. A change that legitimately alters
// Table I or Table III must first pass the live per-run interpreter
// checks on the new outputs: testbench.TestRTLGroupRunsMatchInterp,
// TestBatchRunMatchesScalar and TestScenarioRecordingIsIndependent
// (each lane against tbtest.RunLive), and validator's
// TestBatchedRSMatrixDifferential (matrices against oracleMatrix).
// Only then re-record the digests from the batch engine with the
// command above; from then on they pin the batch engine's output, not
// the interpreter's.
func TestTableOutputEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full table pipeline; skipped in -short mode")
	}
	const (
		interpTable1SHA256 = "5c3817fb7f51c32bb72f1b47db739fd953c4913ff1faa1a5c26fb59140c6bc3c"
		interpTable3SHA256 = "56952e5044350ebb2b6b993a3f062ede0b7a479d3833a52d3b333246111fb1fc"
	)
	res, err := harness.RunContext(context.Background(), harness.Config{Reps: 1, Seed: 42, Problems: benchmarkMix(), Workers: 2})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	for _, tc := range []struct{ name, text, want string }{
		{"Table I", res.Table1(), interpTable1SHA256},
		{"Table III", res.Table3(), interpTable3SHA256},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tc.text))); got != tc.want {
			t.Errorf("%s differs from the interpreter's: digest %s, want %s\n%s", tc.name, got, tc.want, tc.text)
		}
	}
}
