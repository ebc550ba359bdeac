package correctbench

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestRSMatrixDigest pins every Fig. 4 report of the dataset at three
// seeds: the clean panel, the fault found and the wrong panel hash to
// one SHA-256, so a change to the fault probe's order, its trace reuse
// or the panel rendering that alters any byte fails here.
func TestRSMatrixDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("renders 468 RS-matrix reports")
	}
	const want = "a807e66a035cdd71ff6bc54fe018a239453093409fcf6257a37e0f68b63f1ed9"
	c := NewClient()
	h := sha256.New()
	for _, seed := range []int64{7, 1, 42} {
		for _, p := range Problems() {
			rep, err := c.RSMatrix(context.Background(), RSMatrixSpec{Problem: p.Name, Seed: seed})
			if err != nil {
				t.Fatalf("%s/%d: %v", p.Name, seed, err)
			}
			fmt.Fprintf(h, "%s/%d\n%s\n%s\n%s\n", p.Name, seed, rep.Clean, rep.Fault, rep.Wrong)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("RS-matrix digest %s, want %s", got, want)
	}
}
