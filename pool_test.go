package correctbench

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// TestPoolDifferentialEventStreams pins worker count and store
// placement as invisible to the experiment: a job with no store and a
// job against a cold store, each at Workers 1 and 8, must stream
// byte-identical events (once the two documented wall-clock fields are
// normalized) and render byte-identical Table I and Table III.
func TestPoolDifferentialEventStreams(t *testing.T) {
	spec := func(workers int) ExperimentSpec {
		return ExperimentSpec{Seed: 47, Reps: 1, Workers: workers, Problems: testProblems}
	}
	_, baseEvents, baseExp := drainJob(t, NewClient(), spec(1))
	baseline := marshalNormalized(t, baseEvents)
	t1, t3 := baseExp.Table1(), baseExp.Table3()

	cases := []struct {
		name   string
		client func() *Client
	}{
		{"no-store", func() *Client { return NewClient() }},
		{"cold-store", func() *Client { return NewClient(WithStore(NewMemoryStore(0))) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					c := tc.client()
					_, events, exp := drainJob(t, c, spec(workers))
					if err := c.Close(context.Background()); err != nil {
						t.Fatal(err)
					}
					if got := marshalNormalized(t, events); !bytes.Equal(got, baseline) {
						t.Errorf("event stream differs from the no-store Workers=1 baseline:\n--- got ---\n%s--- want ---\n%s", got, baseline)
					}
					if got := exp.Table1(); got != t1 {
						t.Errorf("Table I differs:\n%s\n--- want ---\n%s", got, t1)
					}
					if got := exp.Table3(); got != t3 {
						t.Errorf("Table III differs:\n%s\n--- want ---\n%s", got, t3)
					}
				})
			}
		})
	}
}
