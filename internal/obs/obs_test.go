package obs

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCollectorNesting(t *testing.T) {
	epoch := time.Now()
	c := NewCollector(epoch)
	endOuter := c.Start("simulate")
	endInner := c.Start("sim_elaborate")
	endInner()
	endOuter()
	endRoot := c.Start("grade")
	endRoot()

	s := c.Samples()
	if len(s) != 3 {
		t.Fatalf("got %d samples, want 3", len(s))
	}
	// Recording order is close order: inner first.
	if s[0].Phase != "sim_elaborate" || s[0].ParentSeq != 0 {
		t.Fatalf("inner sample = %+v, want phase sim_elaborate parented to seq 0", s[0])
	}
	if s[1].Phase != "simulate" || s[1].ParentSeq != -1 {
		t.Fatalf("outer sample = %+v, want root simulate", s[1])
	}
	if s[2].Phase != "grade" || s[2].ParentSeq != -1 || s[2].Seq != 2 {
		t.Fatalf("grade sample = %+v, want root seq 2", s[2])
	}
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.Start("x")() // must not panic
	c.Add(PhaseSample{})
	if c.Samples() != nil {
		t.Fatal("nil collector returned samples")
	}
	// A context without a collector yields a no-op closer.
	Time(context.Background(), "y")()
}

func TestSpanIDDeterministic(t *testing.T) {
	a := SpanID("trace1", "simulate", 3)
	b := SpanID("trace1", "simulate", 3)
	if a != b {
		t.Fatalf("same inputs gave %s and %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("span ID %q is not 16 hex chars", a)
	}
	for _, other := range []string{
		SpanID("trace2", "simulate", 3),
		SpanID("trace1", "grade", 3),
		SpanID("trace1", "simulate", 4),
	} {
		if other == a {
			t.Fatalf("distinct inputs collided on %s", a)
		}
	}
}

func TestBuildSpans(t *testing.T) {
	samples := []PhaseSample{
		{Phase: "sim_run", Seq: 1, ParentSeq: 0, StartUS: 20, DurUS: 5},
		{Phase: "simulate", Seq: 0, ParentSeq: -1, StartUS: 10, DurUS: 20},
	}
	spans := BuildSpans("t", samples)
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Sorted by start offset.
	if spans[0].Phase != "simulate" || spans[1].Phase != "sim_run" {
		t.Fatalf("order = %s, %s", spans[0].Phase, spans[1].Phase)
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("child parent %q != root id %q", spans[1].Parent, spans[0].ID)
	}
	if spans[0].Parent != "" {
		t.Fatalf("root has parent %q", spans[0].Parent)
	}
}

func TestJobTraceOrder(t *testing.T) {
	var jt JobTrace
	jt.Add(CellTrace{Index: 2})
	jt.Add(CellTrace{Index: 0})
	jt.Add(CellTrace{Index: 1})
	cells := jt.Cells()
	for i, ct := range cells {
		if ct.Index != i {
			t.Fatalf("cells[%d].Index = %d", i, ct.Index)
		}
	}
	var nilTrace *JobTrace
	nilTrace.Add(CellTrace{}) // nil-safe
	if nilTrace.Cells() != nil {
		t.Fatal("nil JobTrace returned cells")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations at ~1ms, 10 at ~100ms: p50 in the 1ms octave,
	// p99 at least in the upper population's neighborhood.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1010 {
		t.Fatalf("count = %d", s.Count)
	}
	p50 := s.Quantile(0.50)
	if p50 < 512 || p50 > 2048 {
		t.Fatalf("p50 = %.0fus, want within the 1ms octave", p50)
	}
	p999 := s.Quantile(0.9999)
	if p999 < 50_000 || p999 > 200_000 {
		t.Fatalf("p99.99 = %.0fus, want within the 100ms octave", p999)
	}
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for us := int64(1); us < 1<<20; us *= 3 {
		h.Observe(time.Duration(us) * time.Microsecond)
	}
	s := h.Snapshot()
	prev := -1.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantile %.2f = %.1f < previous %.1f", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestObserverSnapshot(t *testing.T) {
	o := NewObserver()
	o.ObserveSamples([]PhaseSample{
		{Phase: "simulate", DurUS: 1000},
		{Phase: "simulate", DurUS: 1000},
		{Phase: "grade", DurUS: 500},
	})
	rows := o.Snapshot()
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	// Sorted by phase.
	if rows[0].Phase != "grade" || rows[0].Count != 1 {
		t.Fatalf("rows[0] = %+v", rows[0])
	}
	if rows[1].Phase != "simulate" || rows[1].Count != 2 || rows[1].SumUS != 2000 {
		t.Fatalf("rows[1] = %+v", rows[1])
	}
	var nilObs *Observer
	nilObs.ObserveSamples(nil)
	nilObs.CellDone(time.Now())
	if nilObs.Rate(time.Now()) != 0 || nilObs.Snapshot() != nil {
		t.Fatal("nil observer not inert")
	}
}

func TestRateWindow(t *testing.T) {
	var r RateWindow
	now := time.Unix(1_000_000, 0)
	for i := 0; i < 120; i++ {
		r.Bump(now)
	}
	if got := r.Rate(now); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("rate = %v, want 2.0", got)
	}
	// Events age out of the window.
	if got := r.Rate(now.Add(2 * time.Minute)); got != 0 {
		t.Fatalf("rate after window = %v, want 0", got)
	}
	// Spread across seconds.
	var r2 RateWindow
	for i := 0; i < 30; i++ {
		r2.Bump(now.Add(time.Duration(i) * time.Second))
	}
	if got := r2.Rate(now.Add(29 * time.Second)); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("spread rate = %v, want 0.5", got)
	}
}
