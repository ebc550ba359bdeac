// Package obs is the harness's zero-dependency observability layer:
// per-cell phase tracing (span trees with deterministic span IDs) and
// lock-free latency histograms aggregated per phase.
//
// Everything in this package is operational metadata — the same class
// of data as CellFinished.Duration: wall-clock timings recorded off
// the wire, never serialized into event streams, result tables or
// store records. Enabling or disabling tracing cannot change a single
// byte of a run's deterministic surface; the differential tests pin
// that contract. Only the *identifiers* are deterministic: a span's ID
// is a pure function of its cell's content address, its phase name and
// its sequence number, so two traces of the same cell are directly
// comparable even though their timings differ.
//
// The pieces, bottom to top:
//
//   - PhaseSample: one timed phase occurrence inside a cell, with
//     offsets relative to a trace epoch.
//   - Collector: accumulates a cell's samples as the cell executes,
//     carried through the execution path inside a context.Context
//     (WithCollector / FromContext / Time). All methods are nil-safe,
//     so instrumentation points cost one pointer check when tracing is
//     off.
//   - CellTrace / Span / BuildSpans: the assembled span tree of one
//     finished cell, with parent links resolved to deterministic IDs.
//   - JobTrace: one run's cell traces, in canonical index order.
//   - Histogram / Observer (hist.go): power-of-two-bucket latency
//     aggregation behind /metrics.
package obs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// Phase names used across the execution path, so histograms aggregate
// correctly; sub-phases (sim_*) nest under whichever phase is current
// when they run.
const (
	PhaseQueueWait = "queue_wait"      // cell queued for the pool -> a worker picked it up
	PhaseLookup    = "store_lookup"    // result-store resolution before scheduling
	PhaseSimulate  = "simulate"        // testbench generation (method-specific)
	PhaseGrade     = "grade"           // AutoEval grading of the generated testbench
	PhaseWriteback = "store_writeback" // persisting the finished cell
	PhaseElaborate = "sim_elaborate"   // parsing + module elaboration (internal/sim)
	PhaseCompile   = "sim_compile"     // slot resolution + scheduling indexes (internal/sim)
	PhaseRun       = "sim_run"         // scenario stepping (internal/testbench)
)

// PhaseSample is one timed phase occurrence within a cell. StartUS and
// DurUS are microsecond offsets relative to the trace epoch (the run
// start). Seq numbers samples within their cell; ParentSeq links a
// nested sample to its enclosing one (-1: a root).
type PhaseSample struct {
	Phase     string
	Seq       int
	ParentSeq int
	StartUS   int64
	DurUS     int64
}

// Collector accumulates one cell's phase samples. It is carried
// through the execution path in a context (WithCollector); every
// method is safe on a nil receiver, so instrumentation is free when
// tracing is off. Phases are assumed to nest (each cell executes
// sequentially); a mutex keeps concurrent use memory-safe regardless.
type Collector struct {
	epoch time.Time

	mu    sync.Mutex
	next  int
	stack []int // open phase seqs, innermost last
	out   []PhaseSample
}

// NewCollector returns a collector whose sample offsets are relative
// to epoch.
func NewCollector(epoch time.Time) *Collector { return &Collector{epoch: epoch} }

// Start opens a phase and returns its closer. The sample is recorded
// when the closer runs, parented to whatever phase was innermost at
// Start time.
func (c *Collector) Start(phase string) func() {
	if c == nil {
		return noop
	}
	start := time.Now() //detlint:allow phase timings are wall-clock metadata, never on the deterministic surface
	c.mu.Lock()
	seq := c.next
	c.next++
	parent := -1
	if n := len(c.stack); n > 0 {
		parent = c.stack[n-1]
	}
	c.stack = append(c.stack, seq)
	c.mu.Unlock()
	return func() {
		end := time.Now() //detlint:allow phase timings are wall-clock metadata, never on the deterministic surface
		c.mu.Lock()
		for i := len(c.stack) - 1; i >= 0; i-- {
			if c.stack[i] == seq {
				c.stack = append(c.stack[:i], c.stack[i+1:]...)
				break
			}
		}
		c.out = append(c.out, PhaseSample{
			Phase:     phase,
			Seq:       seq,
			ParentSeq: parent,
			StartUS:   start.Sub(c.epoch).Microseconds(),
			DurUS:     end.Sub(start).Microseconds(),
		})
		c.mu.Unlock()
	}
}

// Add records an externally timed sample (e.g. queue_wait measured by
// the cell pool) verbatim, claiming its Seq as used.
func (c *Collector) Add(s PhaseSample) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if s.Seq >= c.next {
		c.next = s.Seq + 1
	}
	c.out = append(c.out, s)
	c.mu.Unlock()
}

// Samples returns the recorded samples (a copy), in recording order.
func (c *Collector) Samples() []PhaseSample {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]PhaseSample(nil), c.out...)
}

var noop = func() {}

type ctxKey struct{}

// WithCollector attaches a collector to a context for the execution
// path below to find.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the context's collector, or nil.
func FromContext(ctx context.Context) *Collector {
	c, _ := ctx.Value(ctxKey{}).(*Collector)
	return c
}

// Time opens a phase on the context's collector and returns its
// closer; a no-op closer when the context carries none. The idiomatic
// instrumentation point is
//
//	defer obs.Time(ctx, obs.PhaseRun)()
func Time(ctx context.Context, phase string) func() {
	return FromContext(ctx).Start(phase)
}

// ---- assembled traces ----

// Span is one node of a cell's span tree: a phase occurrence with its
// deterministic identity resolved. IDs are pure functions of the
// cell's content address, the phase name and the sequence number
// (SpanID), so spans of two runs of the same cell correspond 1:1.
type Span struct {
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Phase   string `json:"phase"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// CellTrace is the span tree of one finished cell — one line of the
// job trace NDJSON stream. Key doubles as the trace ID every span ID
// derives from.
type CellTrace struct {
	Index   int    `json:"index"`
	Method  string `json:"method"`
	Rep     int    `json:"rep"`
	Problem string `json:"problem"`
	Key     string `json:"key"`
	Cached  bool   `json:"cached,omitempty"`
	Spans   []Span `json:"spans"`
}

// SpanID derives the deterministic span identifier: the first 8 bytes
// (hex) of SHA-256 over the trace ID, phase name and sequence number.
func SpanID(traceID, phase string, seq int) string {
	in := append(append(append([]byte(traceID), 0), phase...), 0, byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq))
	sum := sha256.Sum256(in)
	return hex.EncodeToString(sum[:8])
}

// BuildSpans assembles samples into the span list of a trace: IDs and
// parent links resolved via SpanID, ordered by start offset (sequence
// number on ties) so the list reads chronologically.
func BuildSpans(traceID string, samples []PhaseSample) []Span {
	phaseBySeq := make(map[int]PhaseSample, len(samples))
	for _, s := range samples {
		phaseBySeq[s.Seq] = s
	}
	out := make([]Span, 0, len(samples))
	for _, s := range samples {
		sp := Span{
			ID:      SpanID(traceID, s.Phase, s.Seq),
			Phase:   s.Phase,
			StartUS: s.StartUS,
			DurUS:   s.DurUS,
		}
		if p, ok := phaseBySeq[s.ParentSeq]; ok && s.ParentSeq >= 0 {
			sp.Parent = SpanID(traceID, p.Phase, p.Seq)
		}
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUS != out[j].StartUS {
			return out[i].StartUS < out[j].StartUS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// JobTrace accumulates the cell traces of one run. Cells() returns
// them in canonical index order regardless of completion order, so the
// trace stream — like the event stream — reads in grid order.
type JobTrace struct {
	mu    sync.Mutex
	cells []CellTrace
}

// Add records one finished cell's trace. Safe for concurrent use.
func (t *JobTrace) Add(ct CellTrace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cells = append(t.cells, ct)
	t.mu.Unlock()
}

// Cells returns the traces recorded so far, sorted by canonical cell
// index.
func (t *JobTrace) Cells() []CellTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]CellTrace(nil), t.cells...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
