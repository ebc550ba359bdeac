package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of a latency histogram. Bucket i
// holds observations whose microsecond value has bit length i, i.e.
// durations in [2^(i-1), 2^i) µs; bucket 0 holds sub-microsecond
// observations. 48 buckets cover ~8.9 years, far past any phase.
const histBuckets = 48

// Histogram is a lock-free power-of-two-bucket latency histogram:
// Observe is a few atomic adds, so the hot execution path can record
// every phase of every cell without contending on a lock. Quantiles
// are estimated from a snapshot by log-linear interpolation inside the
// winning bucket — exact to within a factor of 2, which is the right
// fidelity for "where did the time go" questions.
type Histogram struct {
	count   atomic.Uint64
	sumUS   atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	i := bits.Len64(uint64(us))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.count.Add(1)
	h.sumUS.Add(uint64(us))
	h.buckets[i].Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram's counters.
type HistSnapshot struct {
	Count   uint64
	SumUS   uint64
	Buckets [histBuckets]uint64
}

// Snapshot copies the counters. Concurrent Observe calls may land
// between bucket reads; the snapshot is still internally plausible
// (monotone counters, count >= sum of observed buckets read earlier).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.SumUS = h.sumUS.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) in microseconds by
// locating the bucket holding the q-th observation and interpolating
// geometrically within its [2^(i-1), 2^i) range. Returns 0 for an
// empty histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	total := uint64(0)
	for _, n := range s.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next || i == histBuckets-1 {
			if i == 0 {
				return 0 // sub-microsecond bucket
			}
			lo := math.Exp2(float64(i - 1))
			frac := (rank - cum) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			// Geometric interpolation: the bucket spans one octave.
			return lo * math.Exp2(frac)
		}
		cum = next
	}
	return 0
}

// PhaseStats is one row of an Observer snapshot: a phase's histogram
// rendered to the percentiles /metrics exposes.
type PhaseStats struct {
	Phase string
	Count uint64
	SumUS uint64
	P50   float64 // microseconds
	P90   float64
	P99   float64
}

// Observer is the process-level aggregation point: one histogram per
// phase fed by the spans of every JobTrace carrying it, plus a sliding
// one-minute completion-rate window for /metrics. Histogram updates
// are lock-free; the map of histograms takes a read lock on the fast
// path and a write lock only when a phase first appears.
type Observer struct {
	mu    sync.RWMutex
	hists map[string]*Histogram
	rate  RateWindow
}

// NewObserver returns an empty observer.
func NewObserver() *Observer {
	return &Observer{hists: map[string]*Histogram{}}
}

// Hist returns the histogram for a phase, creating it on first use.
func (o *Observer) Hist(phase string) *Histogram {
	o.mu.RLock()
	h := o.hists[phase]
	o.mu.RUnlock()
	if h != nil {
		return h
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if h = o.hists[phase]; h == nil {
		h = &Histogram{}
		o.hists[phase] = h
	}
	return h
}

// observeSpans records every span's duration into its phase's
// histogram. Nil-safe.
func (o *Observer) observeSpans(spans []Span) {
	if o == nil {
		return
	}
	for _, sp := range spans {
		o.Hist(sp.Phase).Observe(time.Duration(sp.DurUS) * time.Microsecond)
	}
}

// CellDone bumps the completion-rate window. Nil-safe.
func (o *Observer) CellDone(now time.Time) {
	if o == nil {
		return
	}
	o.rate.Bump(now)
}

// Rate reports cell completions per second over the trailing minute.
func (o *Observer) Rate(now time.Time) float64 {
	if o == nil {
		return 0
	}
	return o.rate.Rate(now)
}

// Snapshot renders every histogram to its percentile row, sorted by
// phase so /metrics output is stable.
func (o *Observer) Snapshot() []PhaseStats {
	if o == nil {
		return nil
	}
	o.mu.RLock()
	phases := make([]string, 0, len(o.hists))
	for phase := range o.hists {
		phases = append(phases, phase)
	}
	o.mu.RUnlock()
	sort.Strings(phases)
	out := make([]PhaseStats, 0, len(phases))
	for _, phase := range phases {
		s := o.Hist(phase).Snapshot()
		if s.Count == 0 {
			continue
		}
		out = append(out, PhaseStats{
			Phase: phase,
			Count: s.Count,
			SumUS: s.SumUS,
			P50:   s.Quantile(0.50),
			P90:   s.Quantile(0.90),
			P99:   s.Quantile(0.99),
		})
	}
	return out
}

// rateBuckets is the sliding window's resolution: one bucket per
// second over the trailing minute.
const rateBuckets = 60

// RateWindow counts events over a trailing one-minute window with
// per-second buckets, for the /metrics cells_per_sec_1m gauge — the
// fix for the lifetime cells_per_sec rate that decays toward zero the
// longer an idle daemon runs. A window bump is one short mutex hold
// (once per finished cell — far off any hot path).
type RateWindow struct {
	mu     sync.Mutex
	secs   [rateBuckets]int64 // unix second each bucket currently counts
	counts [rateBuckets]uint64
}

// Bump records one event at now.
func (r *RateWindow) Bump(now time.Time) {
	sec := now.Unix()
	i := int(sec % rateBuckets)
	if i < 0 {
		i += rateBuckets
	}
	r.mu.Lock()
	if r.secs[i] != sec {
		r.secs[i] = sec
		r.counts[i] = 0
	}
	r.counts[i]++
	r.mu.Unlock()
}

// Rate reports events per second over the window ending at now:
// events within the last rateBuckets seconds divided by the window
// length.
func (r *RateWindow) Rate(now time.Time) float64 {
	sec := now.Unix()
	total := uint64(0)
	r.mu.Lock()
	for i := range r.secs {
		if age := sec - r.secs[i]; age >= 0 && age < rateBuckets {
			total += r.counts[i]
		}
	}
	r.mu.Unlock()
	return float64(total) / float64(rateBuckets)
}
