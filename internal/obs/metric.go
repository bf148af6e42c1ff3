// Package obs is the repository's zero-dependency observability core:
// lock-free counters, gauges and fixed-bucket histograms on
// sync/atomic, a Registry that names and exposes them in Prometheus
// text and expvar-style JSON, an HTTP exposition server (Serve), and a
// sampled structured event tracer (Tracer) for chunk/object lifecycle
// events.
//
// The design rule is that instrumentation must be safe to leave in hot
// paths unconditionally:
//
//   - every method on *Counter, *Gauge, *Histogram and *Tracer is
//     nil-safe — a nil receiver is a no-op — so uninstrumented code
//     pays one branch, allocates nothing, and needs no "is metrics on"
//     plumbing;
//   - counters and histogram buckets are single atomic adds, shareable
//     across goroutines without locks;
//   - histogram snapshots are value types that Merge exactly like the
//     stats.Accumulator discipline: per-worker partials combine into
//     the same totals a single stream would produce, independent of
//     worker count.
//
// Raw histogram observations are int64 in whatever unit the caller
// measures (nanoseconds, bytes); each histogram carries a Unit scale
// applied only at exposition, so the hot path never touches floating
// point.
package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; all methods are nil-safe no-ops.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (0 on a nil counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 level. The zero value is ready to use; all
// methods are nil-safe no-ops.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds delta (negative deltas decrease the gauge).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value (0 on a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts int64 observations into fixed buckets with lock-free
// per-bucket atomics. Bucket i counts observations <= Bounds[i]; one
// implicit overflow bucket catches the rest (the Prometheus +Inf
// bucket). Observations and the running sum stay integers on the hot
// path; Unit rescales them to the exported float unit at exposition
// (e.g. raw nanoseconds with Unit 1e-9 export as seconds).
type Histogram struct {
	bounds []int64
	unit   float64
	counts []atomic.Uint64 // len(bounds)+1; last = overflow
	sum    atomic.Int64
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds. Unit scales raw observations to the exported unit; 0
// means 1 (export raw values).
func NewHistogram(bounds []int64, unit float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d (%d <= %d)",
				i, bounds[i], bounds[i-1]))
		}
	}
	if unit == 0 {
		unit = 1
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		unit:   unit,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. Nil-safe; lock-free (a binary search over
// the bounds plus two atomic adds).
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value for the price of
// one, so a hot loop can tally a repeated value locally and publish it
// in bulk.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	// Binary search for the first bound >= v; typical bucket counts
	// (10-30) make this a handful of well-predicted compares.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(n)
	h.sum.Add(v * int64(n))
}

// Snapshot captures the histogram's current state as a mergeable value.
// Buckets are read without a global lock, so a snapshot taken during
// concurrent Observes is a consistent-enough point-in-time view (each
// bucket individually exact, totals monotone) — the standard exposition
// contract.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds, // immutable after construction; shared, not copied
		Unit:   h.unit,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time histogram state: per-bucket counts
// (not cumulative; Counts[len(Bounds)] is the overflow bucket), the raw
// integer sum, and the exposition scale.
type HistSnapshot struct {
	Bounds []int64
	Unit   float64
	Counts []uint64
	Sum    int64
}

// Total returns the observation count.
func (s HistSnapshot) Total() uint64 {
	var t uint64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// Merge folds another snapshot into s, as if every observation behind o
// had been made on s's histogram. Counts and sums are integers, so the
// merge is exact and associative: partial snapshots from any number of
// workers combine into the same totals one histogram would hold —
// byte-identical under any merge order or worker count. Merging
// snapshots with different bucket bounds is an error.
func (s *HistSnapshot) Merge(o HistSnapshot) error {
	if len(o.Counts) == 0 {
		return nil
	}
	if len(s.Counts) == 0 {
		s.Bounds = append([]int64(nil), o.Bounds...)
		s.Unit = o.Unit
		s.Counts = append([]uint64(nil), o.Counts...)
		s.Sum = o.Sum
		return nil
	}
	if len(s.Bounds) != len(o.Bounds) {
		return fmt.Errorf("obs: merging histograms with %d vs %d buckets", len(s.Bounds), len(o.Bounds))
	}
	for i, b := range s.Bounds {
		if o.Bounds[i] != b {
			return fmt.Errorf("obs: merging histograms with different bounds at %d (%d vs %d)",
				i, b, o.Bounds[i])
		}
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
	return nil
}

// ExpBuckets returns n strictly increasing bounds starting at first and
// growing by factor (rounded up to stay strictly increasing).
func ExpBuckets(first int64, factor float64, n int) []int64 {
	if first <= 0 || factor <= 1 || n <= 0 {
		panic("obs: ExpBuckets needs first > 0, factor > 1, n > 0")
	}
	out := make([]int64, n)
	v := float64(first)
	prev := int64(0)
	for i := range out {
		b := int64(math.Round(v))
		if b <= prev {
			b = prev + 1
		}
		out[i] = b
		prev = b
		v *= factor
	}
	return out
}

// LinearBuckets returns n bounds first, first+step, ...
func LinearBuckets(first, step int64, n int) []int64 {
	if step <= 0 || n <= 0 {
		panic("obs: LinearBuckets needs step > 0, n > 0")
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)*step
	}
	return out
}

// DurationBuckets is the default latency bucketing for nanosecond
// observations exported as seconds: 16 exponential buckets from 10µs to
// ~5 minutes, Unit 1e-9.
func DurationBuckets() []int64 { return ExpBuckets(10_000, 4, 16) }

// SecondsUnit is the Unit for nanosecond observations exported as
// Prometheus seconds.
const SecondsUnit = 1e-9
