// Metric handles. A hot path resolves each series it updates once, at
// setup — the daemon when an app is registered, the alert pipeline per
// notifier, the fleet coordinator per run, the assembler per recorder —
// and then updates it through
// the handle: one atomic operation per update, with no label string
// rendered and no recorder lock taken. The by-name methods (Add,
// AddLabeled, SetGauge, ObserveLabeled, ...) resolve and then update
// through the same series methods, so there is one update path.
//
// A handle points into the recorder's one family table. A series that a
// handle resolved but nothing has updated yet is not live: it appears in
// no snapshot, scrape or reader, so resolving handles up front never
// changes what an export shows.
package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// series is one label set's value. Counters use n, stages n (runs) and
// total, gauges v (float64 bits); only the histogram kinds allocate hist.
// live turns true after the first update.
type series struct {
	live  atomic.Bool
	n     atomic.Int64
	total atomic.Int64
	v     atomic.Uint64
	hist  *liveHistogram
}

func newSeries(k kind) *series {
	s := &series{}
	if k == kindHistogram || k == kindLabeledHistogram {
		s.hist = newLiveHistogram()
	}
	return s
}

// updated marks the series live. It runs after the value is written, so a
// snapshot that sees a live series sees at least one update; the load
// first keeps the shared flag's cache line clean once set.
func (s *series) updated() {
	if !s.live.Load() {
		s.live.Store(true)
	}
}

func (s *series) add(n int64) {
	if s != nil {
		s.n.Add(n)
		s.updated()
	}
}

func (s *series) stage(d time.Duration) {
	if s != nil {
		s.total.Add(int64(d))
		s.n.Add(1)
		s.updated()
	}
}

func (s *series) set(v float64) {
	if s != nil {
		s.v.Store(math.Float64bits(v))
		s.updated()
	}
}

func (s *series) gauge() float64 { return math.Float64frombits(s.v.Load()) }

func (s *series) observe(d time.Duration) {
	if s != nil {
		s.hist.observe(d)
		s.updated()
	}
}

func (s *series) merge(h *Histogram) {
	if s != nil {
		s.hist.merge(h)
		s.updated()
	}
}

// Counter is a resolved counter series (flat or labeled). The zero
// Counter — a nil recorder's, or one resolved under a name of another
// kind — does nothing.
type Counter struct{ s *series }

// Add increments the counter.
func (c Counter) Add(n int64) { c.s.add(n) }

// Gauge is a resolved gauge series; the zero Gauge does nothing.
type Gauge struct{ s *series }

// Set sets the gauge to an absolute value.
func (g Gauge) Set(v float64) { g.s.set(v) }

// Latency is a resolved latency-histogram series (flat or labeled); the
// zero Latency does nothing.
type Latency struct{ s *series }

// Observe records one latency sample.
func (l Latency) Observe(d time.Duration) { l.s.observe(d) }

// CounterOf resolves a flat pipeline counter (see Add).
func (r *Recorder) CounterOf(name string) Counter {
	return Counter{r.resolve(name, kindCounter, "")}
}

// LabeledCounterOf resolves one series of a labeled counter family (see
// AddLabeled).
func (r *Recorder) LabeledCounterOf(family, labels string) Counter {
	return Counter{r.resolve(family, kindLabeledCounter, labels)}
}

// GaugeOf resolves one series of a gauge family (see SetGauge).
func (r *Recorder) GaugeOf(family, labels string) Gauge {
	return Gauge{r.resolve(family, kindGauge, labels)}
}

// HistogramOf resolves a flat latency histogram (see ObserveDur).
func (r *Recorder) HistogramOf(name string) Latency {
	return Latency{r.resolve(name, kindHistogram, "")}
}

// LatencyOf resolves one series of a labeled latency-histogram family
// (see ObserveLabeled).
func (r *Recorder) LatencyOf(family, labels string) Latency {
	return Latency{r.resolve(family, kindLabeledHistogram, labels)}
}

// liveHistogram is a recorder series' Histogram: the same fixed buckets,
// each updated atomically so concurrent observers take no lock. Its count
// is the sum of its buckets, so an exported count always matches its
// buckets. min and max start at the opposite extremes and only move
// toward the samples.
type liveHistogram struct {
	buckets  [histBuckets + 1]atomic.Uint64
	sum      atomic.Int64
	min, max atomic.Int64
}

func newLiveHistogram() *liveHistogram {
	h := &liveHistogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// observe records one sample. The bucket count goes last: a reader that
// sees it also sees the sample's min, max and sum.
func (h *liveHistogram) observe(d time.Duration) {
	h.bound(int64(d), int64(d))
	h.sum.Add(int64(d))
	h.buckets[bucketFor(d)].Add(1)
}

// merge folds a worker's private histogram in, as Histogram.Merge does.
func (h *liveHistogram) merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	h.bound(int64(o.min), int64(o.max))
	h.sum.Add(int64(o.sum))
	for i, n := range o.buckets {
		if n > 0 {
			h.buckets[i].Add(n)
		}
	}
}

// bound lowers min to lo and raises max to hi where they are beyond them.
func (h *liveHistogram) bound(lo, hi int64) {
	for cur := h.min.Load(); lo < cur && !h.min.CompareAndSwap(cur, lo); cur = h.min.Load() {
	}
	for cur := h.max.Load(); hi > cur && !h.max.CompareAndSwap(cur, hi); cur = h.max.Load() {
	}
}

// data snapshots the histogram: buckets first, then the bounds and sum
// their samples wrote before them.
func (h *liveHistogram) data(name string) HistogramData {
	var c Histogram
	for i := range h.buckets {
		c.buckets[i] = h.buckets[i].Load()
		c.count += c.buckets[i]
	}
	if c.count > 0 {
		c.sum = time.Duration(h.sum.Load())
		c.min = time.Duration(h.min.Load())
		c.max = time.Duration(h.max.Load())
	}
	return c.data(name)
}
