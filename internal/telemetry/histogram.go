package telemetry

import (
	"math"
	"time"
)

// Histogram buckets are fixed log2 boundaries: bucket i counts samples d
// with upper(i-1) < d <= upper(i), where upper(i) = 1µs << i. Forty
// boundaries reach ~152 hours, far past any realistic pipeline latency;
// one extra overflow bucket catches the rest. Fixed boundaries mean two
// histograms — e.g. one per pool worker — merge by adding counts, with no
// rebucketing and no loss beyond the original bucket resolution.
const histBuckets = 40

// Histogram is a log-bucketed latency distribution. The zero value is
// ready to use. It is NOT safe for concurrent use: either confine one
// histogram per goroutine and fold the results with Recorder.MergeHistogram,
// or record through Recorder.ObserveDur, whose series updates atomically.
type Histogram struct {
	buckets [histBuckets + 1]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// bucketUpper returns the inclusive upper bound of bucket i; the overflow
// bucket's bound is the maximum Duration.
func bucketUpper(i int) time.Duration {
	if i >= histBuckets {
		return time.Duration(math.MaxInt64)
	}
	return time.Microsecond << i
}

// bucketFor returns the bucket index for one sample. Negative samples
// (clock weirdness) land in bucket 0 with the sub-microsecond ones.
func bucketFor(d time.Duration) int {
	for i := 0; i < histBuckets; i++ {
		if d <= bucketUpper(i) {
			return i
		}
	}
	return histBuckets
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketFor(d)]++
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if h.count == 0 || d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
}

// Merge adds another histogram's samples into h. Merging per-worker
// histograms is equivalent to observing every sample into one histogram:
// the bucket boundaries are fixed, and min/max/sum/count are all
// order-independent.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all recorded samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile (0 <= q <= 1) by locating the bucket
// holding the ceil(q*count)-th smallest sample and interpolating linearly
// inside it. The estimate is clamped to the observed [min, max], so it
// always lies within the bucket that holds the true sample quantile under
// the same nearest-rank rule — the property the oracle tests assert.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if cum+n < target {
			cum += n
			continue
		}
		lower := time.Duration(0)
		if i > 0 {
			lower = bucketUpper(i - 1)
		}
		upper := bucketUpper(i)
		if i == histBuckets {
			// Overflow bucket: the real upper bound is whatever we saw.
			upper = h.max
		}
		pos := float64(target-cum) / float64(n)
		v := lower + time.Duration(pos*float64(upper-lower))
		return h.clamp(v)
	}
	return h.clamp(h.max)
}

func (h *Histogram) clamp(d time.Duration) time.Duration {
	if d < h.min {
		return h.min
	}
	if d > h.max {
		return h.max
	}
	return d
}

// Bucket is one non-empty histogram bucket in a snapshot. Upper is the
// inclusive upper bound; the overflow bucket reports the maximum Duration.
type Bucket struct {
	Upper time.Duration
	Count uint64
}

// HistogramData is one histogram in a snapshot: the summary statistics,
// the estimated quantiles, and the non-empty buckets in ascending bound
// order.
type HistogramData struct {
	Name          string
	Count         uint64
	Sum, Min, Max time.Duration
	P50, P90, P99 time.Duration
	Buckets       []Bucket
}

// data snapshots the histogram.
func (h *Histogram) data(name string) HistogramData {
	d := HistogramData{
		Name:  name,
		Count: h.count,
		Sum:   h.sum,
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	for i, n := range h.buckets {
		if n > 0 {
			d.Buckets = append(d.Buckets, Bucket{Upper: bucketUpper(i), Count: n})
		}
	}
	return d
}
