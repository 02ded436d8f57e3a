// Labeled series for long-running services. A resident daemon needs
// families broken out by label — requests by (app, code), scan latency by
// app, findings by (app, severity), registry gauges by app — beside the
// flat pipeline counters and histograms that describe one batch run. Both
// live in the recorder's one family table (telemetry.go): a labeled family
// is keyed by its full Prometheus exposition name (e.g.
// "encore_serve_requests_total"), and each of its series by a
// pre-rendered label string built with L, so an update is one family
// lookup and one series lookup, and rendering is a straight copy.
//
// Snapshots list labeled series in their own sections: PromText renders
// them as first-class Prometheus families (histograms with labeled
// _bucket/_sum/_count series), the JSON export appends them as optional
// sections (absent when empty, so pre-existing goldens are unaffected),
// and Render lists them after the flat sections.
package telemetry

import "time"

// L renders a label set into its canonical exposition form:
//
//	L("app", "mysql", "code", "200") == `app="mysql",code="200"`
//
// Keys sort lexicographically so equal label sets render to equal strings
// (the map key for the family's series). Values are escaped per the
// exposition format. An odd trailing key is dropped. An empty call
// returns "", the unlabeled series of a family.
// L sits on the daemon's per-request hot path (three calls per scan), so
// it allocates exactly once — the returned string. Pairs sort on a stack
// array (label sets are tiny; insertion sort beats sort.Slice's closure
// allocations) and the rendering buffer starts on the stack too, escaping
// only via the final string conversion when it stays within bounds.
func L(kv ...string) string {
	n := len(kv) / 2
	if n == 0 {
		return ""
	}
	type pair struct{ k, v string }
	var scratch [8]pair
	var pairs []pair
	if n <= len(scratch) {
		pairs = scratch[:0]
	} else {
		pairs = make([]pair, 0, n)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].k < pairs[j-1].k; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	var bufArr [96]byte
	out := bufArr[:0]
	for i, p := range pairs {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, p.k...)
		out = append(out, '=', '"')
		out = appendEscapedLabel(out, p.v)
		out = append(out, '"')
	}
	return string(out)
}

// seriesName renders one series as name{labels}, or as the bare name for
// the unlabeled series; Render and PromText both print series through it.
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// AddLabeled increments one series of a labeled counter family. family is
// the full exposition name ("encore_serve_requests_total"); labels is a
// canonical label string from L. Safe on a nil recorder.
func (r *Recorder) AddLabeled(family, labels string, n int64) {
	r.resolve(family, kindLabeledCounter, labels).add(n)
}

// LabeledCounter reads one series of a labeled counter family (0 when the
// series was never incremented, or on a nil recorder).
func (r *Recorder) LabeledCounter(family, labels string) (v int64) {
	r.read(family, kindLabeledCounter, labels, func(s *series) { v = s.n.Load() })
	return v
}

// SetGauge sets one series of a labeled gauge family to an absolute
// value (use labels == "" for an unlabeled gauge). Safe on a nil
// recorder.
func (r *Recorder) SetGauge(family, labels string, v float64) {
	r.resolve(family, kindGauge, labels).set(v)
}

// Gauge reads one series of a labeled gauge family.
func (r *Recorder) Gauge(family, labels string) (v float64, ok bool) {
	r.read(family, kindGauge, labels, func(s *series) { v, ok = s.gauge(), true })
	return v, ok
}

// ObserveLabeled records one latency sample into one series of a labeled
// histogram family. family is the full exposition base name
// ("encore_serve_scan_seconds" — PromText derives the _bucket/_sum/_count
// series from it). Safe on a nil recorder.
func (r *Recorder) ObserveLabeled(family, labels string, d time.Duration) {
	r.resolve(family, kindLabeledHistogram, labels).observe(d)
}

// LabeledHistogram snapshots one series of a labeled histogram family
// (quantiles included); ok is false when the series has no samples.
func (r *Recorder) LabeledHistogram(family, labels string) (d HistogramData, ok bool) {
	r.read(family, kindLabeledHistogram, labels, func(s *series) { d, ok = s.hist.data(family), true })
	return d, ok
}

// LabeledValue is one series of a labeled counter family in a snapshot.
type LabeledValue struct {
	Family string
	Labels string
	Value  int64
}

// GaugeValue is one series of a labeled gauge family in a snapshot.
type GaugeValue struct {
	Family string
	Labels string
	Value  float64
}

// LabeledHistogramData is one series of a labeled histogram family in a
// snapshot.
type LabeledHistogramData struct {
	Family string
	Labels string
	Data   HistogramData
}
