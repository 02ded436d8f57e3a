// Package telemetry is the observability layer threaded through the
// assembly, rule-inference, scan, and evaluation pipelines and the scan
// daemon. A Recorder keeps one table of metric families keyed by name,
// each of one kind:
//
//   - named counters (images parsed, attributes declared, rules
//     validated, findings emitted),
//   - accumulated per-stage wall-clock timers (the coarse unit kept for
//     compatibility with the original -stats output),
//   - log-bucketed latency histograms with quantile estimation — the
//     unit of timing truth for per-image parse, per-image scan, and
//     per-candidate validation latencies (see histogram.go),
//   - labeled counters, gauges and latency histograms for resident
//     services (see labeled.go),
//
// and, beside the table, hierarchical spans with attributes (image name,
// worker id, app), exportable as a Chrome trace_event timeline (see
// span.go, trace.go).
//
// A Recorder is safe for concurrent use — pipeline workers update it while
// running — and every method is nil-receiver safe, so instrumented code
// can call it unconditionally and pay nothing when telemetry is off.
// Snapshots export as deterministic text (Render), Prometheus text
// (PromText), a versioned JSON document (JSON/WriteJSON), or a Chrome
// trace (ChromeTrace); Mount serves the live ones over HTTP.
package telemetry

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter names used by the instrumented pipeline stages. Stages add their
// own names freely; these constants exist so the assembler, rule engine,
// and scan engine agree with the CLI's -stats rendering.
const (
	CounterImagesParsed   = "assemble.images.parsed"
	CounterFilesParsed    = "assemble.files.parsed"
	CounterAttrsDeclared  = "assemble.attributes.declared"
	CounterRulesValidated = "rules.candidates.validated"
	CounterRulesKept      = "rules.kept"
	// CounterRulesPrunedSupport counts candidates the columnar index killed
	// on the support bitset before any per-system validation; the entropy
	// variant counts candidates the memoized entropy filter rejected.
	CounterRulesPrunedSupport = "rules.pruned.support"
	CounterRulesPrunedEntropy = "rules.pruned.entropy"
	// Incremental-inference counters: candidates whose cached tally was
	// adjusted in O(Δrows) versus candidates that paid a full validation
	// sweep (new, type-shifted, stale state, or newly support-eligible).
	CounterRulesDeltaReused      = "rules.delta.reused"
	CounterRulesDeltaRevalidated = "rules.delta.revalidated"
	// Compiled-plan serialization counters: plans encoded to / loaded from
	// the binary format, with byte-volume twins for sizing dashboards.
	CounterPlanEncoded      = "plan.encoded"
	CounterPlanEncodedBytes = "plan.encoded.bytes"
	CounterPlanLoaded       = "plan.loaded"
	CounterPlanLoadedBytes  = "plan.loaded.bytes"
	CounterImagesScanned    = "scan.images.scanned"
	CounterFindingsEmitted  = "scan.findings.emitted"
	CounterScanErrors       = "scan.errors"
	// Evaluation-matrix counters: grid cells scored, ground-truth errors
	// injected into victim images (counted once per (population, kind)
	// victim set, which every configuration shares), and findings emitted
	// across all cells.
	CounterMatrixCells      = "evalmatrix.cells.scored"
	CounterMatrixInjections = "evalmatrix.injections.applied"
	CounterMatrixFindings   = "evalmatrix.findings.emitted"
)

// Stage names used by the instrumented pipeline stages.
const (
	StageAssembleParse = "assemble.parse"
	StageAssembleInfer = "assemble.infer"
	StageAssembleRows  = "assemble.rows"
	StageRulesInfer    = "rules.infer"
	StageScanBatch     = "scan.batch"
)

// Histogram names used by the instrumented pipeline stages: per-unit
// latency distributions where the stage timers above only keep totals.
const (
	HistImageParse   = "assemble.image.parse"
	HistImageScan    = "scan.image.scan"
	HistRuleValidate = "rules.candidate.validate"
	HistTargetCheck  = "detect.target.check"
)

// minRenderPad is the floor for the rendered name column, chosen so the
// original counter/stage names keep their historical alignment.
const minRenderPad = 36

// Recorder accumulates metrics and completed spans. Every metric lives in
// one table of families keyed by name, each holding its series keyed by
// canonical label string (see L; the flat kinds keep one series, under
// ""). A name has exactly one kind, fixed by its first resolve or update;
// updates of another kind under the same name are dropped, so no exported
// name ever carries two types.
//
// The lock guards the table's shape only. A series' values are atomics,
// so a handle resolved once (see handle.go) updates without the lock, and
// the by-name methods are a resolve followed by the same handle update.
type Recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	phase    string
	families map[string]*family
	// spanMu guards the completed spans apart from the metric table, so a
	// span's End never waits on a resolve or a /metrics scrape.
	spanMu sync.Mutex
	spans  []SpanData
	// spanCap bounds the retained completed spans (0 = unbounded, the
	// batch-pipeline default). Resident daemons set a cap so span storage
	// stays constant over hours of traffic; see SetSpanCap.
	spanCap      int
	buildVersion string
	goVersion    string
	sampler      *Sampler
	spanID       atomic.Int64
}

// kind is what a metric family measures, in the order Snapshot lists the
// kinds' sections.
type kind uint8

const (
	kindCounter          kind = iota // Add: an int64 total
	kindStage                        // Observe: wall-clock total and runs
	kindHistogram                    // ObserveDur, MergeHistogram
	kindLabeledCounter               // AddLabeled
	kindGauge                        // SetGauge
	kindLabeledHistogram             // ObserveLabeled
)

// family is one named metric: its kind and its series by label string.
type family struct {
	kind   kind
	series map[string]*series
}

// New returns an empty recorder. Span and trace timestamps are offsets
// from this moment.
func New() *Recorder {
	return &Recorder{epoch: time.Now(), families: make(map[string]*family)}
}

// resolve returns one series of name, creating the family and the series
// on first use. It returns nil on a nil recorder and when name already has
// another kind; every series update is a no-op on nil.
func (r *Recorder) resolve(name string, k kind, labels string) *series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{kind: k, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != k {
		return nil
	}
	s := f.series[labels]
	if s == nil {
		s = newSeries(k)
		f.series[labels] = s
	}
	return s
}

// read runs fn on one existing series of the given kind under the
// recorder lock; fn does not run when the series is absent or was
// resolved but never updated.
func (r *Recorder) read(name string, k kind, labels string, fn func(*series)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil && f.kind == k {
		if s := f.series[labels]; s != nil && s.live.Load() {
			fn(s)
		}
	}
}

// SetPhase records the pipeline phase the process is currently in; the
// live /healthz endpoint and the exported snapshot surface it. StartStage
// updates it automatically, so explicit calls are only needed for
// phases that are not stages ("learn", "done"). Safe on a nil recorder.
func (r *Recorder) SetPhase(phase string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phase = phase
	r.mu.Unlock()
}

// Phase returns the current pipeline phase ("" on a nil recorder).
func (r *Recorder) Phase() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase
}

// SetBuildInfo records the process build version; snapshots carry it and
// PromText exposes it as the classic info-style gauge
// encore_build_info{version,go_version} 1. The Go toolchain version is
// captured from the running binary. Safe on a nil recorder.
func (r *Recorder) SetBuildInfo(version string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buildVersion = version
	r.goVersion = runtime.Version()
	r.mu.Unlock()
}

// SetSpanCap bounds the number of completed spans the recorder retains:
// once the store exceeds cap, the oldest half is dropped in one bulk move
// (amortized O(1) per span). Batch pipelines keep the unbounded default
// so exported traces are complete; a resident daemon sets a cap so hours
// of request spans cannot grow memory without bound. Safe on a nil
// recorder.
func (r *Recorder) SetSpanCap(cap int) {
	if r == nil {
		return
	}
	r.spanMu.Lock()
	r.spanCap = cap
	r.spanMu.Unlock()
}

// AttachSampler folds a runtime sampler into the recorder: snapshots gain
// its ring-buffer timeseries, and the sampler's clock is aligned with the
// recorder epoch so spans and samples share a timeline. Attach before
// Sampler.Start. Safe on a nil recorder (the sampler is left detached).
func (r *Recorder) AttachSampler(s *Sampler) {
	if r == nil {
		return
	}
	s.SetEpoch(r.epoch)
	r.mu.Lock()
	r.sampler = s
	r.mu.Unlock()
}

// Add increments a named counter. Safe on a nil recorder.
func (r *Recorder) Add(name string, n int64) {
	r.resolve(name, kindCounter, "").add(n)
}

// Observe accumulates one timed run of a stage. Safe on a nil recorder.
func (r *Recorder) Observe(name string, d time.Duration) {
	r.resolve(name, kindStage, "").stage(d)
}

// ObserveDur records one latency sample into the named histogram. Safe on
// a nil recorder.
func (r *Recorder) ObserveDur(name string, d time.Duration) {
	r.resolve(name, kindHistogram, "").observe(d)
}

// MergeHistogram folds a locally accumulated histogram into the named
// recorder histogram. Pipeline workers keep a private Histogram in their
// hot loop (no lock per sample) and merge once when the pool drains.
// Safe on a nil recorder and with a nil or empty histogram.
func (r *Recorder) MergeHistogram(name string, h *Histogram) {
	if h == nil || h.count == 0 {
		return
	}
	r.resolve(name, kindHistogram, "").merge(h)
}

// StartStage starts timing a stage and returns the function that stops the
// timer and records the elapsed time. Safe on a nil recorder.
//
//	defer rec.StartStage(telemetry.StageAssembleParse)()
func (r *Recorder) StartStage(name string) func() {
	if r == nil {
		return func() {}
	}
	r.SetPhase(name)
	start := time.Now()
	return func() { r.Observe(name, time.Since(start)) }
}

// Counter returns the current value of a counter (0 if never added, or on
// a nil recorder).
func (r *Recorder) Counter(name string) (v int64) {
	r.read(name, kindCounter, "", func(s *series) { v = s.n.Load() })
	return v
}

// CounterValue is one named counter in a snapshot.
type CounterValue struct {
	Name  string
	Value int64
}

// StageTiming is one stage's accumulated wall-clock time in a snapshot.
type StageTiming struct {
	Name  string
	Total time.Duration
	Runs  int64
}

// Snapshot is a point-in-time copy of a recorder, ordered deterministically
// (counters, stages, and histograms by name; spans by start offset then id;
// runtime samples oldest-first) so that rendering and export are stable.
type Snapshot struct {
	Phase      string
	Counters   []CounterValue
	Stages     []StageTiming
	Histograms []HistogramData
	Spans      []SpanData
	// SampleEvery and Runtime carry the attached Sampler's cadence and
	// ring-buffer timeseries (zero/nil when no sampler is attached).
	SampleEvery time.Duration
	Runtime     []RuntimeSample
	// Labeled families (see labeled.go), sorted by (family, labels); all
	// empty for pipelines that never record labeled metrics.
	LabeledCounters   []LabeledValue
	Gauges            []GaugeValue
	LabeledHistograms []LabeledHistogramData
	// BuildVersion/GoVersion carry SetBuildInfo ("" when never set).
	BuildVersion string
	GoVersion    string
}

// Snapshot copies the recorder's current state. Safe on a nil recorder
// (returns an empty snapshot).
func (r *Recorder) Snapshot() Snapshot {
	s := r.metrics()
	if r == nil {
		return s
	}
	r.spanMu.Lock()
	s.Spans = append(s.Spans, r.spans...)
	r.spanMu.Unlock()
	// Sort the copy, not the store: span ends never wait on the sort.
	sort.Slice(s.Spans, func(i, j int) bool {
		if s.Spans[i].Start != s.Spans[j].Start {
			return s.Spans[i].Start < s.Spans[j].Start
		}
		return s.Spans[i].ID < s.Spans[j].ID
	})
	return s
}

// metrics is Snapshot without the spans: everything Render and PromText
// read, at a cost that does not grow with the retained spans.
func (r *Recorder) metrics() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	// Read the sampler outside r.mu: Sampler.Samples takes the sampler's
	// own lock and never calls back into the recorder.
	r.mu.Lock()
	sampler := r.sampler
	r.mu.Unlock()
	if sampler != nil {
		s.SampleEvery = sampler.Interval()
		s.Runtime = sampler.Samples()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Phase = r.phase
	s.BuildVersion = r.buildVersion
	s.GoVersion = r.goVersion
	type entry struct {
		name, labels string
		kind         kind
		s            *series
	}
	var all []entry
	for name, f := range r.families {
		for labels, sr := range f.series {
			if sr.live.Load() {
				all = append(all, entry{name, labels, f.kind, sr})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.labels < b.labels
	})
	for _, e := range all {
		switch e.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterValue{Name: e.name, Value: e.s.n.Load()})
		case kindStage:
			s.Stages = append(s.Stages, StageTiming{Name: e.name, Total: time.Duration(e.s.total.Load()), Runs: e.s.n.Load()})
		case kindHistogram:
			s.Histograms = append(s.Histograms, e.s.hist.data(e.name))
		case kindLabeledCounter:
			s.LabeledCounters = append(s.LabeledCounters, LabeledValue{Family: e.name, Labels: e.labels, Value: e.s.n.Load()})
		case kindGauge:
			s.Gauges = append(s.Gauges, GaugeValue{Family: e.name, Labels: e.labels, Value: e.s.gauge()})
		case kindLabeledHistogram:
			s.LabeledHistograms = append(s.LabeledHistograms, LabeledHistogramData{Family: e.name, Labels: e.labels, Data: e.s.hist.data(e.name)})
		}
	}
	return s
}

// renderPad returns the width of the name column: wide enough for the
// longest name in the snapshot, never narrower than the historical fixed
// width (which keeps the original goldens byte-stable).
func (s Snapshot) renderPad() int {
	pad := minRenderPad
	grow := func(name string) {
		if len(name) > pad {
			pad = len(name)
		}
	}
	for _, c := range s.Counters {
		grow(c.Name)
	}
	for _, st := range s.Stages {
		grow(st.Name)
	}
	for _, h := range s.Histograms {
		grow(h.Name)
	}
	return pad
}

// Render formats the snapshot as the CLI's -stats block: counters first,
// then stage timings, then latency histograms, all sorted by name. Spans
// are export-only (JSON/trace); they would swamp the text block.
func (s Snapshot) Render() string {
	var b strings.Builder
	pad := s.renderPad()
	b.WriteString("stats:\n")
	if len(s.Counters) > 0 {
		b.WriteString("  counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "    %-*s %d\n", pad, c.Name, c.Value)
		}
	}
	if len(s.Stages) > 0 {
		b.WriteString("  stages:\n")
		for _, st := range s.Stages {
			fmt.Fprintf(&b, "    %-*s %s (%d runs)\n", pad, st.Name, st.Total.Round(time.Microsecond), st.Runs)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("  latency:\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "    %-*s %s\n", pad, h.Name, latencySummary(h))
		}
	}
	if len(s.LabeledCounters) > 0 || len(s.Gauges) > 0 {
		b.WriteString("  labeled:\n")
		for _, c := range s.LabeledCounters {
			fmt.Fprintf(&b, "    %s %d\n", seriesName(c.Family, c.Labels), c.Value)
		}
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "    %s %g\n", seriesName(g.Family, g.Labels), g.Value)
		}
	}
	if len(s.LabeledHistograms) > 0 {
		b.WriteString("  labeled latency:\n")
		for _, h := range s.LabeledHistograms {
			fmt.Fprintf(&b, "    %s %s\n", seriesName(h.Family, h.Labels), latencySummary(h.Data))
		}
	}
	if len(s.Counters) == 0 && len(s.Stages) == 0 && len(s.Histograms) == 0 &&
		len(s.LabeledCounters) == 0 && len(s.Gauges) == 0 && len(s.LabeledHistograms) == 0 {
		b.WriteString("  (empty)\n")
	}
	return b.String()
}

// Render formats the recorder's current state; see Snapshot.Render.
func (r *Recorder) Render() string { return r.metrics().Render() }

// latencySummary is a histogram's -stats row: sample count and quantiles.
func latencySummary(h HistogramData) string {
	return fmt.Sprintf("n=%d p50=%s p90=%s p99=%s max=%s", h.Count,
		h.P50.Round(time.Microsecond), h.P90.Round(time.Microsecond),
		h.P99.Round(time.Microsecond), h.Max.Round(time.Microsecond))
}
