// Prometheus text exposition (format version 0.0.4) rendered live from a
// recorder snapshot. The naming scheme:
//
//   - pipeline counters become "encore_<sanitized>_total" counters, except
//     the few with curated idiomatic names (scan.images.scanned ->
//     encore_scan_images_total);
//   - stage timers become two counter families keyed by a "stage" label,
//     encore_stage_seconds_total and encore_stage_runs_total;
//   - log2 latency histograms become classic Prometheus histograms in
//     seconds ("encore_<sanitized>_seconds" with cumulative _bucket series,
//     _sum, and _count), bucket upper bounds carried over from the fixed
//     microsecond<<i boundaries;
//   - the runtime sampler's latest reading becomes process gauges
//     (encore_heap_bytes, encore_goroutines, encore_progress_done/_total)
//     and cumulative GC counters;
//   - the current pipeline phase is an info-style gauge,
//     encore_phase{phase="..."} 1;
//   - labeled families render under their own names, each series as
//     name{labels}, the unlabeled one without braces.
//
// Families render sorted by metric name, so equal snapshots render to
// equal bytes.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promCounterNames maps the pipeline counters whose idiomatic Prometheus
// names differ from the generic sanitized fallback, which every other
// counter is exposed under.
var promCounterNames = map[string]string{
	CounterImagesScanned:    "encore_scan_images_total",
	CounterFindingsEmitted:  "encore_scan_findings_total",
	CounterMatrixCells:      "encore_evalmatrix_cells_total",
	CounterMatrixInjections: "encore_evalmatrix_injections_total",
	CounterMatrixFindings:   "encore_evalmatrix_findings_total",
}

// promSanitize rewrites an internal dotted name into a metric-name-safe
// token: every character outside [a-zA-Z0-9_] becomes '_'.
func promSanitize(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promCounterName resolves the exposition name for a pipeline counter.
func promCounterName(name string) string {
	if n, ok := promCounterNames[name]; ok {
		return n
	}
	return "encore_" + promSanitize(name) + "_total"
}

// promHistName resolves the exposition name for a latency histogram.
func promHistName(name string) string {
	return "encore_" + promSanitize(name) + "_seconds"
}

// promFloat formats a float sample value the way Prometheus expects
// (shortest round-trip representation; +Inf/-Inf/NaN spelled out).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendEscapedLabel appends a label value to dst escaped per the
// exposition format, without intermediate strings (clean values — the
// overwhelmingly common case — are a straight copy).
func appendEscapedLabel(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '"':
			dst = append(dst, '\\', '"')
		default:
			dst = append(dst, v[i])
		}
	}
	return dst
}

// promLabeledHelp curates HELP strings for the labeled families the serve
// daemon records; families not listed fall back to a generic line.
var promLabeledHelp = map[string]string{
	"encore_serve_requests_total":                   "Scan-service HTTP requests by app and status code.",
	"encore_serve_findings_total":                   "Findings returned by scan requests, by app and severity.",
	"encore_serve_scan_seconds":                     "Scan request latency by app (seconds).",
	"encore_serve_plans_loaded":                     "Plans currently resident in the profile registry.",
	"encore_serve_plan_swaps_total":                 "Hot swaps applied per app since daemon start.",
	"encore_serve_plan_last_swap_timestamp_seconds": "Unix time of the last plan swap per app.",
	"encore_serve_inflight_requests":                "Requests currently being served.",
	"encore_build_info":                             "Build metadata; the value is always 1.",
	"encore_alerts_total":                           "Alert delivery attempts by notifier, severity, and outcome.",
	"encore_fleet_images_total":                     "Images processed by the sharded fleet coordinator.",
	"encore_fleet_errors_total":                     "Per-image failures seen by the fleet coordinator.",
	"encore_fleet_steals_total":                     "Tasks work-stolen across fleet shards.",
	"encore_fleet_batches_total":                    "Fleet coordinator runs started.",
	"encore_fleet_shards":                           "Shard count of the most recent fleet run.",
	"encore_fleet_inflight_bytes":                   "Estimated bytes of image payloads currently in flight in the fleet coordinator.",
	"encore_fleet_inflight_highwater_bytes":         "Peak in-flight payload reservation of the most recent fleet run.",
	"encore_alerts_dropped_total":                   "Alerts dropped because the bounded queue was full.",
	"encore_alerts_suppressed_total":                "Alerts suppressed before delivery, by reason (policy, dedup, rate).",
	"encore_alert_queue_depth":                      "Alerts buffered in the pipeline queue awaiting dispatch.",
	"encore_alert_delivery_seconds":                 "Alert delivery latency per notifier (seconds).",
}

// promLabeledHelpFor resolves a labeled family's HELP string.
func promLabeledHelpFor(family, fallback string) string {
	if h, ok := promLabeledHelp[family]; ok {
		return h
	}
	return fallback
}

// promFamily is one metric family: the HELP/TYPE header plus its sample
// lines, accumulated then rendered in name order.
type promFamily struct {
	name, help, typ string
	lines           []string
}

// sample appends one sample line: name+suffix{labels} value.
func (f *promFamily) sample(suffix, labels, value string) {
	f.lines = append(f.lines, seriesName(f.name+suffix, labels)+" "+value)
}

// histogram appends one histogram series in seconds: cumulative _bucket
// lines with an le label after the series' own labels, ending at
// le="+Inf", then _sum and _count.
func (f *promFamily) histogram(labels string, h HistogramData) {
	le := func(bound string) string {
		if labels == "" {
			return `le="` + bound + `"`
		}
		return labels + `,le="` + bound + `"`
	}
	var cum uint64
	for _, b := range h.Buckets {
		if b.Upper == bucketUpper(histBuckets) {
			// The overflow bucket has no finite bound; its samples land
			// in the +Inf series below.
			continue
		}
		cum += b.Count
		f.sample("_bucket", le(promFloat(b.Upper.Seconds())), strconv.FormatUint(cum, 10))
	}
	f.sample("_bucket", le("+Inf"), strconv.FormatUint(h.Count, 10))
	f.sample("_sum", labels, promFloat(h.Sum.Seconds()))
	f.sample("_count", labels, strconv.FormatUint(h.Count, 10))
}

// PromText renders the snapshot in the Prometheus text exposition format,
// version 0.0.4. The output is deterministic for a given snapshot: metric
// families sort by name and every sample line within a family keeps
// insertion order (bucket bounds ascending, series and stages sorted).
func (s Snapshot) PromText() string {
	var families []*promFamily
	// family returns the family to append to: the last one when it has
	// this name (a family's series arrive contiguously), else a new one.
	family := func(name, help, typ string) *promFamily {
		if n := len(families); n > 0 && families[n-1].name == name {
			return families[n-1]
		}
		f := &promFamily{name: name, help: help, typ: typ}
		families = append(families, f)
		return f
	}

	if s.Phase != "" {
		family("encore_phase", "Current pipeline phase.", "gauge").sample("", L("phase", s.Phase), "1")
	}
	if s.BuildVersion != "" {
		family("encore_build_info", promLabeledHelpFor("encore_build_info", "Build metadata."), "gauge").
			sample("", L("go_version", s.GoVersion, "version", s.BuildVersion), "1")
	}
	for _, c := range s.LabeledCounters {
		family(c.Family, promLabeledHelpFor(c.Family, "Labeled counter "+c.Family+"."), "counter").
			sample("", c.Labels, strconv.FormatInt(c.Value, 10))
	}
	for _, g := range s.Gauges {
		family(g.Family, promLabeledHelpFor(g.Family, "Labeled gauge "+g.Family+"."), "gauge").
			sample("", g.Labels, promFloat(g.Value))
	}
	for _, h := range s.LabeledHistograms {
		family(h.Family, promLabeledHelpFor(h.Family, "Labeled latency histogram "+h.Family+" (seconds)."), "histogram").
			histogram(h.Labels, h.Data)
	}
	for _, c := range s.Counters {
		name := promCounterName(c.Name)
		family(name, "Pipeline counter "+c.Name+".", "counter").sample("", "", strconv.FormatInt(c.Value, 10))
	}
	for _, st := range s.Stages {
		family("encore_stage_seconds_total", "Accumulated wall-clock time per pipeline stage.", "counter").
			sample("", L("stage", st.Name), promFloat(st.Total.Seconds()))
	}
	for _, st := range s.Stages {
		family("encore_stage_runs_total", "Recorded runs per pipeline stage.", "counter").
			sample("", L("stage", st.Name), strconv.FormatInt(st.Runs, 10))
	}
	for _, h := range s.Histograms {
		family(promHistName(h.Name), "Latency histogram "+h.Name+" (seconds).", "histogram").histogram("", h)
	}

	if n := len(s.Runtime); n > 0 {
		latest := s.Runtime[n-1]
		one := func(name, help, typ, value string) { family(name, help, typ).sample("", "", value) }
		one("encore_heap_bytes", "Heap bytes in use (runtime.MemStats.HeapAlloc) at the last sample.", "gauge", strconv.FormatUint(latest.HeapBytes, 10))
		one("encore_goroutines", "Live goroutines at the last sample.", "gauge", strconv.Itoa(latest.Goroutines))
		one("encore_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter", promFloat(latest.GCPauseTotal.Seconds()))
		one("encore_gc_cycles_total", "Completed GC cycles.", "counter", strconv.FormatUint(uint64(latest.GCCycles), 10))
		if latest.ProgressTotal > 0 {
			one("encore_progress_done", "Batch units finished.", "gauge", strconv.FormatInt(latest.ProgressDone, 10))
			one("encore_progress_total", "Batch units expected.", "gauge", strconv.FormatInt(latest.ProgressTotal, 10))
		}
		one("encore_runtime_samples", "Runtime samples held in the ring buffer.", "gauge", strconv.Itoa(n))
		if s.SampleEvery > 0 {
			one("encore_runtime_sample_interval_seconds", "Runtime sampler cadence.", "gauge", promFloat(s.SampleEvery.Seconds()))
		}
	}

	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })
	var b strings.Builder
	for _, f := range families {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, line := range f.lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
