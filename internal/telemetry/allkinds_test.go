package telemetry

import (
	"strings"
	"testing"
	"time"
)

// allKindsFixture records one or more series of every metric kind the
// recorder stores — counters, stages, histograms observed directly and
// merged from worker-local copies, labeled counters with and without
// labels, gauges with and without labels, labeled histograms with and
// without labels — plus the phase and build info, with fixed values so
// every export is deterministic.
func allKindsFixture() Snapshot {
	r := New()
	r.SetPhase("scan")
	r.SetBuildInfo("v1.2.3")
	r.Add(CounterImagesScanned, 12)
	r.Add(CounterPlanLoaded, 2)
	r.Add("custom.thing-2", 5)
	r.Observe(StageScanBatch, 9100*time.Microsecond)
	r.Observe(StageAssembleParse, 1530*time.Microsecond)
	r.Observe(StageScanBatch, 900*time.Microsecond)
	r.ObserveDur(HistImageParse, 40*time.Microsecond)
	r.ObserveDur(HistImageParse, 3*time.Millisecond)
	var local Histogram
	for _, d := range []time.Duration{500 * time.Nanosecond, 70 * time.Microsecond, 1200 * time.Microsecond} {
		local.Observe(d)
	}
	r.MergeHistogram(HistImageScan, &local)
	r.MergeHistogram(HistImageScan, &local)

	r.AddLabeled("encore_serve_requests_total", L("app", "mysql", "code", "200"), 3)
	r.AddLabeled("encore_serve_requests_total", L("app", "", "code", "404"), 1)
	r.AddLabeled("encore_serve_requests_total", L("code", "500", "app", `a"b\c`+"\n"), 2)
	r.AddLabeled("encore_fleet_batches_total", "", 1)
	r.AddLabeled("encore_custom_events_total", L("kind", "x"), 4)
	r.SetGauge("encore_serve_plans_loaded", "", 2)
	r.SetGauge("encore_serve_plan_last_swap_timestamp_seconds", L("app", "mysql"), 1.7e9)
	r.SetGauge("encore_fleet_inflight_bytes", "", 0.5)
	r.ObserveLabeled("encore_serve_scan_seconds", L("app", "mysql"), 100*time.Microsecond)
	r.ObserveLabeled("encore_serve_scan_seconds", L("app", "mysql"), 3*time.Millisecond)
	r.ObserveLabeled("encore_serve_scan_seconds", L("app", "apache"), 20*time.Microsecond)
	r.ObserveLabeled("encore_alert_delivery_seconds", "", 7*time.Millisecond)

	s := r.Snapshot()
	// The Go toolchain version is the one input that varies by machine.
	s.GoVersion = "go-fixture"
	return s
}

// TestAllKindsGolden locks the text, Prometheus and JSON exports of every
// series kind byte-for-byte.
func TestAllKindsGolden(t *testing.T) {
	s := allKindsFixture()
	js, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("== Render\n")
	b.WriteString(s.Render())
	b.WriteString("== PromText\n")
	b.WriteString(s.PromText())
	b.WriteString("== JSON\n")
	b.Write(js)
	checkGolden(t, []byte(b.String()), "allkinds.golden")
}
