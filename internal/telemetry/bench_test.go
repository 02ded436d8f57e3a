package telemetry

import (
	"testing"
	"time"
)

// BenchmarkRecorderUpdates times the seven recorder updates one fleet
// image makes when a recorder and an alert pipeline are attached: the
// in-flight budget gauge, the scanned and findings counters and the fleet
// image counter on the worker, the alert queue gauge on publish, and the
// delivery counter and latency histogram on dispatch. One op is all
// seven; RunParallel spreads them over GOMAXPROCS goroutines sharing one
// recorder, as the fleet's workers do. Label strings are rendered once,
// as the hot paths hold them, so the updates themselves must not
// allocate.
func BenchmarkRecorderUpdates(b *testing.B) {
	r := New()
	delivered := L("notifier", "hook", "outcome", "ok", "severity", "high")
	notifier := L("notifier", "hook")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.SetGauge("encore_fleet_inflight_bytes", "", 4096)
			r.Add(CounterImagesScanned, 1)
			r.AddLabeled("encore_fleet_images_total", "", 1)
			r.Add(CounterFindingsEmitted, 2)
			r.SetGauge("encore_alert_queue_depth", "", 1)
			r.AddLabeled("encore_alerts_total", delivered, 1)
			r.ObserveLabeled("encore_alert_delivery_seconds", notifier, 40*time.Microsecond)
		}
	})
}

// BenchmarkRecorderHandles times the same seven updates through handles
// resolved once, as the fleet worker, the serve handler and the alert
// dispatcher now make them: atomic updates with no recorder lock.
func BenchmarkRecorderHandles(b *testing.B) {
	r := New()
	inflight := r.GaugeOf("encore_fleet_inflight_bytes", "")
	scanned := r.CounterOf(CounterImagesScanned)
	images := r.LabeledCounterOf("encore_fleet_images_total", "")
	findings := r.CounterOf(CounterFindingsEmitted)
	depth := r.GaugeOf("encore_alert_queue_depth", "")
	delivered := r.LabeledCounterOf("encore_alerts_total", L("notifier", "hook", "outcome", "ok", "severity", "high"))
	delivery := r.LatencyOf("encore_alert_delivery_seconds", L("notifier", "hook"))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			inflight.Set(4096)
			scanned.Add(1)
			images.Add(1)
			findings.Add(2)
			depth.Set(1)
			delivered.Add(1)
			delivery.Observe(40 * time.Microsecond)
		}
	})
}
