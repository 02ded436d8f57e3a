package telemetry

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHandlesMatchByName: updates through resolved handles land in the
// same series, and render the same bytes, as the by-name methods.
func TestHandlesMatchByName(t *testing.T) {
	byName, handles := New(), New()
	app := L("app", "mysql")
	byName.Add(CounterImagesScanned, 3)
	byName.AddLabeled("encore_serve_findings_total", L("app", "mysql", "severity", "high"), 2)
	byName.SetGauge("encore_serve_inflight_requests", "", 4)
	byName.ObserveLabeled("encore_serve_scan_seconds", app, 90*time.Microsecond)
	byName.ObserveLabeled("encore_serve_scan_seconds", app, 2*time.Millisecond)

	handles.CounterOf(CounterImagesScanned).Add(3)
	handles.LabeledCounterOf("encore_serve_findings_total", L("app", "mysql", "severity", "high")).Add(2)
	handles.GaugeOf("encore_serve_inflight_requests", "").Set(4)
	lat := handles.LatencyOf("encore_serve_scan_seconds", app)
	lat.Observe(90 * time.Microsecond)
	lat.Observe(2 * time.Millisecond)

	if got, want := handles.Snapshot().PromText(), byName.Snapshot().PromText(); got != want {
		t.Fatalf("handles rendered\n%s\nby-name rendered\n%s", got, want)
	}
	if got := handles.Counter(CounterImagesScanned); got != 3 {
		t.Fatalf("Counter = %d, want 3", got)
	}
}

// TestResolvedHandleHiddenUntilUpdated: resolving a handle creates no
// visible series; the first update, even of zero, makes it appear.
func TestResolvedHandleHiddenUntilUpdated(t *testing.T) {
	r := New()
	c := r.LabeledCounterOf("encore_serve_scan_errors_total", L("app", "mysql"))
	g := r.GaugeOf("encore_alert_queue_depth", "")
	lat := r.LatencyOf("encore_serve_scan_seconds", L("app", "mysql"))
	flat := r.CounterOf(CounterScanErrors)

	if got := r.Render(); got != "stats:\n  (empty)\n" {
		t.Fatalf("resolved handles rendered:\n%s", got)
	}
	if got := r.Snapshot().PromText(); got != "" {
		t.Fatalf("resolved handles scraped:\n%s", got)
	}
	if _, ok := r.Gauge("encore_alert_queue_depth", ""); ok {
		t.Fatal("an unset gauge reads as present")
	}
	if _, ok := r.LabeledHistogram("encore_serve_scan_seconds", L("app", "mysql")); ok {
		t.Fatal("an unobserved histogram reads as present")
	}

	flat.Add(0)
	g.Set(0)
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 0 || len(s.Gauges) != 1 {
		t.Fatalf("zero updates should appear: %+v %+v", s.Counters, s.Gauges)
	}
	if len(s.LabeledCounters) != 0 || len(s.LabeledHistograms) != 0 {
		t.Fatalf("untouched handles appeared: %+v %+v", s.LabeledCounters, s.LabeledHistograms)
	}
	c.Add(1)
	lat.Observe(time.Millisecond)
	if got := r.LabeledCounter("encore_serve_scan_errors_total", L("app", "mysql")); got != 1 {
		t.Fatalf("LabeledCounter = %d, want 1", got)
	}
	if d, ok := r.LabeledHistogram("encore_serve_scan_seconds", L("app", "mysql")); !ok || d.Count != 1 {
		t.Fatalf("LabeledHistogram = %+v, %v", d, ok)
	}
}

// TestHandleKindMismatchAndNil: a handle resolved under a name of another
// kind, or from a nil recorder, does nothing.
func TestHandleKindMismatchAndNil(t *testing.T) {
	r := New()
	r.Add("x", 1)
	r.GaugeOf("x", "").Set(5)
	r.LatencyOf("x", "").Observe(time.Second)
	if got := r.Counter("x"); got != 1 {
		t.Fatalf("Counter = %d, want 1", got)
	}
	if _, ok := r.Gauge("x", ""); ok {
		t.Fatal("gauge update under a counter's name was kept")
	}
	var nilRec *Recorder
	nilRec.CounterOf("x").Add(1)
	nilRec.GaugeOf("x", "").Set(1)
	nilRec.LatencyOf("x", "").Observe(time.Second)
	var zero Counter
	zero.Add(1)
}

// TestHandlesConcurrent: handle and by-name updates from many goroutines
// sum exactly, and histogram counts match their buckets (run under -race).
func TestHandlesConcurrent(t *testing.T) {
	r := New()
	const workers, per = 8, 500
	c := r.LabeledCounterOf("encore_fleet_images_total", "")
	lat := r.LatencyOf("encore_alert_delivery_seconds", L("notifier", "log"))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
				r.AddLabeled("encore_fleet_images_total", "", 1)
				lat.Observe(time.Duration(w*per+i) * time.Microsecond)
				r.ObserveDur(HistImageScan, time.Microsecond)
				if i%50 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.LabeledCounter("encore_fleet_images_total", ""); got != 2*workers*per {
		t.Fatalf("counter = %d, want %d", got, 2*workers*per)
	}
	d, _ := r.LabeledHistogram("encore_alert_delivery_seconds", L("notifier", "log"))
	var inBuckets uint64
	for _, b := range d.Buckets {
		inBuckets += b.Count
	}
	if d.Count != workers*per || inBuckets != d.Count || d.Min != 0 || d.Max != (workers*per-1)*time.Microsecond {
		t.Fatalf("histogram count=%d buckets=%d min=%v max=%v", d.Count, inBuckets, d.Min, d.Max)
	}
}

// TestMetricsScrapeIgnoresSpans: /metrics renders the same bytes as a
// full snapshot's PromText, and the bytes a scrape allocates do not grow
// with the number of retained spans (a span copy at 8,192 spans is about
// 590 KB).
func TestMetricsScrapeIgnoresSpans(t *testing.T) {
	scrapeBytes := func(spans int) uint64 {
		r := New()
		r.SetPhase("serve")
		r.AddLabeled("encore_serve_requests_total", L("app", "mysql", "code", "200"), 3)
		r.ObserveLabeled("encore_serve_scan_seconds", L("app", "mysql"), time.Millisecond)
		for i := 0; i < spans; i++ {
			r.StartSpan("serve.scan", A("request_id", "r")).End()
		}
		mux := http.NewServeMux()
		Mount(mux, r)
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if got, want := w.Body.String(), r.Snapshot().PromText(); got != want || !strings.Contains(got, "encore_phase") {
			t.Fatalf("/metrics served\n%s\nwant\n%s", got, want)
		}
		const scrapes = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < scrapes; i++ {
			mux.ServeHTTP(httptest.NewRecorder(), req)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / scrapes
	}
	few, many := scrapeBytes(16), scrapeBytes(8192)
	if many > few+16<<10 {
		t.Fatalf("a scrape allocated %d bytes with 8192 spans, %d with 16", many, few)
	}
}
