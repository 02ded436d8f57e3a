package serve_test

import (
	"bytes"
	"io"
	"net/http"
	"sync/atomic"
	"testing"

	"repro/internal/alert"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// maxScanRequestAllocs is the end-to-end allocation ceiling for one
// /v1/scan request with an alert pipeline wired, measured across every
// goroutine involved (client, server conn, handler, alert dispatcher).
// The 8-error mysql victim yields 15 findings, so 15 alerts. The request
// measured 338 objects before the reply was written in one pass and the
// metrics went through resolved handles, and 283 after. The ceiling is
// that plus 10%, so a per-request or per-alert allocation that creeps
// back in fails it. Under -race, sync.Pool drops some of the items put
// back: 339–350 measured, ceiling 350 plus 10%.
const (
	maxScanRequestAllocs     = 310
	maxScanRequestAllocsRace = 385
)

// countingNotifier counts deliveries: the cheapest notifier, so the
// ceiling measures the daemon's own alert path.
type countingNotifier struct{ n atomic.Int64 }

func (c *countingNotifier) Name() string              { return "count" }
func (c *countingNotifier) Notify(*alert.Alert) error { c.n.Add(1); return nil }

// alertedDaemon boots a daemon the way `encore serve -alerts` runs it — a
// recorder and an alert pipeline (one counting notifier) — with a mysql
// plan registered, and returns the scan URL and a misconfigured image.
func alertedDaemon(tb testing.TB) (url string, victim []byte) {
	tb.Helper()
	rec := telemetry.New()
	rec.SetSpanCap(8192)
	pipe, err := alert.NewPipeline(alert.Options{Notifiers: []alert.Notifier{&countingNotifier{}}, Rec: rec})
	if err != nil {
		tb.Fatal(err)
	}
	d, base := startDaemon(tb, serve.Options{Rec: rec, Alerts: pipe})
	if _, err := d.Registry().Register("mysql", "", buildPlan(tb, "mysql", 30, 19), "test"); err != nil {
		tb.Fatal(err)
	}
	return base + "/v1/scan/mysql", brokenVictim(tb, "mysql", 4, 8)
}

// TestServeScanAllocCeiling pins the serve-path allocation diet: the
// per-request decode, render, telemetry and alert paths must keep using
// the pooled machinery and resolved metric handles, so the whole request
// stays under the ceiling.
func TestServeScanAllocCeiling(t *testing.T) {
	url, victim := alertedDaemon(t)
	post := func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(victim))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	// Warm the connection pool, the decode/render buffer pools, and the
	// interner before measuring.
	for i := 0; i < 5; i++ {
		post()
	}
	allocs := testing.AllocsPerRun(30, post)
	ceiling := maxScanRequestAllocs
	if raceBuild {
		ceiling = maxScanRequestAllocsRace
	}
	t.Logf("scan request: %.1f allocs end-to-end", allocs)
	if allocs > float64(ceiling) {
		t.Errorf("scan request allocated %.1f objects end-to-end; ceiling is %d", allocs, ceiling)
	}
}
