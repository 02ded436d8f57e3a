package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	encore "repro"
	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/serve"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// panicPlan compiles a mysql plan whose check panics on the image with ID
// "crafted": an environment attribute computed half-way through assembly
// panics, standing in for any bug a crafted image could trip.
func panicPlan(t testing.TB) *detect.Plan {
	t.Helper()
	imgs, err := corpus.Training("mysql", 30, 19)
	if err != nil {
		t.Fatal(err)
	}
	fw := encore.New()
	k, err := fw.Learn(imgs)
	if err != nil {
		t.Fatal(err)
	}
	fw.Assembler.AddEnvAttr(assemble.EnvAttr{Name: "Test.Crafted", Type: conftypes.TypeString,
		Compute: func(img *sysimage.Image) (string, bool) {
			if img.ID == "crafted" {
				panic("crafted image")
			}
			return "", false
		}})
	return fw.CompilePlan(k)
}

// craftedImages returns two one-line image documents: one the panicking
// plan panics on, and a healthy one.
func craftedImages(t testing.TB) (crafted, healthy []byte) {
	t.Helper()
	imgs, err := corpus.Training("mysql", 2, 77)
	if err != nil {
		t.Fatal(err)
	}
	imgs[0].ID = "crafted"
	if crafted, err = json.Marshal(imgs[0]); err != nil {
		t.Fatal(err)
	}
	if healthy, err = json.Marshal(imgs[1]); err != nil {
		t.Fatal(err)
	}
	return crafted, healthy
}

// lockedBuffer is a log sink safe for the server's goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestScanPanicAnswers422: a check that panics on the posted image is
// that request's failure alone. It answers the usual JSON error, counts
// as a scan error, and the request envelope completes (request counter,
// in-flight gauge, access log); the daemon keeps serving.
func TestScanPanicAnswers422(t *testing.T) {
	rec := telemetry.New()
	logs := &lockedBuffer{}
	d, base := startDaemon(t, serve.Options{Rec: rec, Log: slog.New(slog.NewTextHandler(logs, nil))})
	if _, err := d.Registry().Register("mysql", "", panicPlan(t), "test"); err != nil {
		t.Fatal(err)
	}
	crafted, healthy := craftedImages(t)

	resp, err := http.Post(base+"/v1/scan/mysql", "application/json", bytes.NewReader(crafted))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(doc.Error, "panic: crafted image") || doc.RequestID == "" {
		t.Fatalf("crafted image: status %d, body %+v", resp.StatusCode, doc)
	}

	if resp, sr := postScan(t, base+"/v1/scan/mysql", healthy, nil); resp.StatusCode != http.StatusOK || sr.PlanVersion != "v1" {
		t.Fatalf("healthy scan after the panic: status %d, %+v", resp.StatusCode, sr)
	}
	if got := rec.LabeledCounter("encore_serve_scan_errors_total", telemetry.L("app", "mysql")); got != 1 {
		t.Fatalf("scan errors = %d, want 1", got)
	}
	if got := rec.LabeledCounter("encore_serve_requests_total", telemetry.L("app", "mysql", "code", "422")); got != 1 {
		t.Fatalf("422 requests = %d, want 1", got)
	}
	if g, ok := rec.Gauge("encore_serve_inflight_requests", ""); !ok || g != 0 {
		t.Fatalf("in-flight gauge = %v (set %v), want 0", g, ok)
	}
	if !strings.Contains(logs.String(), "code=422") {
		t.Fatalf("no access log record for the 422:\n%s", logs)
	}
}

// TestBatchScanPanicIsolated: one body line that panics the check is
// that line's error record; every other line reports, and the daemon
// keeps serving.
func TestBatchScanPanicIsolated(t *testing.T) {
	d, base := startDaemon(t, serve.Options{})
	if _, err := d.Registry().Register("mysql", "", panicPlan(t), "test"); err != nil {
		t.Fatal(err)
	}
	crafted, healthy := craftedImages(t)
	body := bytes.Join([][]byte{healthy, crafted, healthy}, []byte("\n"))

	for round := 0; round < 2; round++ {
		status, lines, summary := postBatch(t, base+"/v1/scan/mysql/batch?workers=2", body)
		if status != http.StatusOK || summary == nil {
			t.Fatalf("round %d: status = %d, summary = %v", round, status, summary)
		}
		if len(lines) != 3 || summary.Images != 3 || summary.Errors != 1 {
			t.Fatalf("round %d: %d lines, summary %+v; want 3 lines, 1 error", round, len(lines), summary)
		}
		for _, ln := range lines {
			if (ln.Index == 1) != (ln.Error != "") {
				t.Fatalf("round %d: line %+v misclassified", round, ln)
			}
			if ln.Index == 1 && (ln.Image != "crafted" || !strings.Contains(ln.Error, "panic: crafted image")) {
				t.Fatalf("round %d: panic line %+v", round, ln)
			}
		}
	}
}

// TestBatchScanRejectsBadParams: ?workers= and ?shards= must be integers
// in [0, 64] and ?synthetic= in [1, 100000]; anything else is a 400
// before any scan work starts.
func TestBatchScanRejectsBadParams(t *testing.T) {
	var scans atomic.Int64
	d, base := startDaemon(t, serve.Options{ScanHook: func(string) { scans.Add(1) }})
	if _, err := d.Registry().Register("mysql", "", buildPlan(t, "mysql", 30, 19), "test"); err != nil {
		t.Fatal(err)
	}
	_, healthy := craftedImages(t)
	for _, query := range []string{
		"workers=abc", "workers=-1", "workers=100000", "workers=65",
		"shards=abc", "shards=-1", "shards=100000",
		"dir=" + t.TempDir() + "&synthetic=100001", "dir=" + t.TempDir() + "&synthetic=0",
	} {
		if status, _, _ := postBatch(t, base+"/v1/scan/mysql/batch?"+query, healthy); status != http.StatusBadRequest {
			t.Fatalf("?%s: status = %d, want 400", query, status)
		}
	}
	if n := scans.Load(); n != 0 {
		t.Fatalf("%d rejected requests reached the scan", n)
	}
	if status, lines, _ := postBatch(t, base+"/v1/scan/mysql/batch?workers=64&shards=4", healthy); status != http.StatusOK || len(lines) != 1 {
		t.Fatalf("in-range parameters: status = %d, %d lines", status, len(lines))
	}
}

// TestHandlerPanicLowersInflightGauge: net/http recovers a panicking
// handler by dropping the connection, and the in-flight gauge must still
// come back down, or one bad request would leave it raised for good.
func TestHandlerPanicLowersInflightGauge(t *testing.T) {
	rec := telemetry.New()
	d, base := startDaemon(t, serve.Options{Rec: rec, ScanHook: func(string) { panic("scan hook") }})
	if _, err := d.Registry().Register("mysql", "", buildPlan(t, "mysql", 12, 3), "test"); err != nil {
		t.Fatal(err)
	}
	_, healthy := craftedImages(t)
	if resp, err := http.Post(base+"/v1/scan/mysql", "application/json", bytes.NewReader(healthy)); err == nil {
		resp.Body.Close()
		t.Fatalf("a panicking handler answered %d; want the connection dropped", resp.StatusCode)
	}
	// The server closes the connection only after the handler's deferred
	// calls ran, so the gauge is already down when the client sees EOF.
	if g, ok := rec.Gauge("encore_serve_inflight_requests", ""); !ok || g != 0 {
		t.Fatalf("in-flight gauge = %v (set %v) after the panicking request, want 0", g, ok)
	}
}

// TestHandlerPanicRunsEpilogue: a panicking handler still gets the whole
// request epilogue — a code-500 request count, its root span ended (so the
// decode span it opened has its parent in the snapshot), and an
// error-level access log record — before net/http drops the connection.
func TestHandlerPanicRunsEpilogue(t *testing.T) {
	rec := telemetry.New()
	logs := &lockedBuffer{}
	d, base := startDaemon(t, serve.Options{Rec: rec, Log: slog.New(slog.NewTextHandler(logs, nil)),
		ScanHook: func(string) { panic("scan hook") }})
	if _, err := d.Registry().Register("mysql", "", buildPlan(t, "mysql", 12, 3), "test"); err != nil {
		t.Fatal(err)
	}
	_, healthy := craftedImages(t)
	if resp, err := http.Post(base+"/v1/scan/mysql", "application/json", bytes.NewReader(healthy)); err == nil {
		resp.Body.Close()
		t.Fatalf("a panicking handler answered %d; want the connection dropped", resp.StatusCode)
	}
	if got := rec.LabeledCounter("encore_serve_requests_total", telemetry.L("app", "mysql", "code", "500")); got != 1 {
		t.Fatalf("requests{code=500} = %d, want 1", got)
	}
	spans := map[int64]telemetry.SpanData{}
	for _, sp := range rec.Snapshot().Spans {
		spans[sp.ID] = sp
	}
	var decode *telemetry.SpanData
	for _, sp := range spans {
		if sp.Name == "serve.decode" {
			decode = &sp
		}
	}
	if decode == nil {
		t.Fatal("no serve.decode span recorded")
	}
	if root, ok := spans[decode.Parent]; !ok || root.Name != "serve.scan" {
		t.Fatalf("serve.decode's parent %d is not a recorded serve.scan span", decode.Parent)
	}
	if out := logs.String(); !strings.Contains(out, "level=ERROR msg=request") || !strings.Contains(out, "code=500") {
		t.Fatalf("no error-level request record for the panic:\n%s", out)
	}
}

// TestUnknownAppsShareOneSeries: the request counter's app label comes
// from the URL, which anyone can vary, so requests for apps with no
// registered plan all count under app="" instead of minting a series per
// name.
func TestUnknownAppsShareOneSeries(t *testing.T) {
	rec := telemetry.New()
	_, base := startDaemon(t, serve.Options{Rec: rec})
	const n = 40
	for i := 0; i < n; i++ {
		resp, err := http.Post(fmt.Sprintf("%s/v1/scan/app%d", base, i), "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown app %d: status %d, want 404", i, resp.StatusCode)
		}
	}
	var series []telemetry.LabeledValue
	for _, c := range rec.Snapshot().LabeledCounters {
		if c.Family == "encore_serve_requests_total" {
			series = append(series, c)
		}
	}
	want := telemetry.LabeledValue{Family: "encore_serve_requests_total", Labels: telemetry.L("app", "", "code", "404"), Value: n}
	if len(series) != 1 || series[0] != want {
		t.Fatalf("request series after %d unknown apps = %+v, want only %+v", n, series, want)
	}
}
