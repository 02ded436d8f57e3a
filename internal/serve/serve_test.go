package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	encore "repro"
	"repro/internal/alert"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/inject"
	"repro/internal/serve"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// buildPlan learns a corpus and compiles it, the same path `encore learn`
// + `encore compile` take.
func buildPlan(t testing.TB, app string, n int, seed int64) *detect.Plan {
	t.Helper()
	imgs, err := corpus.Training(app, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	fw := encore.New()
	k, err := fw.Learn(imgs)
	if err != nil {
		t.Fatal(err)
	}
	return fw.CompilePlan(k)
}

// brokenVictim returns a held-out image with injected misconfigurations
// (JSON-encoded for the scan body) — scans against a same-app plan are
// guaranteed findings by the detection property tests.
func brokenVictim(t testing.TB, app string, seed int64, n int) []byte {
	t.Helper()
	victims, err := corpus.Training(app, 1, 300+seed)
	if err != nil {
		t.Fatal(err)
	}
	victim := victims[0]
	victim.ID = "victim"
	if _, err := inject.New(seed).Inject(victim, app, n); err != nil {
		t.Fatal(err)
	}
	data, err := victim.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// startDaemon boots a daemon on a random port with both loaders wired the
// way cmd/encore wires them.
func startDaemon(t testing.TB, opts serve.Options) (*serve.Daemon, string) {
	t.Helper()
	fw := encore.New()
	opts.Addr = "127.0.0.1:0"
	if opts.LoadPlan == nil {
		opts.LoadPlan = fw.LoadPlan
	}
	if opts.LoadProfile == nil {
		opts.LoadProfile = func(data []byte) (*detect.Plan, error) {
			p, err := encore.LoadProfile(data)
			if err != nil {
				return nil, err
			}
			return fw.CompilePlanFromProfile(p), nil
		}
	}
	if opts.Log == nil {
		opts.Log = telemetry.NopLogger()
	}
	d, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, "http://" + d.Addr()
}

func getBody(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

type scanResponse struct {
	RequestID   string          `json:"requestId"`
	App         string          `json:"app"`
	PlanVersion string          `json:"planVersion"`
	Findings    int             `json:"findings"`
	Report      json.RawMessage `json:"report"`
}

func postScan(t testing.TB, url string, body []byte, hdr map[string]string) (*http.Response, scanResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr scanResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, sr
}

// TestScanReplyWireBytes: a live /v1/scan reply is byte for byte what
// json.Encoder renders for its own fields with the report embedded, with
// HTML characters and U+2028 in the identity strings. (Invalid UTF-8 does
// not survive the decode this test compares through; FuzzScanReply holds
// it to encoding/json.)
func TestScanReplyWireBytes(t *testing.T) {
	d, base := startDaemon(t, serve.Options{})
	if _, err := d.Registry().Register("mysql", "v<1>&\u2028", buildPlan(t, "mysql", 30, 19), "test"); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/scan/mysql", bytes.NewReader(brokenVictim(t, "mysql", 4, 8)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "<id>&\"")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scan: status %d, %v", resp.StatusCode, err)
	}
	var doc struct {
		RequestID     string          `json:"requestId"`
		App           string          `json:"app"`
		PlanVersion   string          `json:"planVersion"`
		ElapsedMicros int64           `json:"elapsedMicros"`
		Findings      int             `json:"findings"`
		Report        json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Findings == 0 || doc.PlanVersion != "v<1>&\u2028" || doc.RequestID != "<id>&\"" {
		t.Fatalf("reply fields = %+v", doc)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("reply bytes differ from encoding/json's\n got %s\nwant %s", body, want.Bytes())
	}
}

func TestScanEndpoint(t *testing.T) {
	rec := telemetry.New()
	d, base := startDaemon(t, serve.Options{Rec: rec})
	plan := buildPlan(t, "mysql", 30, 19)
	if _, err := d.Registry().Register("mysql", "", plan, "test"); err != nil {
		t.Fatal(err)
	}
	victim := brokenVictim(t, "mysql", 4, 8)

	resp, sr := postScan(t, base+"/v1/scan/mysql", victim, map[string]string{"X-Request-Id": "trace-42"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status = %d", resp.StatusCode)
	}
	if sr.RequestID != "trace-42" || resp.Header.Get("X-Request-Id") != "trace-42" {
		t.Fatalf("request id not propagated: body=%q header=%q", sr.RequestID, resp.Header.Get("X-Request-Id"))
	}
	if sr.PlanVersion != "v1" || sr.App != "mysql" {
		t.Fatalf("scan identity = %+v", sr)
	}
	if sr.Findings == 0 || !bytes.Contains(sr.Report, []byte("warnings")) {
		t.Fatalf("expected findings on injected victim, got %d", sr.Findings)
	}

	// Generated request IDs when the caller sends none.
	resp2, sr2 := postScan(t, base+"/v1/scan/mysql", victim, nil)
	if resp2.StatusCode != http.StatusOK || !strings.HasPrefix(sr2.RequestID, "req-") {
		t.Fatalf("generated request id = %q (status %d)", sr2.RequestID, resp2.StatusCode)
	}

	// On-disk scan via ?path=.
	path := filepath.Join(t.TempDir(), "victim.json")
	if err := os.WriteFile(path, victim, 0o644); err != nil {
		t.Fatal(err)
	}
	resp3, sr3 := postScan(t, base+"/v1/scan/mysql?path="+path, nil, nil)
	if resp3.StatusCode != http.StatusOK || sr3.Findings != sr.Findings {
		t.Fatalf("path scan: status=%d findings=%d want %d", resp3.StatusCode, sr3.Findings, sr.Findings)
	}

	// Unknown app and bad bodies are clean JSON errors.
	if resp, _ := postScan(t, base+"/v1/scan/nope", victim, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown app status = %d", resp.StatusCode)
	}
	if resp, _ := postScan(t, base+"/v1/scan/mysql", []byte("{broken"), nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d", resp.StatusCode)
	}
	if resp, _ := postScan(t, base+"/v1/scan/mysql", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body status = %d", resp.StatusCode)
	}

	// The request metrics landed with per-app labels.
	prom := rec.Snapshot().PromText()
	for _, want := range []string{
		`encore_serve_requests_total{app="mysql",code="200"} 3`,
		`encore_serve_requests_total{app="mysql",code="400"} 2`,
		`encore_serve_requests_total{app="",code="404"} 1`,
		`encore_serve_scan_seconds_count{app="mysql"} 3`,
		`encore_serve_findings_total{app="mysql",severity=`,
		`encore_serve_plans_loaded 1`,
		`encore_serve_plan_swaps_total{app="mysql"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestProfileUploadStatusAndVersions(t *testing.T) {
	rec := telemetry.New()
	d, base := startDaemon(t, serve.Options{Rec: rec, Version: "test-build"})
	fw := encore.New()
	plan := buildPlan(t, "mysql", 20, 7)
	binary := fw.MarshalPlan(plan)

	// First upload auto-versions as v1.
	resp, err := http.Post(base+"/v1/profiles/mysql", "application/octet-stream", bytes.NewReader(binary))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Version string `json:"version"`
		Rules   int    `json:"rules"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || up.Version != "v1" || up.Rules == 0 {
		t.Fatalf("upload = %d %+v", resp.StatusCode, up)
	}

	// A named upload keeps its name; swap count advances.
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/profiles/mysql", bytes.NewReader(binary))
	req.Header.Set("X-Profile-Version", "prod-2026-08")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var up2 struct {
		Version string `json:"version"`
	}
	json.NewDecoder(resp2.Body).Decode(&up2)
	resp2.Body.Close()
	if up2.Version != "prod-2026-08" {
		t.Fatalf("named upload version = %q", up2.Version)
	}

	// A JSON knowledge profile compiles on upload too.
	imgs, err := corpus.Training("apache", 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	k, err := fw.Learn(imgs)
	if err != nil {
		t.Fatal(err)
	}
	profJSON, err := json.Marshal(k.Profile())
	if err != nil {
		t.Fatal(err)
	}
	resp3, err := http.Post(base+"/v1/profiles/apache", "application/json", bytes.NewReader(profJSON))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("profile upload status = %d", resp3.StatusCode)
	}

	// Corrupt uploads don't disturb the registry.
	resp4, err := http.Post(base+"/v1/profiles/mysql", "application/octet-stream", strings.NewReader("ENCPgarbage"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload status = %d", resp4.StatusCode)
	}
	if e, ok := d.Registry().Get("mysql"); !ok || e.Version != "prod-2026-08" {
		t.Fatalf("registry disturbed by corrupt upload: %+v", e)
	}

	// Run one scan so status has latency quantiles.
	if resp, _ := postScan(t, base+"/v1/scan/mysql", brokenVictim(t, "mysql", 2, 6), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status = %d", resp.StatusCode)
	}

	code, body := getBody(t, base+"/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status code = %d", code)
	}
	var doc struct {
		Version  string `json:"version"`
		Draining bool   `json:"draining"`
		Apps     []struct {
			App       string `json:"app"`
			Version   string `json:"version"`
			Swaps     int64  `json:"swaps"`
			Rules     int    `json:"rules"`
			Scans     uint64 `json:"scans"`
			P50Micros int64  `json:"p50Micros"`
			P99Micros int64  `json:"p99Micros"`
		} `json:"apps"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != "test-build" || doc.Draining || len(doc.Apps) != 2 {
		t.Fatalf("status doc = %s", body)
	}
	if doc.Apps[0].App != "apache" || doc.Apps[1].App != "mysql" {
		t.Fatalf("apps not sorted: %s", body)
	}
	my := doc.Apps[1]
	if my.Version != "prod-2026-08" || my.Swaps != 2 || my.Rules == 0 {
		t.Fatalf("mysql status row = %+v", my)
	}
	if my.Scans != 1 || my.P50Micros <= 0 || my.P99Micros < my.P50Micros {
		t.Fatalf("latency quantiles = %+v", my)
	}
}

// TestProfileUploadRejectsNullRule: a profile JSON holding a null rule is
// refused with 400 through the loader's error instead of panicking in the
// handler; the in-flight gauge returns to zero, nothing is registered, and
// a valid profile upload still swaps in afterwards.
func TestProfileUploadRejectsNullRule(t *testing.T) {
	rec := telemetry.New()
	d, base := startDaemon(t, serve.Options{Rec: rec})
	resp, err := http.Post(base+"/v1/profiles/mysql", "application/json",
		strings.NewReader(`{"samples":1,"attrs":[],"rules":[null]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "load plan: profile: rule 0 is null") {
		t.Fatalf("null-rule upload = %d %s", resp.StatusCode, body)
	}
	// The gauge drops when the handler returns, which can trail the
	// response the client has already read.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		v, ok := rec.Gauge("encore_serve_inflight_requests", "")
		if ok && v == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight gauge = %v (set %v) after every request ended", v, ok)
		}
	}
	if _, ok := d.Registry().Get("mysql"); ok {
		t.Fatal("a rejected upload registered a plan")
	}

	imgs, err := corpus.Training("mysql", 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	k, err := encore.New().Learn(imgs)
	if err != nil {
		t.Fatal(err)
	}
	profJSON, err := json.Marshal(k.Profile())
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/profiles/mysql", "application/json", bytes.NewReader(profJSON))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid profile upload status = %d", resp.StatusCode)
	}
	if e, ok := d.Registry().Get("mysql"); !ok || e.Version != "v1" {
		t.Fatalf("valid upload not swapped in: %+v", e)
	}
}

// TestSwapAtomicityUnderRace is the hot-swap property test: while one
// goroutine swaps between two different plans for the same app and others
// hammer /metrics, every concurrent scan response must be consistent with
// exactly ONE registry version — its reported planVersion's precomputed
// report, byte for byte. A torn swap (new plan, old version, or a blended
// plan) would produce a mismatch. Run under -race this also proves the
// registry and labeled-metrics paths are data-race free.
func TestSwapAtomicityUnderRace(t *testing.T) {
	rec := telemetry.New()
	rec.SetSpanCap(256)
	d, base := startDaemon(t, serve.Options{Rec: rec})

	planA := buildPlan(t, "mysql", 24, 19)
	planB := buildPlan(t, "apache", 24, 5)
	victimJSON := brokenVictim(t, "mysql", 4, 8)

	// Precompute each version's exact response report through the same
	// decode path the handler uses.
	expected := map[string][]byte{}
	for version, plan := range map[string]*detect.Plan{"A": planA, "B": planB} {
		img, err := sysimage.LoadJSON(victimJSON)
		if err != nil {
			t.Fatal(err)
		}
		report, err := plan.Check(img)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := report.RenderJSON()
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatal(err)
		}
		expected[version] = compact.Bytes()
	}
	if bytes.Equal(expected["A"], expected["B"]) {
		t.Fatal("test needs two plans with distinguishable reports")
	}
	if _, err := d.Registry().Register("target", "A", planA, "test"); err != nil {
		t.Fatal(err)
	}

	const (
		scanners = 6
		scansPer = 40
		swaps    = 60
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Swapper: alternate A and B.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			if i%2 == 0 {
				d.Registry().Register("target", "B", planB, "test")
			} else {
				d.Registry().Register("target", "A", planA, "test")
			}
			time.Sleep(500 * time.Microsecond)
		}
		close(stop)
	}()

	// Metrics hammer: concurrent /metrics renders while labels churn.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	errs := make(chan string, scanners*scansPer)
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < scansPer; i++ {
				resp, sr := postScan(t, base+"/v1/scan/target", victimJSON, map[string]string{
					"X-Request-Id": fmt.Sprintf("race-%d-%d", g, i),
				})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("scan %d/%d status %d", g, i, resp.StatusCode)
					continue
				}
				want, ok := expected[sr.PlanVersion]
				if !ok {
					errs <- fmt.Sprintf("scan %d/%d unknown version %q", g, i, sr.PlanVersion)
					continue
				}
				if !bytes.Equal(sr.Report, want) {
					errs <- fmt.Sprintf("scan %d/%d: report inconsistent with version %q", g, i, sr.PlanVersion)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if got := d.Registry().Swaps("target"); got != swaps+1 {
		t.Fatalf("swap count = %d, want %d", got, swaps+1)
	}
	prom := rec.Snapshot().PromText()
	if !strings.Contains(prom, `encore_serve_requests_total{app="target",code="200"} 240`) {
		t.Errorf("request counter wrong after storm:\n%s", prom)
	}
	if !strings.Contains(prom, `encore_serve_plan_swaps_total{app="target"} 61`) {
		t.Errorf("swap counter wrong after storm")
	}
}

func TestReadyzTransitions(t *testing.T) {
	d, base := startDaemon(t, serve.Options{Rec: telemetry.New()})

	// Live but not ready before any plan loads.
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz pre-load = %d", code)
	}
	code, body := getBody(t, base+"/readyz")
	if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("no plans loaded")) {
		t.Fatalf("readyz pre-load = %d %s", code, body)
	}

	// Ready once a plan is registered.
	if _, err := d.Registry().Register("mysql", "", buildPlan(t, "mysql", 12, 1), "test"); err != nil {
		t.Fatal(err)
	}
	if code, _ := getBody(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz post-load = %d", code)
	}

	// Draining: readiness drops so routers stop sending work, liveness
	// holds so the pod isn't killed mid-drain.
	d.Drain()
	code, body = getBody(t, base+"/readyz")
	if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("readyz draining = %d %s", code, body)
	}
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz draining = %d", code)
	}
}

// TestGracefulShutdownDrainsInflight holds a scan open at the ScanHook
// while Shutdown runs: Shutdown must not return until the scan finishes,
// and the held scan must still complete with a 200.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce sync.Once
	d, base := startDaemon(t, serve.Options{
		Rec: telemetry.New(),
		ScanHook: func(string) {
			hookOnce.Do(func() {
				close(entered)
				<-release
			})
		},
	})
	if _, err := d.Registry().Register("mysql", "", buildPlan(t, "mysql", 12, 1), "test"); err != nil {
		t.Fatal(err)
	}
	victim := brokenVictim(t, "mysql", 2, 4)

	scanDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/scan/mysql", "application/json", bytes.NewReader(victim))
		if err != nil {
			scanDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		scanDone <- resp.StatusCode
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- d.Shutdown(ctx)
	}()

	// Shutdown must block while the scan is held open.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned before in-flight scan finished: %v", err)
	case <-time.After(150 * time.Millisecond):
	}
	if !d.Draining() {
		t.Fatal("daemon not draining during shutdown")
	}

	close(release)
	if code := <-scanDone; code != http.StatusOK {
		t.Fatalf("drained scan status = %d", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown error: %v", err)
	}
}

// TestDaemonCloseNoGoroutineLeak: the accept loop and every per-request
// goroutine must be gone after Close.
func TestDaemonCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	rec := telemetry.New()
	d, base := startDaemon(t, serve.Options{Rec: rec})
	if _, err := d.Registry().Register("mysql", "", buildPlan(t, "mysql", 12, 1), "test"); err != nil {
		t.Fatal(err)
	}
	victim := brokenVictim(t, "mysql", 2, 4)
	for i := 0; i < 3; i++ {
		if resp, _ := postScan(t, base+"/v1/scan/mysql", victim, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("scan status = %d", resp.StatusCode)
		}
	}
	if _, body := getBody(t, base+"/metrics"); !bytes.Contains(body, []byte("encore_serve_scan_seconds_count")) {
		t.Fatal("metrics missing scan histogram before close")
	}
	if code, body := getBody(t, base+"/snapshot"); code != http.StatusOK || !bytes.Contains(body, []byte(`"labeledHistograms"`)) {
		t.Fatalf("/snapshot = %d %.200s", code, body)
	}
	if code, body := getBody(t, base+"/debug/pprof/"); code != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("/debug/pprof/ = %d %.200s", code, body)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// memNotifier captures delivered alerts for assertions.
type memNotifier struct {
	mu    sync.Mutex
	got   []alert.Alert
	delay time.Duration
}

func (m *memNotifier) Name() string { return "mem" }

func (m *memNotifier) Notify(a *alert.Alert) error {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.got = append(m.got, *a)
	return nil
}

func (m *memNotifier) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.got)
}

// alertsDoc mirrors the /v1/alerts response shape.
type alertsDoc struct {
	Enabled bool           `json:"enabled"`
	Stats   alert.Stats    `json:"stats"`
	Count   int            `json:"count"`
	Alerts  []alert.Record `json:"alerts"`
}

// TestScanAlertsCarryProvenance: every warning a scan request produces
// must reach the pipeline carrying that request's ID and the registry
// plan version, and surface on GET /v1/alerts with delivery outcomes.
func TestScanAlertsCarryProvenance(t *testing.T) {
	rec := telemetry.New()
	mem := &memNotifier{}
	pipe, err := alert.NewPipeline(alert.Options{Notifiers: []alert.Notifier{mem}, Rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	d, base := startDaemon(t, serve.Options{Rec: rec, Alerts: pipe})
	if _, err := d.Registry().Register("mysql", "", buildPlan(t, "mysql", 30, 19), "test"); err != nil {
		t.Fatal(err)
	}
	victim := brokenVictim(t, "mysql", 4, 8)

	resp, sr := postScan(t, base+"/v1/scan/mysql", victim, map[string]string{"X-Request-Id": "trace-alert-7"})
	if resp.StatusCode != http.StatusOK || sr.Findings == 0 {
		t.Fatalf("scan: status=%d findings=%d", resp.StatusCode, sr.Findings)
	}

	// Delivery is asynchronous; poll the ring until every finding landed.
	var doc alertsDoc
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := getBody(t, base+"/v1/alerts")
		doc = alertsDoc{}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Count >= sr.Findings {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alerts ring has %d records, want %d", doc.Count, sr.Findings)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !doc.Enabled {
		t.Fatal("alerts doc reports disabled with a live pipeline")
	}
	for _, rcd := range doc.Alerts {
		if rcd.RequestID != "trace-alert-7" || rcd.PlanVersion != "v1" || rcd.App != "mysql" {
			t.Fatalf("alert provenance wrong: %+v", rcd.Alert)
		}
		if rcd.Severity == "" || rcd.Family == "" || rcd.Attr == "" {
			t.Fatalf("alert classification missing: %+v", rcd.Alert)
		}
		if len(rcd.Deliveries) != 1 || rcd.Deliveries[0].Notifier != "mem" || rcd.Deliveries[0].Outcome != alert.OutcomeOK {
			t.Fatalf("alert deliveries wrong: %+v", rcd.Deliveries)
		}
	}
	if mem.count() != sr.Findings {
		t.Fatalf("notifier saw %d alerts, want %d", mem.count(), sr.Findings)
	}

	// ?limit trims newest-first; a bad limit is a clean JSON 400.
	if _, body := getBody(t, base+"/v1/alerts?limit=1"); !bytes.Contains(body, []byte(`"count":1`)) {
		t.Fatalf("limit=1 not honoured: %s", body)
	}
	if code, _ := getBody(t, base+"/v1/alerts?limit=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d", code)
	}

	// Self-metrics joined the shared recorder.
	prom := rec.Snapshot().PromText()
	for _, want := range []string{
		`encore_alerts_total{notifier="mem",outcome="ok",severity=`,
		`encore_alert_delivery_seconds_count{notifier="mem"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAlertsEndpointWithoutPipeline: /v1/alerts stays a valid document
// when no -alerts policy was configured.
func TestAlertsEndpointWithoutPipeline(t *testing.T) {
	_, base := startDaemon(t, serve.Options{Rec: telemetry.New()})
	code, body := getBody(t, base+"/v1/alerts")
	if code != http.StatusOK {
		t.Fatalf("alerts status = %d", code)
	}
	var doc alertsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Enabled || doc.Count != 0 || len(doc.Alerts) != 0 {
		t.Fatalf("disabled doc wrong: %+v", doc)
	}
}

// TestShutdownDrainsAlertPipeline: Daemon.Shutdown must deliver every
// queued alert through a slow notifier before returning, and leave no
// dispatcher goroutine behind.
func TestShutdownDrainsAlertPipeline(t *testing.T) {
	before := runtime.NumGoroutine()

	rec := telemetry.New()
	mem := &memNotifier{delay: 2 * time.Millisecond}
	pipe, err := alert.NewPipeline(alert.Options{Notifiers: []alert.Notifier{mem}, Rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	d, base := startDaemon(t, serve.Options{Rec: rec, Alerts: pipe})
	if _, err := d.Registry().Register("mysql", "", buildPlan(t, "mysql", 30, 19), "test"); err != nil {
		t.Fatal(err)
	}
	victim := brokenVictim(t, "mysql", 4, 8)
	resp, sr := postScan(t, base+"/v1/scan/mysql", victim, nil)
	if resp.StatusCode != http.StatusOK || sr.Findings == 0 {
		t.Fatalf("scan: status=%d findings=%d", resp.StatusCode, sr.Findings)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s := pipe.Stats()
	if s.Published != int64(sr.Findings) || s.Delivered != s.Published || s.Dropped != 0 {
		t.Fatalf("pipeline not drained: %+v (findings %d)", s, sr.Findings)
	}
	if mem.count() != sr.Findings {
		t.Fatalf("notifier saw %d alerts after drain, want %d", mem.count(), sr.Findings)
	}
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkServeScan measures full-stack scan request throughput over real
// HTTP: decode + registry load + Plan.Check + report render + alert
// publish per request, with a recorder and an alert pipeline wired as
// `encore serve -alerts` runs.
func BenchmarkServeScan(b *testing.B) {
	url, victim := alertedDaemon(b)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(victim))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("scan status = %d", resp.StatusCode)
		}
	}
}
