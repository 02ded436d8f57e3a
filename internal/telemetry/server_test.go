package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// get fetches a server path and returns the body and content type.
func get(t *testing.T, srv *Server, path string) (string, string) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestServerEndpoints starts a real server on a free port and checks every
// endpoint serves the recorder's live state.
func TestServerEndpoints(t *testing.T) {
	r := New()
	r.SetPhase("scan")
	r.Add(CounterImagesScanned, 3)
	srv, err := NewServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	metrics, ctype := get(t, srv, "/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ctype)
	}
	if !strings.Contains(metrics, "encore_scan_images_total 3\n") {
		t.Fatalf("/metrics missing live counter:\n%s", metrics)
	}

	health, ctype := get(t, srv, "/healthz")
	if ctype != "application/json" {
		t.Fatalf("/healthz content type = %q", ctype)
	}
	var doc struct {
		Status        string  `json:"status"`
		Phase         string  `json:"phase"`
		UptimeSeconds float64 `json:"uptimeSeconds"`
	}
	if err := json.Unmarshal([]byte(health), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || doc.Phase != "scan" || doc.UptimeSeconds < 0 {
		t.Fatalf("/healthz = %+v", doc)
	}

	// /metrics re-renders per request: a counter bump is visible live.
	r.Add(CounterImagesScanned, 2)
	if metrics, _ := get(t, srv, "/metrics"); !strings.Contains(metrics, "encore_scan_images_total 5\n") {
		t.Fatalf("/metrics stale after counter bump:\n%s", metrics)
	}

	snapshot, _ := get(t, srv, "/snapshot")
	var snapDoc struct {
		Version int    `json:"version"`
		Phase   string `json:"phase"`
	}
	if err := json.Unmarshal([]byte(snapshot), &snapDoc); err != nil {
		t.Fatal(err)
	}
	if snapDoc.Version != SnapshotVersion || snapDoc.Phase != "scan" {
		t.Fatalf("/snapshot = %+v", snapDoc)
	}

	if pprofIdx, _ := get(t, srv, "/debug/pprof/"); !strings.Contains(pprofIdx, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%.200s", pprofIdx)
	}

	// Mount registers the read-only endpoints for GET only.
	for _, path := range []string{"/metrics", "/snapshot"} {
		resp, err := http.Post("http://"+srv.Addr()+path, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestServerCloseIdempotent checks Close is safe to repeat and on nil.
func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Fatal("server still accepting after Close")
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatal(err)
	}
	if nilSrv.Addr() != "" {
		t.Fatal("nil server reported an address")
	}
}

// TestServerTimeouts: the metrics service bounds how long a client may
// take to send request headers and how long an idle connection is kept,
// and sets no WriteTimeout that would cut /debug/pprof/profile short.
func TestServerTimeouts(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.srv.ReadHeaderTimeout <= 0 || srv.srv.IdleTimeout <= 0 || srv.srv.WriteTimeout != 0 {
		t.Fatalf("ReadHeaderTimeout = %v, IdleTimeout = %v, WriteTimeout = %v; want the first two set, no WriteTimeout",
			srv.srv.ReadHeaderTimeout, srv.srv.IdleTimeout, srv.srv.WriteTimeout)
	}
}

// TestServerBadAddr checks a bind failure is an error, not a panic.
func TestServerBadAddr(t *testing.T) {
	if _, err := NewServer("256.0.0.1:-1", New()); err == nil {
		t.Fatal("want error for an unbindable address")
	}
}

// TestServeStackNoGoroutineLeak is the regression test for the full live
// observability stack: server + sampler + progress reporter all running
// against one recorder, exercised over HTTP, then shut down. The goroutine
// count must return to the baseline — nothing may survive Close/Stop.
func TestServeStackNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	r := New()
	r.SetPhase("scan")
	sampler := NewSampler(time.Millisecond, 32)
	r.AttachSampler(sampler)
	p := NewProgress(io.Discard, "scan", 4, time.Millisecond)
	sampler.SetProgress(p)
	sampler.Start()
	srv, err := NewServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}

	r.Add(CounterImagesScanned, 4)
	p.Step(1)
	for i := 0; i < 3; i++ {
		get(t, srv, "/metrics")
		get(t, srv, "/healthz")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	sampler.Stop()
	p.Stop()
	// Drop the client keep-alive connections the fetches opened; their
	// readLoop/writeLoop goroutines are the only legitimate stragglers.
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
