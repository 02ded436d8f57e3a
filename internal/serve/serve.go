package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alert"
	"repro/internal/detect"
	"repro/internal/scan"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// DefaultMaxBodyBytes caps scan and profile upload bodies.
const DefaultMaxBodyBytes = 64 << 20

// Options configures a Daemon.
type Options struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Rec receives request metrics, spans, and registry gauges. Nil is
	// tolerated (every Recorder method is nil-safe) but /metrics and
	// /snapshot then serve empty documents.
	Rec *telemetry.Recorder
	// Log receives access and error records; nil discards them.
	Log *slog.Logger
	// LoadPlan decodes a binary compiled plan (required to accept binary
	// uploads and LoadDir plan files).
	LoadPlan PlanLoader
	// LoadProfile compiles a JSON knowledge profile into a plan
	// (optional; profile uploads 415 without it).
	LoadProfile PlanLoader
	// Version is the build version surfaced by /v1/status.
	Version string
	// MaxBodyBytes caps request bodies (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// ScanHook, when set, runs after the registry entry is resolved and
	// before Plan.Check — test instrumentation for drain and swap-race
	// tests. Leave nil in production.
	ScanHook func(app string)
	// Alerts, when set, receives every scan finding as a
	// severity-classified alert carrying the request ID and plan
	// version; GET /v1/alerts serves its recent ring. The daemon owns
	// the pipeline's drain: Shutdown delivers everything queued before
	// returning, so the final telemetry snapshot sees every outcome.
	Alerts *alert.Pipeline
}

// Daemon is the resident scan service. New starts it listening; Shutdown
// drains it gracefully; Close tears it down hard. All exported methods
// are safe for concurrent use.
type Daemon struct {
	opts     Options
	reg      *Registry
	ln       net.Listener
	srv      *http.Server
	rec      *telemetry.Recorder
	log      *slog.Logger
	start    time.Time
	draining atomic.Bool
	inflight atomic.Int64
	// inflightG is the encore_serve_inflight_requests gauge.
	inflightG telemetry.Gauge
	reqSeq    atomic.Int64
	idBase    string
	done      chan struct{}
	close     sync.Once
	err       error
}

// New binds addr and starts serving. The returned daemon is live:
// /healthz answers immediately, /readyz answers 503 until a plan is
// registered.
func New(opts Options) (*Daemon, error) {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", opts.Addr, err)
	}
	d := &Daemon{
		opts:      opts,
		reg:       NewRegistry(opts.Rec),
		ln:        ln,
		rec:       opts.Rec,
		log:       telemetry.LoggerOr(opts.Log),
		start:     time.Now(),
		done:      make(chan struct{}),
		inflightG: opts.Rec.GaugeOf("encore_serve_inflight_requests", ""),
	}
	d.idBase = strconv.FormatInt(d.start.UnixNano(), 36)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scan/{app}", d.instrument("scan", d.handleScan))
	mux.HandleFunc("POST /v1/scan/{app}/batch", d.instrument("scan_batch", d.handleScanBatch))
	mux.HandleFunc("POST /v1/profiles/{app}", d.instrument("profiles", d.handleProfileUpload))
	mux.HandleFunc("GET /v1/status", d.instrument("status", d.handleStatus))
	mux.HandleFunc("GET /v1/alerts", d.instrument("alerts", d.handleAlerts))
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	telemetry.Mount(mux, d.rec)

	d.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: telemetry.ReadHeaderTimeout,
		IdleTimeout:       telemetry.IdleTimeout,
	}
	go func() {
		defer close(d.done)
		if err := d.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.err = err
		}
	}()
	return d, nil
}

// Addr returns the bound address.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Registry exposes the daemon's profile registry (preloads, SIGHUP
// re-scans, tests).
func (d *Daemon) Registry() *Registry { return d.reg }

// Drain flips the daemon into draining mode: /readyz starts answering
// 503 so load balancers stop routing new work, while in-flight and
// late-arriving requests still complete. Shutdown calls it implicitly.
func (d *Daemon) Drain() { d.draining.Store(true) }

// Draining reports whether Drain was called.
func (d *Daemon) Draining() bool { return d.draining.Load() }

// Shutdown drains the daemon and then gracefully stops the HTTP server:
// the listener closes, in-flight requests run to completion bounded by
// ctx, and the accept goroutine is joined. If ctx expires first the
// remaining connections are closed hard. Idempotent with Close.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.Drain()
	var shutErr error
	d.close.Do(func() {
		if err := d.srv.Shutdown(ctx); err != nil {
			d.srv.Close()
			shutErr = err
		}
		<-d.done
		// Drain the alert pipeline after the last handler has returned,
		// so every published finding is delivered (or counted as failed)
		// before the caller snapshots telemetry. Nil-safe and idempotent.
		if err := d.opts.Alerts.Shutdown(ctx); err != nil && shutErr == nil {
			shutErr = err
		}
	})
	if shutErr != nil {
		return shutErr
	}
	return d.err
}

// Close shuts the daemon down with a bounded 5s drain. Idempotent; safe
// on a nil daemon.
func (d *Daemon) Close() error {
	if d == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return d.Shutdown(ctx)
}

// requestID returns the caller-supplied X-Request-Id (truncated to 128
// bytes, control characters stripped) or generates one from the daemon's
// start time and a sequence number.
func (d *Daemon) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		clean := make([]byte, 0, len(id))
		for i := 0; i < len(id); i++ {
			if id[i] >= 0x20 && id[i] != 0x7f {
				clean = append(clean, id[i])
			}
		}
		if len(clean) > 0 {
			return string(clean)
		}
	}
	return "req-" + d.idBase + "-" + strconv.FormatInt(d.reqSeq.Add(1), 10)
}

// statusWriter captures the response code for the access log and the
// requests_total code label.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// reqCtx is the per-request observability context threaded into
// instrumented handlers: the request ID, the app wildcard, and the
// request's root telemetry span (handlers may open children under it).
type reqCtx struct {
	ID   string
	App  string
	Span *telemetry.Span
}

// instrument wraps an app-scoped API handler with the request
// observability envelope: request-ID resolution and echo, a root span
// carrying (endpoint, app, request id), the in-flight gauge, the
// per-(app, code) request counter, and a span-correlated access log
// record. The epilogue runs from a defer, so a panicking handler still
// lowers the gauge, counts as a 500, ends its span and logs at error
// level; the panic then continues so net/http aborts the connection.
func (d *Daemon) instrument(name string, h func(http.ResponseWriter, *http.Request, *reqCtx)) http.HandlerFunc {
	spanName := "serve." + name
	return func(w http.ResponseWriter, r *http.Request) {
		rc := &reqCtx{ID: d.requestID(r), App: r.PathValue("app")}
		w.Header().Set("X-Request-Id", rc.ID)
		rc.Span = d.rec.StartSpan(spanName,
			telemetry.A("request_id", rc.ID),
			telemetry.A("app", rc.App),
			telemetry.A("method", r.Method))
		d.inflightG.Set(float64(d.inflight.Add(1)))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		defer func() {
			p := recover()
			status := sw.status
			if p != nil {
				status = http.StatusInternalServerError
			}
			d.inflightG.Set(float64(d.inflight.Add(-1)))
			d.finishRequest(r, rc, status, time.Since(start))
			if p != nil {
				panic(p)
			}
		}()
		h(sw, r, rc)
	}
}

// finishRequest counts, ends and logs one request. The app label comes
// from the URL, so only apps with a registered plan get their own series:
// any other path value would mint one.
func (d *Daemon) finishRequest(r *http.Request, rc *reqCtx, status int, elapsed time.Duration) {
	code := "200"
	entry, registered := d.reg.Get(rc.App)
	if registered && status == http.StatusOK {
		entry.metrics.requestsOK.Add(1)
	} else {
		code = strconv.Itoa(status)
		appLabel := ""
		if registered {
			appLabel = rc.App
		}
		d.rec.AddLabeled("encore_serve_requests_total", telemetry.L("app", appLabel, "code", code), 1)
	}
	rc.Span.SetAttr("code", code)
	rc.Span.End()
	lvl := slog.LevelInfo
	if status >= 500 {
		lvl = slog.LevelError
	}
	if d.log.Enabled(r.Context(), lvl) {
		d.log.Log(r.Context(), lvl, "request",
			"request_id", rc.ID, "method", r.Method, "path", r.URL.Path,
			"app", rc.App, "code", status, "dur", elapsed.Round(time.Microsecond))
	}
}

// apiError writes a JSON error document carrying the request ID.
func apiError(w http.ResponseWriter, rc *reqCtx, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{
		"error":     fmt.Sprintf(format, args...),
		"requestId": rc.ID,
	})
}

func (d *Daemon) handleScan(w http.ResponseWriter, r *http.Request, rc *reqCtx) {
	entry, ok := d.reg.Get(rc.App)
	if !ok {
		apiError(w, rc, http.StatusNotFound, "no plan loaded for app %q", rc.App)
		return
	}
	rc.Span.SetAttr("plan_version", entry.Version)

	var img *sysimage.Image
	decode := rc.Span.StartChild("serve.decode")
	if path := r.URL.Query().Get("path"); path != "" {
		loaded, err := sysimage.LoadFile(path)
		decode.End()
		if err != nil {
			apiError(w, rc, http.StatusBadRequest, "load image %s: %v", path, err)
			return
		}
		img = loaded
	} else {
		// The body streams through sysimage's pooled read buffer (LoadJSON
		// keeps no reference to its input), so per-request decode
		// allocates no transient body.
		err := sysimage.WithPooledRead(
			io.LimitReader(r.Body, d.opts.MaxBodyBytes+1), int(r.ContentLength),
			func(body []byte) error {
				if int64(len(body)) > d.opts.MaxBodyBytes {
					return fmt.Errorf("body exceeds %d bytes", d.opts.MaxBodyBytes)
				}
				if len(body) == 0 {
					return fmt.Errorf("empty body (send image JSON, or use ?path=)")
				}
				var err error
				img, err = sysimage.LoadJSON(body)
				return err
			})
		decode.End()
		if err != nil {
			apiError(w, rc, http.StatusBadRequest, "decode image: %v", err)
			return
		}
	}
	rc.Span.SetAttr("image", img.ID)

	if d.opts.ScanHook != nil {
		d.opts.ScanHook(rc.App)
	}
	// The batch engine's per-image step: a check that errors or panics
	// answers 422, and every finding is published as an alert.
	step := scan.Step{Check: entry.Plan.Check, Alerting: &scan.Alerting{
		Pipeline: d.opts.Alerts, App: rc.App, RequestID: rc.ID, PlanVersion: entry.Version,
	}}
	check := rc.Span.StartChild("serve.check", telemetry.A("image", img.ID))
	it, elapsed := step.Run(img, time.Now(), check)
	m := entry.metrics
	if it.Err != nil {
		m.scanErrors.Add(1)
		apiError(w, rc, http.StatusUnprocessableEntity, "check %s: %v", img.ID, it.Err.Err)
		return
	}
	report := it.Report
	m.scanSeconds.Observe(elapsed)
	for _, warn := range report.Warnings {
		m.finding(warn.Score)
	}

	// The reply renders in one pass into a pooled buffer and goes out in
	// one Write.
	buf := renderBufPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		renderBufPool.Put(buf)
	}()
	err := writeScanReply(buf, rc.ID, rc.App, entry.Version, elapsed.Microseconds(), len(report.Warnings), report)
	if err != nil {
		apiError(w, rc, http.StatusInternalServerError, "encode report: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// renderBufPool recycles reply buffers across scan requests.
var renderBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// uploadResponse is the /v1/profiles reply.
type uploadResponse struct {
	RequestID string `json:"requestId"`
	App       string `json:"app"`
	Version   string `json:"version"`
	Rules     int    `json:"rules"`
	Attrs     int    `json:"attrs"`
	Samples   int    `json:"samples"`
}

// handleProfileUpload swaps in a new plan for {app}. The body is either
// a binary compiled plan (magic "ENCP") or a JSON knowledge profile; the
// version comes from X-Profile-Version or is auto-assigned.
func (d *Daemon) handleProfileUpload(w http.ResponseWriter, r *http.Request, rc *reqCtx) {
	body, err := io.ReadAll(io.LimitReader(r.Body, d.opts.MaxBodyBytes+1))
	if err != nil {
		apiError(w, rc, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(body)) > d.opts.MaxBodyBytes {
		apiError(w, rc, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", d.opts.MaxBodyBytes)
		return
	}
	if len(body) == 0 {
		apiError(w, rc, http.StatusBadRequest, "empty body (send a binary plan or a profile JSON)")
		return
	}

	var plan *detect.Plan
	load := rc.Span.StartChild("serve.load_plan", telemetry.A("bytes", strconv.Itoa(len(body))))
	switch {
	case len(body) >= 4 && string(body[:4]) == "ENCP":
		if d.opts.LoadPlan == nil {
			load.End()
			apiError(w, rc, http.StatusUnsupportedMediaType, "binary plan uploads not configured")
			return
		}
		plan, err = d.opts.LoadPlan(body)
	default:
		if d.opts.LoadProfile == nil {
			load.End()
			apiError(w, rc, http.StatusUnsupportedMediaType, "profile uploads not configured")
			return
		}
		plan, err = d.opts.LoadProfile(body)
	}
	load.End()
	if err != nil {
		apiError(w, rc, http.StatusBadRequest, "load plan: %v", err)
		return
	}

	entry, err := d.reg.Register(rc.App, r.Header.Get("X-Profile-Version"), plan, "upload")
	if err != nil {
		apiError(w, rc, http.StatusBadRequest, "%v", err)
		return
	}
	rc.Span.SetAttr("plan_version", entry.Version)
	d.log.Info("plan swapped", "request_id", rc.ID, "app", entry.App,
		"version", entry.Version, "rules", plan.RuleCount(), "attrs", plan.AttrCount())
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(uploadResponse{
		RequestID: rc.ID,
		App:       entry.App,
		Version:   entry.Version,
		Rules:     plan.RuleCount(),
		Attrs:     plan.AttrCount(),
		Samples:   plan.Samples(),
	})
}

// appStatus is one app's row in the /v1/status document.
type appStatus struct {
	App          string  `json:"app"`
	Version      string  `json:"version"`
	Source       string  `json:"source"`
	LoadedAtUnix int64   `json:"loadedAtUnix"`
	Swaps        int64   `json:"swaps"`
	Rules        int     `json:"rules"`
	Attrs        int     `json:"attrs"`
	Samples      int     `json:"samples"`
	Scans        uint64  `json:"scans"`
	P50Micros    int64   `json:"p50Micros"`
	P90Micros    int64   `json:"p90Micros"`
	P99Micros    int64   `json:"p99Micros"`
	MeanMicros   float64 `json:"meanMicros"`
}

// statusDoc is the /v1/status document: build identity, uptime, drain
// state, and per-app registry versions with rolling latency quantiles.
type statusDoc struct {
	Status        string      `json:"status"`
	Version       string      `json:"version"`
	UptimeSeconds float64     `json:"uptimeSeconds"`
	Draining      bool        `json:"draining"`
	Apps          []appStatus `json:"apps"`
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request, rc *reqCtx) {
	doc := statusDoc{
		Status:        "ok",
		Version:       d.opts.Version,
		UptimeSeconds: time.Since(d.start).Seconds(),
		Draining:      d.Draining(),
		Apps:          []appStatus{},
	}
	for _, e := range d.reg.Entries() {
		row := appStatus{
			App:          e.App,
			Version:      e.Version,
			Source:       e.Source,
			LoadedAtUnix: e.LoadedAt.Unix(),
			Swaps:        d.reg.Swaps(e.App),
			Rules:        e.Plan.RuleCount(),
			Attrs:        e.Plan.AttrCount(),
			Samples:      e.Plan.Samples(),
		}
		if h, ok := d.rec.LabeledHistogram("encore_serve_scan_seconds", telemetry.L("app", e.App)); ok {
			row.Scans = h.Count
			row.P50Micros = h.P50.Microseconds()
			row.P90Micros = h.P90.Microseconds()
			row.P99Micros = h.P99.Microseconds()
			if h.Count > 0 {
				row.MeanMicros = float64(h.Sum.Microseconds()) / float64(h.Count)
			}
		}
		doc.Apps = append(doc.Apps, row)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// alertsDoc is the /v1/alerts document: whether a pipeline is wired,
// cumulative pipeline counters, and the recent-alert ring newest-first.
// Each record carries the originating request ID and plan version plus
// per-notifier delivery outcomes.
type alertsDoc struct {
	Enabled bool           `json:"enabled"`
	Stats   alert.Stats    `json:"stats"`
	Count   int            `json:"count"`
	Alerts  []alert.Record `json:"alerts"`
}

func (d *Daemon) handleAlerts(w http.ResponseWriter, r *http.Request, rc *reqCtx) {
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			apiError(w, rc, http.StatusBadRequest, "limit must be a non-negative integer, got %q", s)
			return
		}
		limit = n
	}
	recent := d.opts.Alerts.Recent(limit)
	if recent == nil {
		recent = []alert.Record{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(alertsDoc{
		Enabled: d.opts.Alerts != nil,
		Stats:   d.opts.Alerts.Stats(),
		Count:   len(recent),
		Alerts:  recent,
	})
}

// handleHealthz is pure liveness: the process is up and serving. It
// stays 200 during drain — liveness failing would make an orchestrator
// kill a pod that is still finishing requests.
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(d.start).Seconds(),
	})
}

// handleReadyz is readiness: 503 until the registry holds at least one
// plan, and 503 again once the daemon is draining, so traffic is only
// routed while scans can actually be answered.
func (d *Daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case d.Draining():
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
	case d.reg.Len() == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "unready", "reason": "no plans loaded"})
	default:
		json.NewEncoder(w).Encode(map[string]any{"status": "ready", "apps": d.reg.Len()})
	}
}
