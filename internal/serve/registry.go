// Package serve is the resident scan daemon behind `encore serve`: a
// long-running HTTP service that holds compiled detect.Plans for many
// apps in memory, answers scan requests against them, and hot-swaps
// plans without dropping or mixing in-flight scans.
//
// The profile registry is the core structure. Each app owns one
// atomic.Pointer[Entry]; a scan request loads the pointer exactly once
// and uses that entry — plan and version together — for its whole
// lifetime, so a concurrent swap is invisible to it: every response is
// consistent with exactly one registry version, never a blend. The
// registry map itself (app set membership) is guarded by an RWMutex that
// scan requests only read-lock for the one pointer lookup.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alert"
	"repro/internal/detect"
	"repro/internal/telemetry"
)

// PlanLoader turns uploaded or on-disk bytes into a live check plan; the
// CLI wires Framework.LoadPlan (binary plans) and a profile-compiling
// variant here, keeping this package decoupled from the root framework.
type PlanLoader func(data []byte) (*detect.Plan, error)

// Entry is one immutable registry version: the compiled plan plus its
// identity. A swap installs a fresh Entry; nothing in an Entry is ever
// mutated after Register publishes it.
type Entry struct {
	// App is the registry key.
	App string
	// Version identifies this plan generation ("v1", "v2", ... when
	// auto-assigned; uploads may name their own).
	Version string
	// Plan is the compiled, immutable, share-safe check plan.
	Plan *detect.Plan
	// Source records where the plan came from ("upload", "dir:<path>").
	Source string
	// LoadedAt is the swap wall-clock time.
	LoadedAt time.Time
	// Seq is the app's swap sequence number (1 for the first load).
	Seq int64

	// metrics are the app's per-request series, shared by its versions.
	metrics *appMetrics
}

// appSlot is one app's hot-swap cell.
type appSlot struct {
	cur     atomic.Pointer[Entry]
	swaps   atomic.Int64
	metrics *appMetrics
}

// appMetrics are one app's per-request series, resolved once when the app
// is first registered so a scan request updates them without rendering a
// label string or taking the recorder lock.
type appMetrics struct {
	scanSeconds telemetry.Latency
	scanErrors  telemetry.Counter
	requestsOK  telemetry.Counter                         // encore_serve_requests_total{code="200"}
	findings    [len(findingSeverities)]telemetry.Counter // by findingSeverities
}

// findingSeverities are the severity labels of encore_serve_findings_total.
var findingSeverities = [...]alert.Severity{alert.SeverityLow, alert.SeverityMedium, alert.SeverityHigh}

func newAppMetrics(rec *telemetry.Recorder, app string) *appMetrics {
	appLabel := telemetry.L("app", app)
	m := &appMetrics{
		scanSeconds: rec.LatencyOf("encore_serve_scan_seconds", appLabel),
		scanErrors:  rec.LabeledCounterOf("encore_serve_scan_errors_total", appLabel),
		requestsOK:  rec.LabeledCounterOf("encore_serve_requests_total", telemetry.L("app", app, "code", "200")),
	}
	for i, sev := range findingSeverities {
		m.findings[i] = rec.LabeledCounterOf("encore_serve_findings_total",
			telemetry.L("app", app, "severity", string(sev)))
	}
	return m
}

// finding counts one finding of the given score.
func (m *appMetrics) finding(score float64) {
	sev := alert.SeverityForScore(score)
	for i, s := range findingSeverities {
		if s == sev {
			m.findings[i].Add(1)
		}
	}
}

// Registry is the versioned profile registry. All methods are safe for
// concurrent use; Get is one RLock plus one atomic load on the hot path.
type Registry struct {
	mu    sync.RWMutex
	apps  map[string]*appSlot
	rec   *telemetry.Recorder
	clock func() time.Time
}

// NewRegistry returns an empty registry reporting its gauges (loaded
// plans, per-app swap counts, last-swap timestamps) to rec (nil-safe).
func NewRegistry(rec *telemetry.Recorder) *Registry {
	return &Registry{
		apps:  make(map[string]*appSlot),
		rec:   rec,
		clock: time.Now,
	}
}

// Get returns the app's current registry entry. The returned entry is
// immutable: callers use its Plan and Version together for the whole
// request, which is what makes a concurrent swap atomic from their
// perspective.
func (g *Registry) Get(app string) (*Entry, bool) {
	g.mu.RLock()
	slot := g.apps[app]
	g.mu.RUnlock()
	if slot == nil {
		return nil, false
	}
	e := slot.cur.Load()
	if e == nil {
		return nil, false
	}
	return e, true
}

// Register installs a new plan for app and returns the entry it
// published. version == "" auto-assigns "v<seq>" from the app's swap
// sequence. In-flight scans holding the previous entry finish against
// it; requests that Get after Register see only the new one.
func (g *Registry) Register(app, version string, plan *detect.Plan, source string) (*Entry, error) {
	if app == "" {
		return nil, fmt.Errorf("serve: empty app name")
	}
	if plan == nil {
		return nil, fmt.Errorf("serve: nil plan for app %s", app)
	}
	g.mu.Lock()
	slot := g.apps[app]
	if slot == nil {
		slot = &appSlot{metrics: newAppMetrics(g.rec, app)}
		g.apps[app] = slot
	}
	loaded := len(g.apps)
	g.mu.Unlock()

	seq := slot.swaps.Add(1)
	if version == "" {
		version = fmt.Sprintf("v%d", seq)
	}
	e := &Entry{
		App:      app,
		Version:  version,
		Plan:     plan,
		Source:   source,
		LoadedAt: g.clock(),
		Seq:      seq,
		metrics:  slot.metrics,
	}
	slot.cur.Store(e)

	appLabel := telemetry.L("app", app)
	g.rec.SetGauge("encore_serve_plans_loaded", "", float64(loaded))
	g.rec.AddLabeled("encore_serve_plan_swaps_total", appLabel, 1)
	g.rec.SetGauge("encore_serve_plan_last_swap_timestamp_seconds", appLabel,
		float64(e.LoadedAt.UnixNano())/1e9)
	return e, nil
}

// Len reports the number of apps with a loaded plan.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, slot := range g.apps {
		if slot.cur.Load() != nil {
			n++
		}
	}
	return n
}

// Entries snapshots the current entry of every app, sorted by app name.
func (g *Registry) Entries() []*Entry {
	g.mu.RLock()
	out := make([]*Entry, 0, len(g.apps))
	for _, slot := range g.apps {
		if e := slot.cur.Load(); e != nil {
			out = append(out, e)
		}
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// Swaps reports the app's swap count (0 when the app was never loaded).
func (g *Registry) Swaps(app string) int64 {
	g.mu.RLock()
	slot := g.apps[app]
	g.mu.RUnlock()
	if slot == nil {
		return 0
	}
	return slot.swaps.Load()
}

// LoadDir scans dir for "<app>.plan" files and registers each through
// loader — the cold-start path (binary plan decode is ~35µs/plan) and
// the SIGHUP re-scan path. Files that fail to load are reported in the
// returned error, but every loadable plan is still swapped in; the
// first return value counts successful registrations.
func (g *Registry) LoadDir(dir string, loader PlanLoader) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("serve: scan plan dir: %w", err)
	}
	var failures []string
	n := 0
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".plan") {
			continue
		}
		app := strings.TrimSuffix(ent.Name(), ".plan")
		path := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", ent.Name(), err))
			continue
		}
		plan, err := loader(data)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", ent.Name(), err))
			continue
		}
		if _, err := g.Register(app, "", plan, "dir:"+path); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", ent.Name(), err))
			continue
		}
		n++
	}
	if len(failures) > 0 {
		return n, fmt.Errorf("serve: %d plan file(s) failed to load: %s", len(failures), strings.Join(failures, "; "))
	}
	return n, nil
}
