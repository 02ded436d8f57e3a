// Package alert turns severity-classified findings into operator-facing
// notifications. Both the batch scanner (encore scan) and the resident
// daemon (encore serve) publish every warning they emit into a Pipeline;
// the pipeline classifies, filters, dedups, and rate-limits them against
// a YAML policy, then fans each surviving alert out to pluggable
// notifiers (structured log, JSONL file, HTTP webhook).
//
// The pipeline is bounded and never blocks the scan hot path: Publish
// does one route lookup and a non-blocking send into a buffered channel.
// When the queue is full the alert is counted as dropped instead of
// making the scanner wait; when the pipeline is shut down the queue is
// drained before Shutdown returns, so a daemon's final telemetry
// snapshot sees every delivery outcome.
//
// The layer observes itself through the recorder's labeled-metric
// machinery: encore_alerts_total{notifier,severity,outcome} per delivery
// attempt, encore_alerts_dropped_total for queue overflow,
// encore_alerts_suppressed_total{reason} for policy/dedup/rate
// suppression, an encore_alert_queue_depth gauge, and an
// encore_alert_delivery_seconds{notifier} latency histogram. A bounded
// ring of recent alerts (with request-ID and plan-version provenance)
// backs the daemon's GET /v1/alerts endpoint.
package alert

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/telemetry"
)

// Severity buckets a warning score for routing and for the severity
// metric label. The score scale tops out around 90 (unanimous-training
// violations) with correlation warnings at 40-60 and weak unseen-value
// signals below.
type Severity string

// The three severity buckets, ordered low < medium < high.
const (
	SeverityLow    Severity = "low"
	SeverityMedium Severity = "medium"
	SeverityHigh   Severity = "high"
)

// SeverityForScore buckets a warning score: >=70 high, >=40 medium,
// otherwise low. The serve daemon's findings counter uses the same
// boundaries.
func SeverityForScore(score float64) Severity {
	switch {
	case score >= 70:
		return SeverityHigh
	case score >= 40:
		return SeverityMedium
	default:
		return SeverityLow
	}
}

// rank orders severities for threshold comparison; unknown severities
// rank lowest so a typo never out-ranks a real bucket.
func (s Severity) rank() int {
	switch s {
	case SeverityHigh:
		return 2
	case SeverityMedium:
		return 1
	case SeverityLow:
		return 0
	}
	return -1
}

// Alert is one finding on its way to an operator. The JSON shape is the
// webhook payload and the JSONL file line; RequestID and PlanVersion
// make an alert joinable against the daemon access log and the registry
// version that produced it.
type Alert struct {
	// App is the application the finding belongs to (registry app for
	// daemon scans, the attribute's app prefix for batch scans).
	App string `json:"app"`
	// ImageID identifies the scanned image.
	ImageID string `json:"imageId,omitempty"`
	// Family is the warning kind (detect.Kind: "correlation",
	// "entry-name", "data-type", "suspicious-value") — the policy's
	// per-rule-family routing key.
	Family string `json:"family"`
	// Attr is the flagged attribute.
	Attr string `json:"attr"`
	// Value is the offending value, when the warning carries one.
	Value string `json:"value,omitempty"`
	// Severity is the routing bucket (derived from Score when empty at
	// Publish time).
	Severity Severity `json:"severity"`
	// Score is the raw warning score.
	Score float64 `json:"score"`
	// Message is the human-readable warning text.
	Message string `json:"message"`
	// Rule is the violated correlation rule, when applicable.
	Rule string `json:"rule,omitempty"`
	// RequestID is the originating request ID: the daemon's X-Request-Id
	// for serve scans, the generated batch run ID for CLI scans.
	RequestID string `json:"requestId,omitempty"`
	// PlanVersion is the registry plan version (serve) or the knowledge
	// source provenance (batch).
	PlanVersion string `json:"planVersion,omitempty"`
	// FiredAtUnix is when the alert entered the pipeline.
	FiredAtUnix int64 `json:"firedAtUnix"`
}

// FromWarning builds an Alert from a detector warning plus its scan
// provenance. Severity is derived from the warning score.
func FromWarning(w *detect.Warning, app, imageID, requestID, planVersion string) Alert {
	return Alert{
		App:         app,
		ImageID:     imageID,
		Family:      string(w.Kind),
		Attr:        w.Attr,
		Value:       w.Value,
		Severity:    SeverityForScore(w.Score),
		Score:       w.Score,
		Message:     w.Message,
		Rule:        w.RuleText(),
		RequestID:   requestID,
		PlanVersion: planVersion,
	}
}

// Notifier delivers one alert to one destination. Implementations must
// be safe for sequential reuse; the pipeline calls Notify from a single
// dispatcher goroutine. A notifier that also implements io.Closer is
// closed on pipeline shutdown.
type Notifier interface {
	// Name identifies the notifier in metrics labels and delivery
	// records.
	Name() string
	// Notify delivers the alert; a non-nil error is counted as
	// outcome="error" (the pipeline does not re-queue — retry policy
	// lives inside the notifier, e.g. the webhook's backoff loop).
	Notify(a *Alert) error
}

// Metric family names the pipeline records through the labeled-metric
// machinery.
const (
	// MetricAlertsTotal counts delivery attempts by
	// {notifier, severity, outcome}.
	MetricAlertsTotal = "encore_alerts_total"
	// MetricAlertsDropped counts alerts shed because the bounded queue
	// was full.
	MetricAlertsDropped = "encore_alerts_dropped_total"
	// MetricAlertsSuppressed counts alerts suppressed before delivery,
	// by {reason}: "policy" (disabled family / below severity floor),
	// "dedup" (repeat within the window), "rate" (rate limit).
	MetricAlertsSuppressed = "encore_alerts_suppressed_total"
	// MetricQueueDepth gauges the alerts waiting in the queue.
	MetricQueueDepth = "encore_alert_queue_depth"
	// MetricDeliverySeconds is the per-notifier delivery latency
	// histogram.
	MetricDeliverySeconds = "encore_alert_delivery_seconds"
)

// Delivery outcome label values.
const (
	OutcomeOK    = "ok"
	OutcomeError = "error"
)

// Delivery records one notifier's outcome for one alert.
type Delivery struct {
	Notifier      string `json:"notifier"`
	Outcome       string `json:"outcome"`
	Error         string `json:"error,omitempty"`
	ElapsedMicros int64  `json:"elapsedMicros"`
}

// Record is one delivered (or delivery-attempted) alert in the recent
// ring: the alert plus what every routed notifier did with it.
type Record struct {
	// Seq is the pipeline-lifetime sequence number (monotonic, starts
	// at 1); the ring keeps only the most recent RingSize records.
	Seq uint64 `json:"seq"`
	Alert
	Deliveries []Delivery `json:"deliveries"`
}

// Stats is a point-in-time pipeline tally.
type Stats struct {
	// Published counts alerts accepted into the queue.
	Published int64 `json:"published"`
	// Delivered counts successful notifier deliveries.
	Delivered int64 `json:"delivered"`
	// Failed counts notifier deliveries that errored.
	Failed int64 `json:"failed"`
	// Dropped counts alerts shed on queue overflow.
	Dropped int64 `json:"dropped"`
	// Suppressed counts alerts suppressed by policy, dedup, or rate
	// limiting.
	Suppressed int64 `json:"suppressed"`
}

// Options configures NewPipeline.
type Options struct {
	// Policy governs routing; nil means DefaultPolicy().
	Policy *Policy
	// Notifiers overrides the policy-built notifier set (tests, embedders).
	// When nil, notifiers are built from Policy.Notifiers.
	Notifiers []Notifier
	// Rec receives the pipeline's self-metrics; nil discards them.
	Rec *telemetry.Recorder
	// Log receives delivery-failure and lifecycle records; nil discards
	// them.
	Log *slog.Logger
	// Now overrides the clock for dedup and rate-limit windows (tests).
	Now func() time.Time
}

// Pipeline is the bounded alert queue plus its dispatcher. Publish is
// safe for concurrent use from any goroutine; delivery happens on one
// background dispatcher so notifier latency never lands on a scan
// worker.
type Pipeline struct {
	policy    *Policy
	notifiers []*notifierSlot // delivery order
	byName    map[string]*notifierSlot
	rec       *telemetry.Recorder
	log       *slog.Logger
	now       func() time.Time

	// Self-metric handles, resolved once by NewPipeline; the last three
	// are encore_alerts_suppressed_total by reason.
	queueDepth                telemetry.Gauge
	droppedM                  telemetry.Counter
	byPolicy, byDedup, byRate telemetry.Counter

	// mu guards closed and the channel send: Publish holds it shared,
	// Shutdown exclusively, so a publish can never race the close.
	mu     sync.RWMutex
	closed bool
	ch     chan Alert
	done   chan struct{}

	published  atomic.Int64
	delivered  atomic.Int64
	failed     atomic.Int64
	dropped    atomic.Int64
	suppressed atomic.Int64

	// ring holds the last RingSize records as a circular buffer: record
	// seq lives at index (seq-1) % RingSize, so a new record overwrites
	// the oldest in place instead of shifting the rest.
	ringMu sync.Mutex
	ring   []Record
	seq    uint64

	// Dispatcher-owned state (no locking: touched only by the dispatch
	// goroutine).
	lastSeen   map[string]dedupEntry
	tokens     float64
	lastRefill time.Time

	closeNotifiers sync.Once
}

// notifierSlot is one notifier with its delivery series resolved: the
// attempts counter per severity and outcome, and the latency histogram.
type notifierSlot struct {
	Notifier
	name     string
	attempts [len(severities)][2]telemetry.Counter // [Severity.rank()][ok, error]
	latency  telemetry.Latency
}

// severities lists the buckets by rank; outcomes the delivery outcomes by
// a notifierSlot's attempts index.
var (
	severities = [...]Severity{SeverityLow, SeverityMedium, SeverityHigh}
	outcomes   = [...]string{OutcomeOK, OutcomeError}
)

// dedupEntry tracks the last delivery time for one (app, attr, family)
// key and how many repeats the window suppressed since.
type dedupEntry struct {
	last       time.Time
	suppressed int64
}

// NewPipeline builds the notifier set, validates routing against it, and
// starts the dispatcher. The caller owns the pipeline and must Shutdown
// it to drain the queue and release notifier resources.
func NewPipeline(opts Options) (*Pipeline, error) {
	pol := opts.Policy
	if pol == nil {
		pol = DefaultPolicy()
	}
	log := telemetry.LoggerOr(opts.Log)
	notifiers := opts.Notifiers
	if notifiers == nil {
		built, err := BuildNotifiers(pol, log)
		if err != nil {
			return nil, err
		}
		notifiers = built
	}
	slots := make([]*notifierSlot, len(notifiers))
	byName := make(map[string]*notifierSlot, len(notifiers))
	for i, n := range notifiers {
		name := n.Name()
		if _, dup := byName[name]; dup {
			return nil, &PolicyError{Msg: "duplicate notifier name " + name}
		}
		ns := &notifierSlot{Notifier: n, name: name,
			latency: opts.Rec.LatencyOf(MetricDeliverySeconds, telemetry.L("notifier", name))}
		for sev := range severities {
			for out := range outcomes {
				ns.attempts[sev][out] = opts.Rec.LabeledCounterOf(MetricAlertsTotal,
					telemetry.L("notifier", name, "severity", string(severities[sev]), "outcome", outcomes[out]))
			}
		}
		slots[i], byName[name] = ns, ns
	}
	for _, r := range pol.Rules {
		for _, name := range r.Notify {
			if _, ok := byName[name]; !ok {
				return nil, &PolicyError{Msg: "rule for family " + r.Family + " routes to unknown notifier " + name}
			}
		}
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	p := &Pipeline{
		policy:     pol,
		notifiers:  slots,
		byName:     byName,
		rec:        opts.Rec,
		log:        log,
		now:        now,
		queueDepth: opts.Rec.GaugeOf(MetricQueueDepth, ""),
		droppedM:   opts.Rec.LabeledCounterOf(MetricAlertsDropped, ""),
		byPolicy:   opts.Rec.LabeledCounterOf(MetricAlertsSuppressed, telemetry.L("reason", "policy")),
		byDedup:    opts.Rec.LabeledCounterOf(MetricAlertsSuppressed, telemetry.L("reason", "dedup")),
		byRate:     opts.Rec.LabeledCounterOf(MetricAlertsSuppressed, telemetry.L("reason", "rate")),
		ch:         make(chan Alert, pol.QueueSize),
		done:       make(chan struct{}),
		lastSeen:   make(map[string]dedupEntry),
		tokens:     float64(pol.RateLimit),
	}
	p.lastRefill = now()
	go p.dispatch()
	return p, nil
}

// Publish offers one alert to the pipeline and never blocks: policy
// filtering happens inline (cheap, read-only), then a non-blocking send
// into the bounded queue. Returns true when the alert was queued; false
// when it was suppressed by policy, shed on overflow, or the pipeline is
// shut down. Safe on a nil pipeline (alerting disabled).
func (p *Pipeline) Publish(a Alert) bool {
	if p == nil {
		return false
	}
	if a.Severity == "" {
		a.Severity = SeverityForScore(a.Score)
	}
	if _, ok := p.policy.route(a.Family, a.Severity); !ok {
		p.suppress(p.byPolicy)
		return false
	}
	if a.FiredAtUnix == 0 {
		a.FiredAtUnix = p.now().Unix()
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.ch <- a:
		p.published.Add(1)
		p.queueDepth.Set(float64(len(p.ch)))
		return true
	default:
		p.dropped.Add(1)
		p.droppedM.Add(1)
		return false
	}
}

// Shutdown stops intake and drains the queue: every already-queued alert
// is delivered (or suppressed) before Shutdown returns, bounded by ctx.
// Idempotent, safe on a nil pipeline, and safe to call concurrently with
// Publish — late publishes after shutdown return false instead of
// panicking on a closed channel.
func (p *Pipeline) Shutdown(ctx context.Context) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.ch)
	}
	p.mu.Unlock()
	select {
	case <-p.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	p.closeNotifiers.Do(func() {
		for _, ns := range p.notifiers {
			if c, ok := ns.Notifier.(io.Closer); ok {
				if err := c.Close(); err != nil {
					p.log.Warn("alert notifier close failed", "notifier", ns.name, "err", err)
				}
			}
		}
	})
	return nil
}

// Stats returns the pipeline's lifetime tallies.
func (p *Pipeline) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{
		Published:  p.published.Load(),
		Delivered:  p.delivered.Load(),
		Failed:     p.failed.Load(),
		Dropped:    p.dropped.Load(),
		Suppressed: p.suppressed.Load(),
	}
}

// Recent returns up to limit of the most recent alert records, newest
// first (limit <= 0 means all retained). Safe on a nil pipeline.
func (p *Pipeline) Recent(limit int) []Record {
	if p == nil {
		return nil
	}
	p.ringMu.Lock()
	defer p.ringMu.Unlock()
	size := len(p.ring)
	n := size
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Record, n)
	for i := range out {
		// The newest record sits at (seq-1) % size, the older ones before it.
		out[i] = p.ring[(int((p.seq-1)%uint64(size))-i+size)%size]
	}
	return out
}

// dispatch is the single consumer: it owns dedup and rate-limit state
// and runs every notifier delivery, so slow notifiers back up the queue
// (visible in the depth gauge and, past the bound, the drop counter)
// instead of the scan path.
func (p *Pipeline) dispatch() {
	defer close(p.done)
	for a := range p.ch {
		p.queueDepth.Set(float64(len(p.ch)))
		p.process(a)
	}
	p.queueDepth.Set(0)
}

// dedupSweepFloor bounds the dedup map: past this many live keys expired
// entries are swept on insert.
const dedupSweepFloor = 4096

func (p *Pipeline) process(a Alert) {
	now := p.now()
	if w := p.policy.DedupWindow; w > 0 {
		key := a.App + "\x00" + a.Attr + "\x00" + a.Family
		if e, ok := p.lastSeen[key]; ok && now.Sub(e.last) < w {
			e.suppressed++
			p.lastSeen[key] = e
			p.suppress(p.byDedup)
			return
		}
		if len(p.lastSeen) >= dedupSweepFloor {
			for k, e := range p.lastSeen {
				if now.Sub(e.last) >= w {
					delete(p.lastSeen, k)
				}
			}
		}
		p.lastSeen[key] = dedupEntry{last: now}
	}
	if r := p.policy.RateLimit; r > 0 {
		p.tokens += now.Sub(p.lastRefill).Minutes() * float64(r)
		if max := float64(r); p.tokens > max {
			p.tokens = max
		}
		p.lastRefill = now
		if p.tokens < 1 {
			p.suppress(p.byRate)
			return
		}
		p.tokens--
	}

	names, _ := p.policy.route(a.Family, a.Severity)
	rec := Record{Alert: a}
	if names == nil {
		for _, ns := range p.notifiers {
			p.deliver(ns, &a, &rec)
		}
	} else {
		// Unknown names were rejected at construction.
		for _, name := range names {
			if ns, ok := p.byName[name]; ok {
				p.deliver(ns, &a, &rec)
			}
		}
	}

	p.ringMu.Lock()
	p.seq++
	rec.Seq = p.seq
	if size := uint64(p.policy.RingSize); size > 0 {
		if i := int((p.seq - 1) % size); i < len(p.ring) {
			p.ring[i] = rec
		} else {
			p.ring = append(p.ring, rec)
		}
	}
	p.ringMu.Unlock()
}

// deliver runs one notifier on a and files the outcome in rec and the
// notifier's series.
func (p *Pipeline) deliver(ns *notifierSlot, a *Alert, rec *Record) {
	start := time.Now()
	err := ns.Notify(a)
	elapsed := time.Since(start)
	d := Delivery{Notifier: ns.name, Outcome: OutcomeOK, ElapsedMicros: elapsed.Microseconds()}
	out := 0
	if err != nil {
		out = 1
		d.Outcome = OutcomeError
		d.Error = err.Error()
		p.failed.Add(1)
		p.log.Warn("alert delivery failed", "notifier", ns.name,
			"app", a.App, "attr", a.Attr, "request_id", a.RequestID, "err", err)
	} else {
		p.delivered.Add(1)
	}
	if sev := a.Severity.rank(); sev >= 0 {
		ns.attempts[sev][out].Add(1)
	} else {
		p.rec.AddLabeled(MetricAlertsTotal,
			telemetry.L("notifier", ns.name, "severity", string(a.Severity), "outcome", d.Outcome), 1)
	}
	ns.latency.Observe(elapsed)
	rec.Deliveries = append(rec.Deliveries, d)
}

// suppress counts one suppressed alert, and it in its reason's series.
func (p *Pipeline) suppress(reason telemetry.Counter) {
	p.suppressed.Add(1)
	reason.Add(1)
}
