package alert

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/telemetry"
)

// memNotifier records delivered alerts; gate (when set) blocks every
// delivery until released, and fail makes every delivery error.
type memNotifier struct {
	name string
	gate chan struct{}
	fail bool

	mu    sync.Mutex
	seen  []Alert
	calls int
}

func (m *memNotifier) Name() string { return m.name }

func (m *memNotifier) Notify(a *Alert) error {
	if m.gate != nil {
		<-m.gate
	}
	m.mu.Lock()
	m.calls++
	m.seen = append(m.seen, *a)
	m.mu.Unlock()
	if m.fail {
		return fmt.Errorf("synthetic failure")
	}
	return nil
}

func (m *memNotifier) delivered() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.seen...)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func testAlert(app, attr string, score float64) Alert {
	return Alert{
		App: app, ImageID: app + "-img-1", Family: string(detect.KindCorrelation),
		Attr: attr, Severity: SeverityForScore(score), Score: score,
		Message: "test warning on " + attr, RequestID: "req-1", PlanVersion: "v1",
	}
}

func shutdownPipeline(t testing.TB, p *Pipeline) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("pipeline shutdown: %v", err)
	}
}

func TestSeverityForScore(t *testing.T) {
	cases := []struct {
		score float64
		want  Severity
	}{
		{90, SeverityHigh}, {70, SeverityHigh}, {69.9, SeverityMedium},
		{40, SeverityMedium}, {39.9, SeverityLow}, {0, SeverityLow},
	}
	for _, c := range cases {
		if got := SeverityForScore(c.score); got != c.want {
			t.Errorf("SeverityForScore(%v) = %s, want %s", c.score, got, c.want)
		}
	}
}

func TestFromWarningCarriesProvenance(t *testing.T) {
	w := &detect.Warning{
		Kind: detect.KindType, Attr: "mysql:port", Value: "banana",
		Message: "type mismatch", Score: 85,
	}
	a := FromWarning(w, "mysql", "img-9", "req-42", "v3")
	if a.App != "mysql" || a.ImageID != "img-9" || a.RequestID != "req-42" || a.PlanVersion != "v3" {
		t.Fatalf("provenance not carried: %+v", a)
	}
	if a.Family != "data-type" || a.Severity != SeverityHigh || a.Value != "banana" {
		t.Fatalf("warning fields not carried: %+v", a)
	}
}

// TestPipelineDeliversAndRecords: the happy path end to end — queued,
// delivered, counted, and retained in the ring with provenance.
func TestPipelineDeliversAndRecords(t *testing.T) {
	rec := telemetry.New()
	mem := &memNotifier{name: "mem"}
	p, err := NewPipeline(Options{Rec: rec, Notifiers: []Notifier{mem}})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Publish(testAlert("mysql", "mysql:port", 85)) {
		t.Fatal("publish rejected")
	}
	if !p.Publish(testAlert("mysql", "mysql:datadir", 45)) {
		t.Fatal("publish rejected")
	}
	shutdownPipeline(t, p)

	got := mem.delivered()
	if len(got) != 2 {
		t.Fatalf("delivered %d alerts, want 2", len(got))
	}
	if got[0].RequestID != "req-1" || got[0].PlanVersion != "v1" {
		t.Fatalf("delivered alert lost provenance: %+v", got[0])
	}
	if n := rec.LabeledCounter(MetricAlertsTotal,
		telemetry.L("notifier", "mem", "severity", "high", "outcome", "ok")); n != 1 {
		t.Fatalf("alerts_total{high,ok} = %d, want 1", n)
	}
	if n := rec.LabeledCounter(MetricAlertsTotal,
		telemetry.L("notifier", "mem", "severity", "medium", "outcome", "ok")); n != 1 {
		t.Fatalf("alerts_total{medium,ok} = %d, want 1", n)
	}
	if _, ok := rec.LabeledHistogram(MetricDeliverySeconds, telemetry.L("notifier", "mem")); !ok {
		t.Fatal("delivery latency histogram not recorded")
	}

	recent := p.Recent(0)
	if len(recent) != 2 {
		t.Fatalf("ring holds %d records, want 2", len(recent))
	}
	// Newest first.
	if recent[0].Attr != "mysql:datadir" || recent[0].Seq != 2 {
		t.Fatalf("ring order wrong: %+v", recent[0])
	}
	if len(recent[0].Deliveries) != 1 || recent[0].Deliveries[0].Outcome != OutcomeOK {
		t.Fatalf("ring delivery record wrong: %+v", recent[0].Deliveries)
	}
	if st := p.Stats(); st.Published != 2 || st.Delivered != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRingBounded: the ring retains only the newest RingSize records.
func TestRingBounded(t *testing.T) {
	pol := DefaultPolicy()
	pol.RingSize = 3
	mem := &memNotifier{name: "mem"}
	p, err := NewPipeline(Options{Policy: pol, Notifiers: []Notifier{mem}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.Publish(testAlert("mysql", fmt.Sprintf("mysql:a%d", i), 80))
	}
	shutdownPipeline(t, p)
	recent := p.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("ring holds %d, want 3", len(recent))
	}
	if recent[0].Seq != 10 || recent[2].Seq != 8 {
		t.Fatalf("ring kept wrong records: seqs %d..%d", recent[0].Seq, recent[2].Seq)
	}
	if got := p.Recent(2); len(got) != 2 || got[0].Seq != 10 {
		t.Fatalf("Recent(2) = %d records, first seq %d", len(got), got[0].Seq)
	}
}

// TestPolicySeverityFloor: alerts below the floor are suppressed at
// publish time with reason="policy".
func TestPolicySeverityFloor(t *testing.T) {
	pol := DefaultPolicy()
	pol.MinSeverity = SeverityMedium
	rec := telemetry.New()
	mem := &memNotifier{name: "mem"}
	p, err := NewPipeline(Options{Policy: pol, Rec: rec, Notifiers: []Notifier{mem}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Publish(testAlert("mysql", "mysql:low", 10)) {
		t.Fatal("low-severity alert should have been suppressed")
	}
	if !p.Publish(testAlert("mysql", "mysql:med", 50)) {
		t.Fatal("medium-severity alert should pass")
	}
	shutdownPipeline(t, p)
	if got := mem.delivered(); len(got) != 1 || got[0].Attr != "mysql:med" {
		t.Fatalf("delivered = %+v, want only mysql:med", got)
	}
	if n := rec.LabeledCounter(MetricAlertsSuppressed, telemetry.L("reason", "policy")); n != 1 {
		t.Fatalf("suppressed{policy} = %d, want 1", n)
	}
}

// TestFamilyRouting: a family rule routes to its named notifiers only;
// disabled families and unmatched families (with rules present) are
// suppressed.
func TestFamilyRouting(t *testing.T) {
	pol := DefaultPolicy()
	pol.Rules = []Rule{
		{Family: "correlation", Enabled: true, Notify: []string{"a"}},
		{Family: "data-type", Enabled: false},
	}
	a := &memNotifier{name: "a"}
	b := &memNotifier{name: "b"}
	p, err := NewPipeline(Options{Policy: pol, Notifiers: []Notifier{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	corr := testAlert("mysql", "mysql:port", 80) // family correlation
	if !p.Publish(corr) {
		t.Fatal("correlation alert should route")
	}
	typ := corr
	typ.Family = "data-type"
	if p.Publish(typ) {
		t.Fatal("disabled family should be suppressed")
	}
	name := corr
	name.Family = "entry-name"
	if p.Publish(name) {
		t.Fatal("unmatched family with rules present should be suppressed")
	}
	shutdownPipeline(t, p)
	if len(a.delivered()) != 1 || len(b.delivered()) != 0 {
		t.Fatalf("routing wrong: a=%d b=%d", len(a.delivered()), len(b.delivered()))
	}
}

// TestRouteUnknownNotifierRejected: construction fails when a rule names
// a notifier that does not exist in the injected set.
func TestRouteUnknownNotifierRejected(t *testing.T) {
	pol := DefaultPolicy()
	pol.Rules = []Rule{{Family: "*", Enabled: true, Notify: []string{"ghost"}}}
	_, err := NewPipeline(Options{Policy: pol, Notifiers: []Notifier{&memNotifier{name: "mem"}}})
	if err == nil {
		t.Fatal("pipeline accepted a route to an unknown notifier")
	}
}

// TestDedupSuppression: repeats of (app, attr, family) within the window
// are suppressed and counted; a different key, or the same key after the
// window, delivers.
func TestDedupSuppression(t *testing.T) {
	pol := DefaultPolicy()
	pol.DedupWindow = 10 * time.Minute
	rec := telemetry.New()
	mem := &memNotifier{name: "mem"}
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	p, err := NewPipeline(Options{Policy: pol, Rec: rec, Notifiers: []Notifier{mem}, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	p.Publish(testAlert("mysql", "mysql:port", 80))
	p.Publish(testAlert("mysql", "mysql:port", 80)) // repeat: suppressed
	p.Publish(testAlert("mysql", "mysql:other", 80))
	p.Publish(testAlert("apache", "mysql:port", 80)) // different app: delivers
	waitFor(t, "first round processed", func() bool { return len(mem.delivered()) >= 3 })

	mu.Lock()
	now = now.Add(11 * time.Minute)
	mu.Unlock()
	p.Publish(testAlert("mysql", "mysql:port", 80)) // window passed: delivers
	shutdownPipeline(t, p)

	if got := mem.delivered(); len(got) != 4 {
		t.Fatalf("delivered %d, want 4", len(got))
	}
	if n := rec.LabeledCounter(MetricAlertsSuppressed, telemetry.L("reason", "dedup")); n != 1 {
		t.Fatalf("suppressed{dedup} = %d, want 1", n)
	}
	if st := p.Stats(); st.Suppressed != 1 {
		t.Fatalf("stats.Suppressed = %d, want 1", st.Suppressed)
	}
}

// TestRateLimit: past the per-minute budget alerts are suppressed with
// reason="rate"; elapsed time refills the bucket.
func TestRateLimit(t *testing.T) {
	pol := DefaultPolicy()
	pol.RateLimit = 2
	rec := telemetry.New()
	mem := &memNotifier{name: "mem"}
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	p, err := NewPipeline(Options{Policy: pol, Rec: rec, Notifiers: []Notifier{mem}, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.Publish(testAlert("mysql", fmt.Sprintf("mysql:a%d", i), 80))
	}
	waitFor(t, "burst processed", func() bool {
		return rec.LabeledCounter(MetricAlertsSuppressed, telemetry.L("reason", "rate")) == 3
	})
	if got := mem.delivered(); len(got) != 2 {
		t.Fatalf("delivered %d during burst, want 2", len(got))
	}

	mu.Lock()
	now = now.Add(time.Minute) // refills both tokens
	mu.Unlock()
	p.Publish(testAlert("mysql", "mysql:refilled", 80))
	shutdownPipeline(t, p)
	if got := mem.delivered(); len(got) != 3 {
		t.Fatalf("delivered %d after refill, want 3", len(got))
	}
}

// TestQueueOverflowDoesNotBlock is the backpressure contract: with the
// dispatcher wedged on a slow notifier and the queue full, Publish must
// return immediately (false) and count the drop — the scan hot path
// never waits on alerting.
func TestQueueOverflowDoesNotBlock(t *testing.T) {
	pol := DefaultPolicy()
	pol.QueueSize = 4
	rec := telemetry.New()
	gate := make(chan struct{})
	mem := &memNotifier{name: "mem", gate: gate}
	p, err := NewPipeline(Options{Policy: pol, Rec: rec, Notifiers: []Notifier{mem}})
	if err != nil {
		t.Fatal(err)
	}
	// One alert wedges in the dispatcher, four fill the queue. Publish
	// naturally races the dispatcher's pickup of the first alert, so
	// publish until the queue reports full (drop observed) rather than a
	// fixed count.
	storm := 0
	waitFor(t, "queue to fill", func() bool {
		storm++
		return !p.Publish(testAlert("mysql", fmt.Sprintf("mysql:a%d", storm), 80))
	})

	// The queue is now provably full; every further publish must return
	// false immediately.
	start := time.Now()
	for i := 0; i < 100; i++ {
		if p.Publish(testAlert("mysql", fmt.Sprintf("mysql:b%d", i), 80)) {
			t.Fatal("publish succeeded against a full queue")
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("publishes against a full queue took %v — the path blocked", elapsed)
	}
	if n := rec.LabeledCounter(MetricAlertsDropped, ""); n != p.Stats().Dropped || n < 100 {
		t.Fatalf("dropped counter = %d (stats %d), want >= 100 and consistent", n, p.Stats().Dropped)
	}
	// The depth gauge is written by both publishers and the dispatcher,
	// so mid-storm its exact value races; it must exist and be within
	// the queue bound (the deterministic zero-after-drain case is pinned
	// by TestShutdownDrainsQueue).
	if depth, ok := rec.Gauge(MetricQueueDepth, ""); !ok || depth < 0 || depth > float64(pol.QueueSize) {
		t.Fatalf("queue depth gauge = %v, %v; want within [0,%d]", depth, ok, pol.QueueSize)
	}

	close(gate) // unwedge; shutdown must drain everything queued
	shutdownPipeline(t, p)
	if got, want := int64(len(mem.delivered())), p.Stats().Published; got != want {
		t.Fatalf("delivered %d of %d queued alerts after drain", got, want)
	}
}

// TestShutdownDrainsQueue: alerts queued before Shutdown are all
// delivered before it returns, and the depth gauge lands on zero.
func TestShutdownDrainsQueue(t *testing.T) {
	rec := telemetry.New()
	mem := &memNotifier{name: "mem"}
	p, err := NewPipeline(Options{Rec: rec, Notifiers: []Notifier{mem}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if !p.Publish(testAlert("mysql", fmt.Sprintf("mysql:a%d", i), 80)) {
			t.Fatalf("publish %d rejected", i)
		}
	}
	shutdownPipeline(t, p)
	if got := mem.delivered(); len(got) != 50 {
		t.Fatalf("drain delivered %d of 50", len(got))
	}
	if depth, _ := rec.Gauge(MetricQueueDepth, ""); depth != 0 {
		t.Fatalf("queue depth after drain = %v, want 0", depth)
	}
}

// TestPublishAfterShutdown: a late publish is rejected, not a panic on a
// closed channel.
func TestPublishAfterShutdown(t *testing.T) {
	p, err := NewPipeline(Options{Notifiers: []Notifier{&memNotifier{name: "mem"}}})
	if err != nil {
		t.Fatal(err)
	}
	shutdownPipeline(t, p)
	if p.Publish(testAlert("mysql", "mysql:late", 80)) {
		t.Fatal("publish accepted after shutdown")
	}
	shutdownPipeline(t, p) // idempotent
}

// TestNilPipelineSafe: a nil pipeline (alerting disabled) is a no-op on
// every method.
func TestNilPipelineSafe(t *testing.T) {
	var p *Pipeline
	if p.Publish(testAlert("mysql", "mysql:x", 80)) {
		t.Fatal("nil pipeline accepted an alert")
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.Recent(5); got != nil {
		t.Fatal("nil pipeline returned records")
	}
	if st := p.Stats(); st != (Stats{}) {
		t.Fatal("nil pipeline returned stats")
	}
}

// TestPipelineNoGoroutineLeak: the dispatcher goroutine must be gone
// after Shutdown (same pin as serve.Close).
func TestPipelineNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		mem := &memNotifier{name: "mem"}
		p, err := NewPipeline(Options{Rec: telemetry.New(), Notifiers: []Notifier{mem}})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 20; j++ {
			p.Publish(testAlert("mysql", fmt.Sprintf("mysql:a%d", j), 80))
		}
		shutdownPipeline(t, p)
	}
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

// TestConcurrentPublish: many publishers against one dispatcher under
// the race detector; every accepted alert is accounted for.
func TestConcurrentPublish(t *testing.T) {
	mem := &memNotifier{name: "mem"}
	pol := DefaultPolicy()
	pol.QueueSize = 64
	p, err := NewPipeline(Options{Policy: pol, Notifiers: []Notifier{mem}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Publish(testAlert("mysql", fmt.Sprintf("mysql:g%d-a%d", g, i), 80))
			}
		}(g)
	}
	wg.Wait()
	shutdownPipeline(t, p)
	st := p.Stats()
	if int64(len(mem.delivered())) != st.Published {
		t.Fatalf("delivered %d != published %d", len(mem.delivered()), st.Published)
	}
	if st.Published+st.Dropped != 400 {
		t.Fatalf("published %d + dropped %d != 400", st.Published, st.Dropped)
	}
}

// TestRingWrapsNewestFirst: across several wraps of the circular ring,
// Recent returns exactly the last RingSize records, newest first, at
// every limit.
func TestRingWrapsNewestFirst(t *testing.T) {
	pol := DefaultPolicy()
	pol.RingSize = 4
	p, err := NewPipeline(Options{Policy: pol, Notifiers: []Notifier{&memNotifier{name: "mem"}}})
	if err != nil {
		t.Fatal(err)
	}
	shutdownPipeline(t, p)
	for n := 1; n <= 11; n++ {
		p.process(testAlert("mysql", fmt.Sprintf("mysql:a%d", n), 80))
		want := min(n, pol.RingSize)
		for _, limit := range []int{0, 1, want, want + 1} {
			got := p.Recent(limit)
			wantLen := want
			if limit > 0 && limit < want {
				wantLen = limit
			}
			if len(got) != wantLen {
				t.Fatalf("after %d alerts Recent(%d) = %d records, want %d", n, limit, len(got), wantLen)
			}
			for i, r := range got {
				if r.Seq != uint64(n-i) || r.Attr != fmt.Sprintf("mysql:a%d", n-i) {
					t.Fatalf("after %d alerts Recent(%d)[%d] = seq %d %s", n, limit, i, r.Seq, r.Attr)
				}
			}
		}
	}
}

// nopNotifier accepts every alert.
type nopNotifier struct{}

func (nopNotifier) Name() string        { return "nop" }
func (nopNotifier) Notify(*Alert) error { return nil }

// BenchmarkAlertDispatch times the dispatcher's work per alert once the
// recent ring is full: route, one delivery with its attempt counter and
// latency histogram, and the ring write. The ring overwrites its oldest
// record in place, so a 4096-record ring costs what a 128-record one does.
func BenchmarkAlertDispatch(b *testing.B) {
	for _, size := range []int{DefaultRingSize, 4096} {
		b.Run(fmt.Sprintf("ring=%d", size), func(b *testing.B) {
			pol := DefaultPolicy()
			pol.RingSize = size
			p, err := NewPipeline(Options{Policy: pol, Notifiers: []Notifier{nopNotifier{}}, Rec: telemetry.New()})
			if err != nil {
				b.Fatal(err)
			}
			// The dispatcher exits, so the benchmark owns its state.
			shutdownPipeline(b, p)
			a := testAlert("mysql", "mysql:mysqld/port", 80)
			for i := 0; i < size; i++ {
				p.process(a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.process(a)
			}
		})
	}
}
