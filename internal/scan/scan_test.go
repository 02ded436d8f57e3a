package scan_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	encore "repro"
	"repro/internal/alert"
	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/fleet"
	"repro/internal/inject"
	"repro/internal/scan"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// testFleet returns a framework, a plan compiled from learned knowledge,
// and a target fleet whose image at index corruptAt (if >= 0) fails
// assembly with a parse error.
func testFleet(t *testing.T, n, corruptAt int) (*encore.Framework, *encore.Plan, []*sysimage.Image) {
	t.Helper()
	training, err := corpus.Training("mysql", 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	fw := encore.New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := corpus.Training("mysql", n, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range targets {
		img.ID = fmt.Sprintf("target-%03d", i)
	}
	if corruptAt >= 0 {
		targets[corruptAt].ConfigFiles = append(targets[corruptAt].ConfigFiles, sysimage.ConfigFile{
			App: "mysql", Path: "/etc/mysql/broken.cnf", Content: "[unterminated\n",
		})
	}
	return fw, fw.CompilePlan(k), targets
}

// reports returns a result's successful reports in input order.
func reports(res *scan.Result) []*detect.Report {
	var out []*detect.Report
	for _, it := range res.Items {
		if it.Report != nil {
			out = append(out, it.Report)
		}
	}
	return out
}

// failures returns a result's per-image failures in input order.
func failures(res *scan.Result) []*scan.ScanError {
	var out []*scan.ScanError
	for _, it := range res.Items {
		if it.Err != nil {
			out = append(out, it.Err)
		}
	}
	return out
}

// scanImages runs the batch engine over in-memory images and collects the
// result in input order.
func scanImages(eng *fleet.Coordinator, images []*sysimage.Image) (*scan.Result, error) {
	res, _, err := eng.Collect(context.Background(), &encore.ImageSource{Images: images})
	return res, err
}

// TestBatchFaultIsolation is the acceptance-criterion test: a batch over a
// corpus containing one corrupt image returns findings for every other
// image plus exactly one ScanError.
func TestBatchFaultIsolation(t *testing.T) {
	fw, plan, targets := testFleet(t, 6, 2)
	res, err := scanImages(fw.ScanEngine(plan), targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != len(targets) {
		t.Fatalf("items = %d, want %d", len(res.Items), len(targets))
	}
	errs := failures(res)
	if len(errs) != 1 {
		t.Fatalf("errors = %d, want exactly 1", len(errs))
	}
	if errs[0].ImageID != "target-002" {
		t.Fatalf("failed image = %q, want target-002", errs[0].ImageID)
	}
	if !strings.Contains(errs[0].Error(), "target-002") || !strings.Contains(errs[0].Error(), "broken.cnf") {
		t.Fatalf("ScanError lacks image/file context: %v", errs[0])
	}
	if got := len(reports(res)); got != len(targets)-1 {
		t.Fatalf("reports = %d, want %d", got, len(targets)-1)
	}
	for i, it := range res.Items {
		if i == 2 {
			continue
		}
		if it.Report == nil || it.Report.SystemID != fmt.Sprintf("target-%03d", i) {
			t.Fatalf("item %d lost its report or its order", i)
		}
	}
}

// TestPanicIsolation: a check that panics on one image costs that image
// alone. The panic becomes the image's ScanError and is counted like any
// other failure, every other image still reports, Strict fails the batch
// with that error, and the plan that panicked half-way through streaming
// an image into its scratch then checks healthy images exactly as a
// freshly compiled plan does.
func TestPanicIsolation(t *testing.T) {
	fw, plan, targets := testFleet(t, 6, -1)
	_, fresh, _ := testFleet(t, 6, -1)
	// An environment attribute computed after the image's config entries
	// are streamed: panicking there leaves the plan's scratch half-written.
	fw.Assembler.AddEnvAttr(assemble.EnvAttr{Name: "Test.Crafted", Type: conftypes.TypeString,
		Compute: func(img *sysimage.Image) (string, bool) {
			if img.ID == "target-002" {
				panic("crafted image")
			}
			return "", false
		}})

	rec := telemetry.New()
	eng := fw.ScanEngine(plan)
	eng.Opts.Telemetry = rec
	res, err := scanImages(eng, targets)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range res.Items {
		if i == 2 {
			if it.Err == nil || it.Err.ImageID != "target-002" || !strings.HasPrefix(it.Err.Err.Error(), "panic: crafted image") {
				t.Fatalf("panicking image = %+v, want its ScanError", it)
			}
			continue
		}
		if it.Report == nil || it.Report.SystemID != targets[i].ID {
			t.Fatalf("item %d lost its report: %+v", i, it)
		}
	}
	if got := rec.Counter(telemetry.CounterScanErrors); got != 1 {
		t.Fatalf("scan errors = %d, want 1", got)
	}
	if got := rec.LabeledCounter(fleet.MetricErrors, ""); got != 1 {
		t.Fatalf("%s = %d, want 1", fleet.MetricErrors, got)
	}

	eng.Opts.Strict = true
	var se *scan.ScanError
	if _, err := scanImages(eng, targets); !errors.As(err, &se) || se.ImageID != "target-002" {
		t.Fatalf("strict error = %v, want the panicking image's ScanError", err)
	}

	for _, img := range append(targets[:2:2], targets[3:]...) {
		got, err := plan.Check(img)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Check(img)
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := got.RenderJSON()
		wj, _ := want.RenderJSON()
		if !bytes.Equal(gj, wj) {
			t.Fatalf("%s after a panic:\n%s\nwant:\n%s", img.ID, gj, wj)
		}
	}
}

// TestStrictFailFast checks the historical behaviour is preserved behind
// Strict: the corrupt image aborts the whole batch.
func TestStrictFailFast(t *testing.T) {
	fw, plan, targets := testFleet(t, 6, 2)
	eng := fw.ScanEngine(plan)
	eng.Opts.Strict = true
	res, err := scanImages(eng, targets)
	if err == nil {
		t.Fatal("strict scan of corrupt fleet should fail")
	}
	if res != nil {
		t.Fatal("strict failure should not return a partial result")
	}
	var se *scan.ScanError
	if !errors.As(err, &se) || se.ImageID != "target-002" {
		t.Fatalf("error = %v, want ScanError for target-002", err)
	}
}

// TestScanCleanFleet checks the no-error path across worker counts.
func TestScanCleanFleet(t *testing.T) {
	fw, plan, targets := testFleet(t, 5, -1)
	for _, workers := range []int{0, 1, 4} {
		eng := fw.ScanEngine(plan)
		eng.Opts.Workers = workers
		res, err := scanImages(eng, targets)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(failures(res)) != 0 || len(reports(res)) != len(targets) {
			t.Fatalf("workers=%d: unexpected result shape", workers)
		}
	}
}

// TestScanDirIsolatesDecodeErrors checks a directory scan treats an
// undecodable image file like any other per-image failure.
func TestScanDirIsolatesDecodeErrors(t *testing.T) {
	fw, plan, targets := testFleet(t, 4, -1)
	dir := t.TempDir()
	if err := sysimage.SaveDir(dir, targets); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := fleet.NewDirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := fw.ScanEngine(plan)
	res, _, err := eng.Collect(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != len(targets)+1 {
		t.Fatalf("items = %d, want %d", len(res.Items), len(targets)+1)
	}
	errs := failures(res)
	if len(errs) != 1 || !strings.Contains(errs[0].Path, "corrupt.json") {
		t.Fatalf("errors = %v, want one decode failure for corrupt.json", errs)
	}
	if len(reports(res)) != len(targets) {
		t.Fatalf("reports = %d, want %d", len(reports(res)), len(targets))
	}

	eng.Opts.Strict = true
	if _, _, err := eng.Collect(context.Background(), src); err == nil {
		t.Fatal("strict directory scan should fail on the corrupt file")
	}
}

// TestSummarize checks the fleet aggregation maths and ordering.
func TestSummarize(t *testing.T) {
	var s scan.Summary
	for _, it := range []scan.Item{
		{ImageID: "a", Report: &detect.Report{SystemID: "a", Warnings: []*detect.Warning{
			{Kind: detect.KindType, Attr: "x"},
			{Kind: detect.KindType, Attr: "y"},
		}}},
		{ImageID: "b", Report: &detect.Report{SystemID: "b", Warnings: []*detect.Warning{
			{Kind: detect.KindCorrelation, Attr: "x"},
		}}},
		{ImageID: "c", Report: &detect.Report{SystemID: "c"}},
		{Err: &scan.ScanError{ImageID: "d", Err: errors.New("boom")}},
	} {
		s.Observe(it, 2)
	}
	s.Finish()
	if s.Scanned != 4 || s.Flagged != 1 || s.Warnings != 3 || s.Errors != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.ByKind[detect.KindType] != 2 || s.ByKind[detect.KindCorrelation] != 1 {
		t.Fatalf("byKind = %v", s.ByKind)
	}
	want := []scan.AttrCount{{Attr: "x", Count: 2}, {Attr: "y", Count: 1}}
	if len(s.HotAttrs) != 2 || s.HotAttrs[0] != want[0] || s.HotAttrs[1] != want[1] {
		t.Fatalf("hotAttrs = %v", s.HotAttrs)
	}
}

// TestScanTelemetry verifies the batch counters.
func TestScanTelemetry(t *testing.T) {
	fw, plan, targets := testFleet(t, 5, 1)
	rec := telemetry.New()
	eng := fw.ScanEngine(plan)
	eng.Opts.Telemetry = rec
	res, err := scanImages(eng, targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(telemetry.CounterImagesScanned); got != 5 {
		t.Fatalf("images scanned = %d, want 5", got)
	}
	if got := rec.Counter(telemetry.CounterScanErrors); got != 1 {
		t.Fatalf("scan errors = %d, want 1", got)
	}
	warnings := 0
	for _, rep := range reports(res) {
		warnings += len(rep.Warnings)
	}
	if got := rec.Counter(telemetry.CounterFindingsEmitted); got != int64(warnings) {
		t.Fatalf("findings counter = %d, want %d", got, warnings)
	}
}

// TestScanTelemetrySpansAndHistogram verifies the batch records per-image
// scan latencies into the histogram, emits a span tree rooted at
// scan.batch with one child per worker and no per-image spans, and steps
// the progress reporter once per image.
func TestScanTelemetrySpansAndHistogram(t *testing.T) {
	fw, plan, targets := testFleet(t, 5, -1)
	rec := telemetry.New()
	eng := fw.ScanEngine(plan)
	eng.Opts.Telemetry = rec
	eng.Opts.Workers = 2
	var buf bytes.Buffer
	p := telemetry.NewProgress(&buf, "scan", len(targets), time.Hour)
	eng.Opts.Progress = p
	if _, err := scanImages(eng, targets); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	if !strings.Contains(buf.String(), "scan: 5/5 images") {
		t.Fatalf("progress output = %q", buf.String())
	}

	snap := rec.Snapshot()
	var hist *telemetry.HistogramData
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == telemetry.HistImageScan {
			hist = &snap.Histograms[i]
		}
	}
	if hist == nil {
		t.Fatalf("no %s histogram in snapshot", telemetry.HistImageScan)
	}
	if hist.Count != 5 {
		t.Fatalf("scan latency samples = %d, want 5", hist.Count)
	}
	if hist.P50 <= 0 || hist.P99 <= 0 || hist.P99 > hist.Max {
		t.Fatalf("degenerate quantiles: p50=%v p99=%v max=%v", hist.P50, hist.P99, hist.Max)
	}

	var rootID int64
	workers := 0
	for _, sp := range snap.Spans {
		if sp.Name == "scan.batch" {
			rootID = sp.ID
		}
	}
	if rootID == 0 {
		t.Fatalf("no scan.batch root span; spans = %+v", snap.Spans)
	}
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "scan.batch":
		case "scan.worker":
			workers++
			if sp.Parent != rootID {
				t.Fatalf("worker span parent = %d, want %d", sp.Parent, rootID)
			}
		default:
			t.Fatalf("unexpected span %q: the batch records no per-image spans", sp.Name)
		}
	}
	if workers != 2 {
		t.Fatalf("workers=%d, want 2", workers)
	}
}

// TestEngineRequiresCheck pins the misuse error.
func TestEngineRequiresCheck(t *testing.T) {
	eng := &fleet.Coordinator{}
	if _, err := scanImages(eng, nil); err == nil {
		t.Fatal("engine without Check should error")
	}
}

// memNotifier captures delivered alerts for assertions.
type memNotifier struct {
	mu  sync.Mutex
	got []alert.Alert
}

func (m *memNotifier) Name() string { return "mem" }

func (m *memNotifier) Notify(a *alert.Alert) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.got = append(m.got, *a)
	return nil
}

func (m *memNotifier) alerts() []alert.Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]alert.Alert(nil), m.got...)
}

// TestScanPublishesAlerts: every warning a batch scan emits must reach
// the alert pipeline carrying the batch request ID (generated when the
// engine has none) and the engine's plan-version provenance.
func TestScanPublishesAlerts(t *testing.T) {
	fw, plan, targets := testFleet(t, 3, -1)
	if _, err := inject.New(7).Inject(targets[0], "mysql", 5); err != nil {
		t.Fatal(err)
	}

	mem := &memNotifier{}
	pipe, err := alert.NewPipeline(alert.Options{Notifiers: []alert.Notifier{mem}})
	if err != nil {
		t.Fatal(err)
	}
	eng := fw.ScanEngine(plan)
	eng.Opts.Alerts = pipe
	eng.Opts.PlanVersion = "plan:test.plan"
	res, err := scanImages(eng, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	warnings := 0
	for _, it := range res.Items {
		if it.Report != nil {
			warnings += len(it.Report.Warnings)
		}
	}
	if warnings == 0 {
		t.Fatal("injected fleet produced no warnings")
	}
	got := mem.alerts()
	if len(got) != warnings {
		t.Fatalf("notifier saw %d alerts, want %d", len(got), warnings)
	}
	reqID := got[0].RequestID
	if !strings.HasPrefix(reqID, "scan-") {
		t.Fatalf("generated batch request id = %q, want scan- prefix", reqID)
	}
	for _, a := range got {
		if a.RequestID != reqID {
			t.Fatalf("request id not shared across the batch: %q vs %q", a.RequestID, reqID)
		}
		if a.PlanVersion != "plan:test.plan" || a.App == "" || a.Severity == "" {
			t.Fatalf("alert provenance wrong: %+v", a)
		}
	}
	if s := pipe.Stats(); s.Published != int64(warnings) || s.Delivered != int64(warnings) {
		t.Fatalf("pipeline stats = %+v, want %d published and delivered", s, warnings)
	}

	// An explicit engine request ID flows through unchanged.
	mem2 := &memNotifier{}
	pipe2, err := alert.NewPipeline(alert.Options{Notifiers: []alert.Notifier{mem2}})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := fw.ScanEngine(plan)
	eng2.Opts.Alerts = pipe2
	eng2.Opts.RequestID = "batch-42"
	if _, err := scanImages(eng2, targets); err != nil {
		t.Fatal(err)
	}
	if err := pipe2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, a := range mem2.alerts() {
		if a.RequestID != "batch-42" {
			t.Fatalf("explicit request id lost: %+v", a)
		}
	}
}
