package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

func fixture(t *testing.T) (trainingDir, targetFile string) {
	t.Helper()
	images, err := corpus.Training("mysql", 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	trainingDir = t.TempDir()
	if err := sysimage.SaveDir(trainingDir, images); err != nil {
		t.Fatal(err)
	}
	target := corpus.RealWorldCases()[2].Build()
	data, err := target.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	targetFile = filepath.Join(t.TempDir(), "target.json")
	if err := os.WriteFile(targetFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return trainingDir, targetFile
}

// TestRunLearnStatsShowsPruning asserts the -stats block surfaces the
// rule engine's columnar-index pruning counters alongside the existing
// pipeline counters.
func TestRunLearnStatsShowsPruning(t *testing.T) {
	training, _ := fixture(t)
	rulesFile := filepath.Join(t.TempDir(), "rules.json")

	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := runLearn([]string{"-training", training, "-rules", rulesFile, "-stats"})
	w.Close()
	os.Stderr = old
	out, readErr := io.ReadAll(r)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	for _, counter := range []string{
		"rules.candidates.validated",
		"rules.pruned.support",
		"rules.pruned.entropy",
	} {
		if !strings.Contains(string(out), counter) {
			t.Fatalf("-stats output missing %q:\n%s", counter, out)
		}
	}
}

func TestRunLearnWritesRules(t *testing.T) {
	training, _ := fixture(t)
	rulesFile := filepath.Join(t.TempDir(), "rules.json")
	if err := runLearn([]string{"-training", training, "-rules", rulesFile}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(rulesFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty rules file")
	}
}

func TestRunLearnWritesProfile(t *testing.T) {
	training, _ := fixture(t)
	profileFile := filepath.Join(t.TempDir(), "profile.json")
	if err := runLearn([]string{"-training", training, "-profile", profileFile}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(profileFile); err != nil {
		t.Fatal(err)
	}
}

func TestRunCheckWithTraining(t *testing.T) {
	training, target := fixture(t)
	if err := runCheck([]string{"-training", training, "-target", target, "-top", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCheckWithProfile(t *testing.T) {
	training, target := fixture(t)
	profileFile := filepath.Join(t.TempDir(), "profile.json")
	if err := runLearn([]string{"-training", training, "-profile", profileFile}); err != nil {
		t.Fatal(err)
	}
	if err := runCheck([]string{"-profile", profileFile, "-target", target}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsNullRuleProfile: a profile holding a null rule is an
// error for every subcommand that reads -profile, not a panic.
func TestRunRejectsNullRuleProfile(t *testing.T) {
	_, target := fixture(t)
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"samples":1,"attrs":[],"rules":[null]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"check", func() error { return runCheck([]string{"-profile", bad, "-target", target}) }},
		{"scan", func() error { return runScan([]string{"-profile", bad, "-targets", dir}) }},
		{"compile", func() error {
			return runCompile([]string{"-profile", bad, "-plan-out", filepath.Join(dir, "x.plan")})
		}},
	} {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), "rule 0 is null") {
			t.Errorf("%s -profile with a null rule: err = %v", c.name, err)
		}
	}
}

func TestRunAssembleWritesCSV(t *testing.T) {
	training, _ := fixture(t)
	csvFile := filepath.Join(t.TempDir(), "data.csv")
	if err := runAssemble([]string{"-training", training, "-csv", csvFile}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV")
	}
}

func TestRunArgumentValidation(t *testing.T) {
	if err := runLearn([]string{}); err == nil {
		t.Fatal("learn without -training should error")
	}
	if err := runCheck([]string{"-target", "x.json"}); err == nil {
		t.Fatal("check without knowledge source should error")
	}
	if err := runCheck([]string{"-training", "a", "-profile", "b", "-target", "x.json"}); err == nil {
		t.Fatal("check with both knowledge sources should error")
	}
	if err := runAssemble([]string{}); err == nil {
		t.Fatal("assemble without -training should error")
	}
	if err := runCheck([]string{"-profile", "/no/such.json", "-target", "/no/such.json"}); err == nil {
		t.Fatal("missing files should error")
	}
}

func TestRunWithCustomization(t *testing.T) {
	training, target := fixture(t)
	customFile := filepath.Join(t.TempDir(), "custom.txt")
	custom := "$$TypeDeclaration\nDataDir\n$$TypeInference\nDataDir (value): { matches(value, 'mysql') && hasPrefix(value, '/') }\n"
	if err := os.WriteFile(customFile, []byte(custom), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCheck([]string{"-training", training, "-target", target, "-custom", customFile}); err != nil {
		t.Fatal(err)
	}
	if err := runCheck([]string{"-training", training, "-target", target, "-custom", "/missing.txt"}); err == nil {
		t.Fatal("missing customization file should error")
	}
}

func TestRunScan(t *testing.T) {
	training, _ := fixture(t)
	// Scan a small fleet containing one broken image.
	targets := t.TempDir()
	images, err := corpus.Training("mysql", 3, 91)
	if err != nil {
		t.Fatal(err)
	}
	broken := corpus.RealWorldCases()[2].Build()
	images = append(images, broken)
	if err := sysimage.SaveDir(targets, images); err != nil {
		t.Fatal(err)
	}
	if err := runScan([]string{"-training", training, "-targets", targets}); err != nil {
		t.Fatal(err)
	}
	// Profile-based scan.
	profileFile := filepath.Join(t.TempDir(), "p.json")
	if err := runLearn([]string{"-training", training, "-profile", profileFile}); err != nil {
		t.Fatal(err)
	}
	if err := runScan([]string{"-profile", profileFile, "-targets", targets}); err != nil {
		t.Fatal(err)
	}
	// Argument validation.
	if err := runScan([]string{"-targets", targets}); err == nil {
		t.Fatal("scan without knowledge source should error")
	}
	if err := runScan([]string{"-training", training}); err == nil {
		t.Fatal("scan without targets should error")
	}
}

// TestRunScanObservabilityExports is the acceptance-criterion test for
// the telemetry exporters: one scan producing a versioned JSON snapshot
// whose per-image scan histogram has non-zero quantiles, plus a loadable
// Chrome trace with at least the batch span.
func TestRunScanObservabilityExports(t *testing.T) {
	training, _ := fixture(t)
	targets := t.TempDir()
	images, err := corpus.Training("mysql", 4, 91)
	if err != nil {
		t.Fatal(err)
	}
	if err := sysimage.SaveDir(targets, images); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "stats.json")
	trace := filepath.Join(t.TempDir(), "trace.json")
	err = runScan([]string{
		"-training", training, "-targets", targets,
		"-stats-json", out, "-trace-out", trace,
	})
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Version    int `json:"version"`
		Histograms []struct {
			Name      string `json:"name"`
			Count     uint64 `json:"count"`
			P50Micros int64  `json:"p50Micros"`
			P99Micros int64  `json:"p99Micros"`
		} `json:"histograms"`
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("stats JSON does not parse: %v", err)
	}
	if snap.Version != 2 {
		t.Fatalf("snapshot version = %d, want 2", snap.Version)
	}
	found := false
	for _, h := range snap.Histograms {
		if h.Name != "scan.image.scan" {
			continue
		}
		found = true
		if h.Count != 4 || h.P50Micros <= 0 || h.P99Micros <= 0 {
			t.Fatalf("scan histogram = %+v, want count 4 and non-zero p50/p99", h)
		}
	}
	if !found {
		t.Fatalf("no scan.image.scan histogram in %s", data)
	}
	batchSpan := false
	for _, sp := range snap.Spans {
		if sp.Name == "scan.batch" {
			batchSpan = true
		}
	}
	if !batchSpan {
		t.Fatal("no scan.batch span in snapshot")
	}

	traceData, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	batchEvent := false
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Name == "scan.batch" {
			batchEvent = true
		}
	}
	if !batchEvent {
		t.Fatalf("no scan.batch complete event in trace: %s", traceData)
	}
}

// fetchURL GETs a live-service endpoint during an acceptance test.
func fetchURL(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// promValue extracts the sample value of a label-less metric from an
// exposition document (-1 when absent).
func promValue(text, name string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// TestRunScanServeLiveMetrics is the acceptance-criterion test for the
// live metrics service: a real `encore scan -serve :0` run is probed over
// HTTP at two deterministic points — listener-up (/healthz reports the
// scan phase) and pipeline-complete-but-still-serving (/metrics) — and the
// fetched exposition must be well-formed, report a non-zero
// encore_scan_images_total, keep its histogram bucket series cumulative,
// and agree exactly with the -stats-json snapshot written for the same
// run.
func TestRunScanServeLiveMetrics(t *testing.T) {
	training, _ := fixture(t)
	targets := t.TempDir()
	images, err := corpus.Training("mysql", 5, 91)
	if err != nil {
		t.Fatal(err)
	}
	if err := sysimage.SaveDir(targets, images); err != nil {
		t.Fatal(err)
	}

	var health, metrics string
	obsHooks = telemetry.ServeHooks{
		OnServe: func(srv *telemetry.Server) {
			health = fetchURL(t, "http://"+srv.Addr()+"/healthz")
		},
		BeforeShutdown: func(srv *telemetry.Server) {
			metrics = fetchURL(t, "http://"+srv.Addr()+"/metrics")
		},
	}
	defer func() { obsHooks = telemetry.ServeHooks{} }()

	statsOut := filepath.Join(t.TempDir(), "stats.json")
	err = runScan([]string{
		"-training", training, "-targets", targets,
		"-serve", "127.0.0.1:0", "-stats-json", statsOut,
	})
	if err != nil {
		t.Fatal(err)
	}

	var h struct {
		Status string `json:"status"`
		Phase  string `json:"phase"`
	}
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatalf("/healthz does not parse: %v: %q", err, health)
	}
	if h.Status != "ok" || h.Phase != "scan" {
		t.Fatalf("/healthz at startup = %+v, want status ok in phase scan", h)
	}

	scanned := promValue(metrics, "encore_scan_images_total")
	if scanned != 5 {
		t.Fatalf("encore_scan_images_total = %d, want 5\n%s", scanned, metrics)
	}
	if !strings.Contains(metrics, `encore_phase{phase="done"} 1`) {
		t.Fatalf("/metrics after the run missing the done phase:\n%s", metrics)
	}
	if promValue(metrics, "encore_goroutines") <= 0 || promValue(metrics, "encore_heap_bytes") <= 0 {
		t.Fatalf("/metrics missing runtime sampler gauges:\n%s", metrics)
	}
	if promValue(metrics, "encore_progress_done") != 5 || promValue(metrics, "encore_progress_total") != 5 {
		t.Fatalf("/metrics progress gauges wrong:\n%s", metrics)
	}

	// Bucket series must be cumulative within each histogram family.
	var prev int64
	var inBuckets string
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.Contains(line, "_bucket{le=") {
			continue
		}
		family := line[:strings.Index(line, "{")]
		n, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if family == inBuckets && n < prev {
			t.Fatalf("bucket series not cumulative at %q", line)
		}
		inBuckets, prev = family, n
	}

	// The live exposition fetched before shutdown and the exported JSON
	// snapshot describe the same completed run: counters must agree.
	data, err := os.ReadFile(statsOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Version  int    `json:"version"`
		Phase    string `json:"phase"`
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Runtime *struct {
			Samples []struct {
				HeapBytes uint64 `json:"heapBytes"`
			} `json:"samples"`
		} `json:"runtime"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || snap.Phase != "done" {
		t.Fatalf("snapshot version/phase = %d/%q, want 2/done", snap.Version, snap.Phase)
	}
	if snap.Runtime == nil || len(snap.Runtime.Samples) == 0 {
		t.Fatal("snapshot lost the runtime sampler section")
	}
	counterNames := map[string]string{
		"scan.images.scanned":   "encore_scan_images_total",
		"scan.findings.emitted": "encore_scan_findings_total",
	}
	for _, c := range snap.Counters {
		prom, ok := counterNames[c.Name]
		if !ok {
			continue
		}
		if got := promValue(metrics, prom); got != c.Value {
			t.Fatalf("%s: live exposition says %d, exported snapshot says %d", prom, got, c.Value)
		}
	}
}

// TestRunScanStatsJSONStdout checks `-stats-json -` streams the snapshot
// to stdout instead of creating a file named "-".
func TestRunScanStatsJSONStdout(t *testing.T) {
	training, _ := fixture(t)
	targets := t.TempDir()
	images, err := corpus.Training("mysql", 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := sysimage.SaveDir(targets, images); err != nil {
		t.Fatal(err)
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		outCh <- data
	}()
	runErr := runScan([]string{"-training", training, "-targets", targets, "-stats-json", "-"})
	w.Close()
	os.Stdout = old
	out := string(<-outCh)
	if runErr != nil {
		t.Fatal(runErr)
	}
	idx := strings.Index(out, "{\n  \"version\"")
	if idx < 0 {
		t.Fatalf("no snapshot document on stdout:\n%s", out)
	}
	var snap struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal([]byte(out[idx:]), &snap); err != nil {
		t.Fatalf("stdout snapshot does not parse: %v", err)
	}
	if snap.Version != 2 {
		t.Fatalf("stdout snapshot version = %d, want 2", snap.Version)
	}
	if _, err := os.Stat(filepath.Join(wd, "-")); !os.IsNotExist(err) {
		t.Fatalf(`a file named "-" was created (stat err: %v)`, err)
	}
}

// TestRunScanProgress captures stderr and checks the -progress reporter
// prints its final done/total line.
func TestRunScanProgress(t *testing.T) {
	training, _ := fixture(t)
	targets := t.TempDir()
	images, err := corpus.Training("mysql", 3, 55)
	if err != nil {
		t.Fatal(err)
	}
	if err := sysimage.SaveDir(targets, images); err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := runScan([]string{"-training", training, "-targets", targets, "-progress"})
	w.Close()
	os.Stderr = old
	out, readErr := io.ReadAll(r)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	if !strings.Contains(string(out), "scan: 3/3 images") {
		t.Fatalf("progress output missing final line:\n%s", out)
	}
}

// TestRunLearnPprof checks the runtime-profiling hooks write profiles and
// reject unknown modes.
func TestRunLearnPprof(t *testing.T) {
	training, _ := fixture(t)
	for _, mode := range []string{"cpu", "heap"} {
		pprofFile := filepath.Join(t.TempDir(), mode+".pprof")
		err := runLearn([]string{"-training", training, "-pprof", mode, "-pprof-out", pprofFile})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		info, err := os.Stat(pprofFile)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if info.Size() == 0 {
			t.Fatalf("mode %s: empty profile", mode)
		}
	}
	if err := runLearn([]string{"-training", training, "-pprof", "goroutine"}); err == nil {
		t.Fatal("unsupported -pprof mode should error")
	}
}

func TestRunRules(t *testing.T) {
	training, _ := fixture(t)
	if err := runRules([]string{"-training", training}); err != nil {
		t.Fatal(err)
	}
	profileFile := filepath.Join(t.TempDir(), "p.json")
	if err := runLearn([]string{"-training", training, "-profile", profileFile}); err != nil {
		t.Fatal(err)
	}
	if err := runRules([]string{"-profile", profileFile}); err != nil {
		t.Fatal(err)
	}
	if err := runRules([]string{}); err == nil {
		t.Fatal("rules without knowledge source should error")
	}
	if err := runRules([]string{"-profile", "/missing.json"}); err == nil {
		t.Fatal("missing profile should error")
	}
}

func TestRunCollect(t *testing.T) {
	root := t.TempDir()
	os.MkdirAll(filepath.Join(root, "etc"), 0o755)
	os.WriteFile(filepath.Join(root, "etc/passwd"), []byte("root:x:0:0:r:/root:/bin/sh\n"), 0o644)
	os.WriteFile(filepath.Join(root, "etc/my.cnf"), []byte("[mysqld]\nuser = root\n"), 0o644)
	out := filepath.Join(t.TempDir(), "img.json")
	err := runCollect([]string{"-root", root, "-id", "tree-1", "-app", "mysql=etc/my.cnf", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	img, err := sysimage.LoadJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.ID != "tree-1" || img.ConfigFor("mysql") == nil || !img.UserExists("root") {
		t.Fatalf("collected image incomplete: %+v", img.ID)
	}
	// Argument validation.
	if err := runCollect([]string{"-root", root}); err == nil {
		t.Fatal("missing flags should error")
	}
	if err := runCollect([]string{"-root", "/nope", "-id", "x", "-out", out}); err == nil {
		t.Fatal("missing root should error")
	}
}

func TestAppFlagsSet(t *testing.T) {
	a := appFlags{}
	if err := a.Set("mysql=etc/my.cnf"); err != nil || a["mysql"] != "etc/my.cnf" {
		t.Fatalf("Set = %v, map = %v", err, a)
	}
	if err := a.Set("badformat"); err == nil {
		t.Fatal("malformed app flag should error")
	}
	if err := a.Set("=x"); err == nil || a.String() == "" {
		t.Fatal("empty name should error; String should render")
	}
}

// TestRunScanFleetByteIdentical is the CLI half of the fleet determinism
// property: `encore scan -shards N` must print byte-identical stdout to
// the default one-shard scan across topologies, corrupt images included.
func TestRunScanFleetByteIdentical(t *testing.T) {
	training, _ := fixture(t)
	targets := t.TempDir()
	images, err := corpus.Training("mysql", 6, 91)
	if err != nil {
		t.Fatal(err)
	}
	images = append(images, corpus.RealWorldCases()[2].Build())
	if err := sysimage.SaveDir(targets, images); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(targets, "corrupt.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}

	want := captureScan(t, targets, "-training", training, "-targets", targets)
	if !strings.Contains(want, "FAILED") || !strings.Contains(want, "scanned 8 images") {
		t.Fatalf("baseline output unexpected:\n%s", want)
	}
	for _, shards := range []string{"1", "2", "5"} {
		got := captureScan(t, targets, "-training", training, "-targets", targets, "-shards", shards)
		if got != want {
			t.Fatalf("-shards %s output diverged:\ngot:\n%s\nwant:\n%s", shards, got, want)
		}
	}

	// Synthetic fleets scale a (clean) corpus; the summary must count the
	// synthetic size, not the corpus size.
	clean := t.TempDir()
	if err := sysimage.SaveDir(clean, images); err != nil {
		t.Fatal(err)
	}
	syn := captureScan(t, targets, "-training", training, "-targets", clean, "-fleet", "40", "-shards", "2")
	if !strings.Contains(syn, "scanned 40 images") {
		t.Fatalf("-fleet 40 summary wrong:\n%s", syn)
	}

	// -strict is rejected with -shards above 1: shards start images out
	// of input order, so the first failure seen need not be the first in
	// order.
	if err := runScan([]string{"-training", training, "-targets", targets, "-shards", "2", "-strict"}); err == nil {
		t.Fatal("-strict -shards should be rejected")
	}
	// One shard claims images in input order, so -strict runs with
	// -shards 1 and with -fleet (one shard unless -shards says more).
	lenient := captureScan(t, clean, "-training", training, "-targets", clean)
	if got := captureScan(t, clean, "-training", training, "-targets", clean, "-shards", "1", "-strict"); got != lenient {
		t.Fatalf("-shards 1 -strict output diverged:\ngot:\n%s\nwant:\n%s", got, lenient)
	}
	if got := captureScan(t, clean, "-training", training, "-targets", clean, "-fleet", "40", "-strict"); !strings.Contains(got, "scanned 40 images") {
		t.Fatalf("-fleet 40 -strict summary wrong:\n%s", got)
	}
	err = runScan([]string{"-training", training, "-targets", targets, "-shards", "1", "-strict"})
	if err == nil || !strings.Contains(err.Error(), "corrupt.json") {
		t.Fatalf("-shards 1 -strict over a corrupt image = %v, want its ScanError", err)
	}
}
