// Command encore is the EnCore CLI: learn best-practice configuration
// rules from a directory of training images, and check target images
// against learned rules.
//
// Usage:
//
//	encore learn  -training DIR [-rules FILE] [-custom FILE]
//	encore check  -training DIR -target FILE [-custom FILE] [-top N]
//	encore assemble -training DIR [-csv FILE]
//
// Images are JSON snapshots as produced by imagegen (one image per file).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	encore "repro"
	"repro/internal/alert"
	"repro/internal/collector"
	"repro/internal/fleet"
	"repro/internal/scan"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// version is the build version, stamped by the Makefile via
// -ldflags "-X main.version=...". It feeds `encore -version`, the serve
// daemon's /v1/status, and the encore_build_info metric.
var version = "dev"

func goVersion() string {
	return fmt.Sprintf("%s %s/%s", runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "learn":
		err = runLearn(os.Args[2:])
	case "check":
		err = runCheck(os.Args[2:])
	case "compile":
		err = runCompile(os.Args[2:])
	case "assemble":
		err = runAssemble(os.Args[2:])
	case "scan":
		err = runScan(os.Args[2:])
	case "rules":
		err = runRules(os.Args[2:])
	case "collect":
		err = runCollect(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "version", "-version", "--version":
		printVersion()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "encore: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		logger, _ := telemetry.NewLogger(os.Stderr, "text", "info")
		logger.Error("encore failed", "command", os.Args[1], "err", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  encore learn    -training DIR [-rules FILE] [-profile FILE] [-custom FILE] [telemetry flags]
  encore compile  (-training DIR | -profile FILE) -plan-out FILE [-custom FILE] [telemetry flags]
  encore check    (-training DIR | -profile FILE | -plan FILE) -target FILE [-top N] [-json] [-advise] [telemetry flags]
  encore scan     (-training DIR | -profile FILE | -plan FILE) -targets DIR [-min-warnings N] [-strict] [-workers N] [-progress] [-alerts POLICY.yaml] [telemetry flags]
  encore rules    (-training DIR | -profile FILE) [-custom FILE]
  encore collect  -root DIR -id NAME -app NAME=RELPATH [-app ...] -out FILE
  encore assemble -training DIR [-csv FILE]
  encore serve    [-addr HOST:PORT] [-plans DIR] [-alerts POLICY.yaml] [-shutdown-timeout DUR] [-stats-json FILE]
  encore version

telemetry flags (learn/check/scan):
  -stats             print pipeline counters, stage timings, and latency quantiles to stderr
  -stats-json FILE   write the versioned JSON telemetry snapshot (counters, histograms, span tree; - for stdout)
  -trace-out FILE    write a Chrome trace_event timeline of the pipeline's worker spans (- for stdout)
  -pprof cpu|heap    capture a runtime profile ([-pprof-out FILE], default encore-<mode>.pprof)
  -serve ADDR        serve live /metrics (Prometheus), /healthz, /snapshot, /debug/pprof during the run
  -sample-every DUR  runtime sampler cadence for the live service and snapshot (default 1s)
  -log text|json     structured log format ([-log-level debug|info|warn|error])`)
}

func newFramework(customFile string) (*encore.Framework, error) {
	fw := encore.New()
	if customFile != "" {
		if err := fw.LoadCustomizationFile(customFile); err != nil {
			return nil, err
		}
	}
	return fw, nil
}

// obsHooks lets the acceptance tests observe the live metrics server at
// deterministic points of a real CLI run (listener up; pipeline complete
// but still serving).
var obsHooks telemetry.ServeHooks

// registerObsFlags installs the shared observability flags — the -stats
// text block, the machine-readable exporters, the runtime/pprof hooks
// (-pprof, not -profile: the knowledge-profile flags already own that
// name), the live -serve metrics service, and -log — on a command's flag
// set.
func registerObsFlags(fs *flag.FlagSet) *telemetry.Flags {
	o := &telemetry.Flags{Hooks: obsHooks}
	o.Register(fs)
	return o
}

// startObs wires the observability sinks and threads the recorder and
// structured logger through the framework. The returned function flushes
// every requested artifact and stops the live service; defer it and fold
// its error into the command's.
func startObs(o *telemetry.Flags, fw *encore.Framework, phase string) (finish func() error, err error) {
	if err := o.Start(phase); err != nil {
		return nil, err
	}
	fw.SetTelemetry(o.Rec)
	fw.SetLogger(o.Log)
	return o.Finish, nil
}

func learn(fw *encore.Framework, trainingDir string) (*encore.Knowledge, error) {
	images, err := sysimage.LoadDir(trainingDir)
	if err != nil {
		return nil, err
	}
	return fw.Learn(images)
}

func runLearn(args []string) (err error) {
	fs := flag.NewFlagSet("learn", flag.ExitOnError)
	training := fs.String("training", "", "directory of training image JSON files")
	rulesOut := fs.String("rules", "", "write learned rules to this file (default stdout)")
	profileOut := fs.String("profile", "", "write a full knowledge profile (rules + histograms) to this file")
	customFile := fs.String("custom", "", "customization file")
	obs := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *training == "" {
		return fmt.Errorf("learn: -training is required")
	}
	fw, err := newFramework(*customFile)
	if err != nil {
		return err
	}
	finish, err := startObs(obs, fw, "learn")
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	k, err := learn(fw, *training)
	if err != nil {
		return err
	}
	if *profileOut != "" {
		data, err := k.Profile().Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*profileOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote knowledge profile (%d rules, %d attributes) -> %s\n",
			len(k.Rules), len(k.Training.Attributes()), *profileOut)
	}
	data, err := k.RuleSet().Marshal()
	if err != nil {
		return err
	}
	if *rulesOut == "" {
		if *profileOut == "" {
			fmt.Println(string(data))
		}
		return nil
	}
	if err := os.WriteFile(*rulesOut, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("learned %d rules from %d images -> %s\n", len(k.Rules), len(k.Training.Rows()), *rulesOut)
	return nil
}

// exactlyOne reports whether exactly one of the knowledge-source flag
// values is set.
func exactlyOne(vals ...string) bool {
	n := 0
	for _, v := range vals {
		if v != "" {
			n++
		}
	}
	return n == 1
}

// runCompile learns (or loads) knowledge and writes the compiled check
// plan in the binary plan format — the millisecond cold-start artifact the
// scan and check commands accept via -plan.
func runCompile(args []string) (err error) {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	training := fs.String("training", "", "directory of training image JSON files")
	profileIn := fs.String("profile", "", "knowledge profile file (alternative to -training)")
	planOut := fs.String("plan-out", "", "write the compiled binary plan to this file")
	customFile := fs.String("custom", "", "customization file")
	obs := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*training == "") == (*profileIn == "") || *planOut == "" {
		return fmt.Errorf("compile: -plan-out and exactly one of -training / -profile are required")
	}
	fw, err := newFramework(*customFile)
	if err != nil {
		return err
	}
	finish, err := startObs(obs, fw, "compile")
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	plan, _, _, err := knowledgePlan(fw, *training, *profileIn, "")
	if err != nil {
		return err
	}
	data := fw.MarshalPlan(plan)
	if err := os.WriteFile(*planOut, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("compiled plan (%d attributes, %d rules, %d training images) -> %s (%d bytes)\n",
		plan.AttrCount(), plan.RuleCount(), plan.Samples(), *planOut, len(data))
	return nil
}

// loadPlanFile reads and rebuilds a binary plan written by compile.
func loadPlanFile(fw *encore.Framework, path string) (*encore.Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return fw.LoadPlan(data)
}

// knowledgePlan builds the check plan named by whichever one of
// -training, -profile and -plan is set, and returns it with the
// provenance stamped on alerts ("plan:mysql.plan", ...). For -training it
// also returns the learned knowledge (nil otherwise), whose live
// distributions -advise reads.
func knowledgePlan(fw *encore.Framework, training, profileIn, planIn string) (*encore.Plan, *encore.Knowledge, string, error) {
	switch {
	case planIn != "":
		plan, err := loadPlanFile(fw, planIn)
		return plan, nil, "plan:" + filepath.Base(planIn), err
	case profileIn != "":
		data, err := os.ReadFile(profileIn)
		if err != nil {
			return nil, nil, "", err
		}
		p, err := encore.LoadProfile(data)
		if err != nil {
			return nil, nil, "", err
		}
		return fw.CompilePlanFromProfile(p), nil, "profile:" + filepath.Base(profileIn), nil
	default:
		k, err := learn(fw, training)
		if err != nil {
			return nil, nil, "", err
		}
		return fw.CompilePlan(k), k, "training:" + filepath.Base(training), nil
	}
}

func runCheck(args []string) (err error) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	training := fs.String("training", "", "directory of training image JSON files")
	profileIn := fs.String("profile", "", "knowledge profile file (alternative to -training)")
	planIn := fs.String("plan", "", "compiled binary plan file (alternative to -training/-profile)")
	target := fs.String("target", "", "target image JSON file")
	customFile := fs.String("custom", "", "customization file")
	top := fs.Int("top", 0, "print only the top N warnings (0 = all)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	withAdvice := fs.Bool("advise", false, "append remediation advice (requires -training)")
	obs := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !exactlyOne(*training, *profileIn, *planIn) || *target == "" {
		return fmt.Errorf("check: -target and exactly one of -training / -profile / -plan are required")
	}
	fw, err := newFramework(*customFile)
	if err != nil {
		return err
	}
	finish, err := startObs(obs, fw, "check")
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	data, err := os.ReadFile(*target)
	if err != nil {
		return err
	}
	img, err := sysimage.LoadJSON(data)
	if err != nil {
		return err
	}
	plan, knowledge, _, err := knowledgePlan(fw, *training, *profileIn, *planIn)
	if err != nil {
		return err
	}
	start := time.Now()
	report, err := plan.Check(img)
	obs.Rec.ObserveDur(telemetry.HistTargetCheck, time.Since(start))
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := report.RenderJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Printf("checked %s against %d rules from %d training images\n", img.ID, plan.RuleCount(), plan.Samples())
	fmt.Print(report.RenderText(*top))
	if *withAdvice {
		if knowledge == nil {
			return fmt.Errorf("check: -advise requires -training (advice uses the live training distributions)")
		}
		advice := knowledge.Advise(report)
		if len(advice) > 0 {
			fmt.Println("\nremediation advice:")
			fmt.Print(encore.RenderAdvice(advice))
		}
	}
	return nil
}

// maxPrintedFailures bounds the FAILED lines a scan prints: an error
// storm (a corrupt mirror, a bad mount) can fail every image of a 100k
// walk, and the first thousand failures are enough to diagnose it. The
// summary still counts every failure.
const maxPrintedFailures = 1000

// runScan checks every image in a directory (or a synthetic fleet cycling
// it) through the batch scan engine and prints a fleet summary: per-image
// warning counts by kind, isolated per-image failures, then the
// attributes flagged most often across the fleet.
func runScan(args []string) (err error) {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	training := fs.String("training", "", "directory of training image JSON files")
	profileIn := fs.String("profile", "", "knowledge profile file (alternative to -training)")
	planIn := fs.String("plan", "", "compiled binary plan file (alternative to -training/-profile)")
	targets := fs.String("targets", "", "directory of target image JSON files")
	minWarnings := fs.Int("min-warnings", 1, "only list images with at least this many warnings")
	customFile := fs.String("custom", "", "customization file")
	strict := fs.Bool("strict", false, "abort the batch on the first failing image instead of isolating it")
	workers := fs.Int("workers", 0, "scan worker pool size (0 = NumCPU)")
	shards := fs.Int("shards", 0, "split -targets into this many contiguous shards, each with its own claim cursor; idle workers steal from the others (0 = one shard)")
	fleetSize := fs.Int("fleet", 0, "scan a synthetic fleet of this many images cycling the -targets corpus")
	progress := fs.Bool("progress", false, "report periodic batch progress (done/total, findings, ETA) on stderr")
	progressEvery := fs.Duration("progress-every", 2*time.Second, "progress reporting interval")
	alertsFile := fs.String("alerts", "", "alerting policy YAML; findings fan out to its notifiers (see examples/alerts.yaml)")
	obs := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !exactlyOne(*training, *profileIn, *planIn) || *targets == "" {
		return fmt.Errorf("scan: -targets and exactly one of -training / -profile / -plan are required")
	}
	if *shards > 1 && *strict {
		// Strict mode's contract is "the first failure in input order
		// fails the batch". One shard's workers claim images in input
		// order; more shards start theirs out of order, so a sharded
		// batch could stop on a later image than that.
		return fmt.Errorf("scan: -strict cannot be combined with -shards above 1")
	}
	fw, err := newFramework(*customFile)
	if err != nil {
		return err
	}
	finish, err := startObs(obs, fw, "scan")
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	plan, _, planVersion, err := knowledgePlan(fw, *training, *profileIn, *planIn)
	if err != nil {
		return err
	}
	var src fleet.Source
	if *fleetSize > 0 {
		imgs, err := sysimage.LoadDir(*targets)
		if err != nil {
			return err
		}
		if src, err = fleet.NewSyntheticSource(imgs, *fleetSize); err != nil {
			return err
		}
	} else if src, err = fleet.NewDirSource(*targets); err != nil {
		return err
	}
	eng := fw.ScanEngine(plan)
	eng.Opts.Shards = max(*shards, 1)
	eng.Opts.Workers = *workers
	eng.Opts.Strict = *strict
	var alerts *alert.Pipeline
	if *alertsFile != "" {
		policy, err := alert.LoadPolicyFile(*alertsFile)
		if err != nil {
			return err
		}
		alerts, err = alert.NewPipeline(alert.Options{Policy: policy, Rec: obs.Rec, Log: obs.Log})
		if err != nil {
			return err
		}
		// Drain on every exit path; the explicit Shutdown after the run
		// makes this a no-op on the happy path. Registered after the
		// finish() defer so it runs first and the final snapshot sees
		// every delivery outcome.
		defer alerts.Shutdown(context.Background())
		eng.Opts.Alerts = alerts
		eng.Opts.PlanVersion = planVersion
	}
	if *progress || obs.Serving() {
		// A live -serve run gets a silent reporter even without -progress,
		// so the runtime sampler can expose encore_progress_done/_total on
		// /metrics.
		w := io.Writer(os.Stderr)
		if !*progress {
			w = io.Discard
		}
		p := telemetry.NewProgress(w, "scan", src.Len(), *progressEvery)
		eng.Opts.Progress = p
		obs.SetProgress(p)
		defer p.Stop()
	}

	// Outcomes arrive out of order; the sink keeps each printed item's
	// lines by input index and the report prints them in that order.
	var (
		mu    sync.Mutex
		lines = map[int][]string{}
		sum   scan.Summary
	)
	stats, err := eng.Run(context.Background(), src, func(idx int, it scan.Item) {
		mu.Lock()
		defer mu.Unlock()
		sum.Observe(it, *minWarnings)
		if it.Err != nil && sum.Errors > maxPrintedFailures {
			return // counted in the summary, not printed
		}
		if ls := itemLines(it, *minWarnings); len(ls) != 0 {
			lines[idx] = ls
		}
	})
	if err != nil {
		return err
	}
	// Deliver every queued alert before the fleet summary prints, so the
	// stats line below is final.
	if err := alerts.Shutdown(context.Background()); err != nil {
		return err
	}
	idxs := make([]int, 0, len(lines))
	for i := range lines {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		for _, ln := range lines[i] {
			fmt.Println(ln)
		}
	}
	if d := sum.Errors - maxPrintedFailures; d > 0 {
		fmt.Printf("%-28s ... and %d more failures (retention cap %d)\n", "", d, maxPrintedFailures)
	}
	sum.Finish()
	printScanSummary(sum, alerts)
	// The topology note goes to stderr, so stdout is the same report at
	// every shard and worker count.
	fmt.Fprintf(os.Stderr, "fleet: %d shards, %d workers, %d steals, %s high water\n",
		stats.Shards, stats.Workers, stats.Steals, formatBytes(stats.HighWaterBytes))
	return nil
}

// itemLines renders the per-image output block for one scan outcome:
// failures get their FAILED line, flagged images the warning-count line
// plus the top finding, healthy images below the floor render nothing.
func itemLines(it scan.Item, minWarnings int) []string {
	if it.Err != nil {
		name := it.Err.ImageID
		if name == "" {
			name = it.Err.Path
		}
		return []string{fmt.Sprintf("%-28s FAILED: %v", name, it.Err.Err)}
	}
	report := it.Report
	if len(report.Warnings) < minWarnings {
		return nil
	}
	kinds := report.CountByKind()
	lines := []string{fmt.Sprintf("%-28s %3d warnings (corr %d, type %d, name %d, value %d)",
		it.ImageID, len(report.Warnings),
		kinds[encore.KindCorrelation], kinds[encore.KindType],
		kinds[encore.KindName], kinds[encore.KindSuspicious])}
	if top := report.Top(); top != nil {
		lines = append(lines, fmt.Sprintf("%-28s     top: %s", "", top.Message))
	}
	return lines
}

// printScanSummary prints the fleet-wide footer.
func printScanSummary(sum scan.Summary, alerts *alert.Pipeline) {
	if sum.Errors > 0 {
		fmt.Printf("\nscanned %d images: %d flagged, %d warnings total, %d failed\n",
			sum.Scanned, sum.Flagged, sum.Warnings, sum.Errors)
	} else {
		fmt.Printf("\nscanned %d images: %d flagged, %d warnings total\n",
			sum.Scanned, sum.Flagged, sum.Warnings)
	}
	if len(sum.HotAttrs) > 0 {
		fmt.Println("most-flagged attributes:")
		for i, h := range sum.HotAttrs {
			if i == 5 {
				break
			}
			fmt.Printf("  %3dx %s\n", h.Count, h.Attr)
		}
	}
	if alerts != nil {
		s := alerts.Stats()
		fmt.Printf("alerts: %d published, %d delivered, %d failed, %d dropped, %d suppressed\n",
			s.Published, s.Delivered, s.Failed, s.Dropped, s.Suppressed)
	}
}

// formatBytes renders a byte count with a binary unit suffix.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// runRules prints the learned rules in human-readable form, grouped by
// template, with each template's description.
func runRules(args []string) error {
	fs := flag.NewFlagSet("rules", flag.ExitOnError)
	training := fs.String("training", "", "directory of training image JSON files")
	profileIn := fs.String("profile", "", "knowledge profile file (alternative to -training)")
	customFile := fs.String("custom", "", "customization file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*training == "") == (*profileIn == "") {
		return fmt.Errorf("rules: exactly one of -training / -profile is required")
	}
	fw, err := newFramework(*customFile)
	if err != nil {
		return err
	}
	var learned []*encore.Rule
	if *profileIn != "" {
		data, err := os.ReadFile(*profileIn)
		if err != nil {
			return err
		}
		p, err := encore.LoadProfile(data)
		if err != nil {
			return err
		}
		learned = p.Rules
	} else {
		k, err := learn(fw, *training)
		if err != nil {
			return err
		}
		learned = k.Rules
		s := fw.Engine.LastStats
		fmt.Printf("typed candidate space: %d (no evidence %d, support-rejected %d, confidence-rejected %d, entropy-rejected %d)\n\n",
			s.Candidates, s.NoEvidence, s.SupportRejected, s.ConfidenceRejected, s.EntropyRejected)
	}
	byTemplate := map[string][]*encore.Rule{}
	var order []string
	for _, r := range learned {
		if _, seen := byTemplate[r.Template]; !seen {
			order = append(order, r.Template)
		}
		byTemplate[r.Template] = append(byTemplate[r.Template], r)
	}
	sort.Strings(order)
	for _, tplID := range order {
		desc := ""
		for _, tpl := range fw.Templates() {
			if tpl.ID == tplID {
				desc = tpl.Description
			}
		}
		fmt.Printf("%s — %s\n", tplID, desc)
		for _, r := range byTemplate[tplID] {
			fmt.Printf("    %s => %s  (support %d, confidence %.0f%%)\n", r.AttrA, r.AttrB, r.Support, r.Confidence*100)
		}
	}
	fmt.Printf("\n%d rules across %d templates\n", len(learned), len(order))
	return nil
}

// appFlags collects repeated -app NAME=RELPATH flags.
type appFlags map[string]string

func (a appFlags) String() string { return fmt.Sprint(map[string]string(a)) }

func (a appFlags) Set(v string) error {
	name, rel, ok := strings.Cut(v, "=")
	if !ok || name == "" || rel == "" {
		return fmt.Errorf("want NAME=RELPATH, got %q", v)
	}
	a[name] = rel
	return nil
}

// runCollect builds an image snapshot from a real filesystem tree (a
// mounted VM image, a container filesystem, a chroot).
func runCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	root := fs.String("root", "", "root of the extracted system tree")
	id := fs.String("id", "", "image id for the snapshot")
	out := fs.String("out", "", "output image JSON file")
	apps := appFlags{}
	fs.Var(apps, "app", "application config as NAME=RELPATH (repeatable)")
	maxFiles := fs.Int("max-files", 0, "cap on collected file-system entries (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *root == "" || *id == "" || *out == "" {
		return fmt.Errorf("collect: -root, -id, and -out are required")
	}
	img, err := collector.Collect(*root, *id, collector.Options{Apps: apps, MaxFiles: *maxFiles})
	if err != nil {
		return err
	}
	data, err := img.MarshalJSONIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("collected %d files, %d users, %d services from %s -> %s\n",
		len(img.Files), len(img.Users), len(img.Services), *root, *out)
	return nil
}

func runAssemble(args []string) error {
	fs := flag.NewFlagSet("assemble", flag.ExitOnError)
	training := fs.String("training", "", "directory of training image JSON files")
	csvOut := fs.String("csv", "", "write assembled dataset CSV to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *training == "" {
		return fmt.Errorf("assemble: -training is required")
	}
	fw := encore.New()
	k, err := learn(fw, *training)
	if err != nil {
		return err
	}
	csv := k.Training.CSV()
	if *csvOut == "" {
		fmt.Print(csv)
		return nil
	}
	if err := os.WriteFile(*csvOut, []byte(csv), 0o644); err != nil {
		return err
	}
	fmt.Printf("assembled %s -> %s\n", k.Training.Summary(), *csvOut)
	return nil
}
