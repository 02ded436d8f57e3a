package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	encore "repro"
	"repro/internal/alert"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/fleet"
	"repro/internal/scan"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// Fleet sizes and topology. Measured passes run one worker on one shard;
// the traced run adds scalingWorkers workers on as many shards for
// fleet.scaling_2v1.
const (
	fleetPopulations = 67 // corpus.PrivateCloudTargets populations of 300 images
	fleetWorkers     = 1
	fleetShards      = 1
	scalingWorkers   = 2
)

// fleetScan is what one `encore scan -plan <app>.plan -shards N` per app
// directory holds: a loaded plan and a target directory per app.
type fleetScan struct {
	dirs  map[string]string
	plans map[string]*detect.Plan
}

// layerClock accumulates the wall time workers spend inside each wrapped
// layer of a fleet pass.
type layerClock struct{ load, check, sink atomic.Int64 }

func (c *layerClock) total() time.Duration {
	return time.Duration(c.load.Load() + c.check.Load() + c.sink.Load())
}

type passOpts struct {
	workers, shards int
	rec             *telemetry.Recorder
	layers          *layerClock // nil runs the pass untraced
	latency         bool
	// pace, when set, runs reference bursts from the sink of a
	// single-worker pass; their time is left out of the pass's elapsed.
	pace *pacer
	// ref holds the serial reference report hash of every task by app
	// and input index; nil skips report verification.
	ref map[string][]uint64
}

type passResult struct {
	elapsed   time.Duration
	images    int64
	failed    int64
	steals    int64
	highwater int64
	workers   int
	sum       scan.Summary
	lat       map[string][]float64 // per app: per-image load→sink latency, ms
	alerts    alert.Stats
}

// countNotifier is the alert pipeline's delivery endpoint: it accepts
// every alert and counts it.
type countNotifier struct{ n atomic.Int64 }

func (c *countNotifier) Name() string                { return "count" }
func (c *countNotifier) Notify(a *alert.Alert) error { c.n.Add(1); return nil }

func newPipeline(rec *telemetry.Recorder) (*alert.Pipeline, error) {
	return alert.NewPipeline(alert.Options{Notifiers: []alert.Notifier{&countNotifier{}}, Rec: rec})
}

// timedSource wraps a fleet source: it stamps when each task's load
// starts (the start of its per-image latency) and, traced, accumulates
// load time.
type timedSource struct {
	fleet.Source
	starts []time.Time
	clock  *layerClock
}

func (s *timedSource) Load(i int) (*sysimage.Image, error) {
	start := time.Now()
	s.starts[i] = start
	img, err := s.Source.Load(i)
	if s.clock != nil {
		s.clock.load.Add(int64(time.Since(start)))
	}
	return img, err
}

var hashBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// reportHash fingerprints a report's JSON rendering.
func reportHash(r *detect.Report) uint64 {
	buf := hashBufs.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); hashBufs.Put(buf) }()
	if err := r.AppendJSON(buf); err != nil {
		return 0
	}
	h := fnv.New64a()
	if p, ok := cleanPrefix(bytes.TrimRight(buf.Bytes(), "\n")); ok {
		h.Write(p) // one spelling for both renderings of a clean report
		h.Write(nullWarnings)
	} else {
		h.Write(buf.Bytes())
	}
	return h.Sum64()
}

// itemLines renders one outcome the way `encore scan` prints it.
func itemLines(it scan.Item, minWarnings int) []string {
	if it.Err != nil {
		name := it.Err.ImageID
		if name == "" {
			name = it.Err.Path
		}
		return []string{fmt.Sprintf("%-28s FAILED: %v", name, it.Err.Err)}
	}
	r := it.Report
	if len(r.Warnings) < minWarnings {
		return nil
	}
	kinds := r.CountByKind()
	lines := []string{fmt.Sprintf("%-28s %3d warnings (corr %d, type %d, name %d, value %d)",
		it.ImageID, len(r.Warnings), kinds[encore.KindCorrelation], kinds[encore.KindType],
		kinds[encore.KindName], kinds[encore.KindSuspicious])}
	if top := r.Top(); top != nil {
		lines = append(lines, fmt.Sprintf("%-28s     top: %s", "", top.Message))
	}
	return lines
}

// fleetPass scans every app directory through the fleet coordinator with
// an alert pipeline and the CLI's summary sink, then drains the pipeline
// and renders the report to a discarding writer — one CLI invocation per
// app, end to end.
func fleetPass(fs *fleetScan, o passOpts) (*passResult, error) {
	res := &passResult{lat: map[string][]float64{}}
	start := time.Now()
	alerts, err := newPipeline(o.rec)
	if err != nil {
		return nil, err
	}
	out := bufio.NewWriter(io.Discard)
	var mu sync.Mutex
	var paused time.Duration
	for _, app := range apps {
		src, err := fleet.NewDirSource(fs.dirs[app])
		if err != nil {
			return nil, err
		}
		ts := &timedSource{Source: src, starts: make([]time.Time, src.Len()), clock: o.layers}
		plan := fs.plans[app]
		check := plan.Check
		if o.layers != nil {
			check = func(img *sysimage.Image) (*detect.Report, error) {
				t := time.Now()
				r, err := plan.Check(img)
				o.layers.check.Add(int64(time.Since(t)))
				return r, err
			}
		}
		var ref []uint64
		if o.ref != nil {
			ref = o.ref[app]
		}
		lines := make([][]string, src.Len())
		coord := &fleet.Coordinator{Opts: fleet.Options{
			Check: check, Shards: o.shards, Workers: o.workers, Telemetry: o.rec,
			Alerts: alerts, App: app, PlanVersion: "plan:" + app + ".plan",
		}}
		stats, err := coord.Run(context.Background(), ts, func(idx int, it scan.Item) {
			t := time.Now()
			bad := it.Err != nil || (ref != nil && reportHash(it.Report) != ref[idx])
			mu.Lock()
			res.sum.Observe(it, 1)
			lines[idx] = itemLines(it, 1)
			if o.latency {
				res.lat[app] = append(res.lat[app], ms(t.Sub(ts.starts[idx])))
			}
			if bad {
				res.failed++
			}
			if o.pace != nil {
				paused += o.pace.tick()
			}
			mu.Unlock()
			if o.layers != nil {
				o.layers.sink.Add(int64(time.Since(t)))
			}
		})
		if err != nil {
			return nil, err
		}
		for _, ls := range lines {
			for _, ln := range ls {
				fmt.Fprintln(out, ln)
			}
		}
		res.images += stats.Images
		res.steals += stats.Steals
		res.highwater = max(res.highwater, stats.HighWaterBytes)
		res.workers = stats.Workers
	}
	if err := alerts.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	res.sum.Finish()
	fmt.Fprintf(out, "scanned %d images: %d flagged, %d warnings total\n",
		res.sum.Scanned, res.sum.Flagged, res.sum.Warnings)
	for _, h := range res.sum.HotAttrs[:min(5, len(res.sum.HotAttrs))] {
		fmt.Fprintf(out, "  %3dx %s\n", h.Count, h.Attr)
	}
	res.alerts = alerts.Stats()
	fmt.Fprintf(out, "alerts: %d published, %d delivered\n", res.alerts.Published, res.alerts.Delivered)
	if err := out.Flush(); err != nil {
		return nil, err
	}
	res.elapsed = time.Since(start) - paused
	return res, nil
}

// appQuantile is the image-weighted mean across apps of each app's
// q-quantile per-image latency: each app's scan is its own CLI invocation,
// and the apps' images differ in size, so the pooled distribution has one
// mode per app and its median can jump between them from pass to pass.
func appQuantile(lat map[string][]float64, q float64) float64 {
	sum, n := 0.0, 0
	for _, l := range lat {
		sum += quantile(l, q) * float64(len(l))
		n += len(l)
	}
	return sum / float64(n)
}

// sameSummary reports whether two passes over the same fleet agree.
func sameSummary(a, b scan.Summary) bool {
	return a.Scanned == b.Scanned && a.Flagged == b.Flagged && a.Warnings == b.Warnings && a.Errors == b.Errors
}

// fleetInputs is the generated private-cloud fleet.
type fleetInputs struct {
	dir   string
	dirs  map[string]string
	plans *plans
	train map[string][]*sysimage.Image
	truth map[string][]corpus.Latent
}

// genFleet writes many private-cloud target populations into per-app
// directories and learns one plan per app from an EC2-style training set,
// as Table 10 does. Image IDs are prefixed with their population so the
// fleet holds only distinct images.
func genFleet(b *bench, fw *encore.Framework) (*fleetInputs, error) {
	in := &fleetInputs{dir: filepath.Join(b.dir, "fleet"), dirs: map[string]string{},
		truth: map[string][]corpus.Latent{}}
	var err error
	if in.train, err = trainingSets(b.seed); err != nil {
		return nil, err
	}
	if in.plans, err = learnPlans(fw, in.train); err != nil {
		return nil, err
	}
	for _, app := range apps {
		in.dirs[app] = filepath.Join(in.dir, app)
		if _, err := writeFile(filepath.Join(b.dir, "plans"), app+".plan", in.plans.bytes[app]); err != nil {
			return nil, err
		}
	}
	for p := 0; p < fleetPopulations; p++ {
		pop, err := corpus.PrivateCloudTargets(b.seed*seedTargets + int64(p))
		if err != nil {
			return nil, err
		}
		renamed := map[string]string{}
		for _, img := range pop.Images {
			id := fmt.Sprintf("p%03d-%s", p, img.ID)
			renamed[img.ID] = id
			img.ID = id
			if _, err := saveImage(in.dir, img); err != nil {
				return nil, err
			}
		}
		for _, l := range pop.Truth {
			l.ImageID = renamed[l.ImageID]
			in.truth[l.ImageID] = append(in.truth[l.ImageID], l)
		}
	}
	return in, nil
}

// loadFleet is the fleet's set-up as the CLI performs it: read and decode
// each app's binary plan, list each target directory, and start (and
// drain) an alert pipeline.
func loadFleet(b *bench, in *fleetInputs) (*fleetScan, error) {
	fw := encore.New()
	fs := &fleetScan{dirs: in.dirs, plans: map[string]*detect.Plan{}}
	for _, app := range apps {
		data, err := os.ReadFile(filepath.Join(b.dir, "plans", app+".plan"))
		if err != nil {
			return nil, err
		}
		if fs.plans[app], err = fw.LoadPlan(data); err != nil {
			return nil, err
		}
		if _, err := fleet.NewDirSource(in.dirs[app]); err != nil {
			return nil, err
		}
	}
	alerts, err := newPipeline(nil)
	if err != nil {
		return nil, err
	}
	return fs, alerts.Shutdown(context.Background())
}

// attrRefers is Table 10's scoring: a warning on attr counts for base when
// it names base or one of its argument or augmented attributes.
func attrRefers(attr, base string) bool {
	if attr == base {
		return true
	}
	return strings.HasPrefix(attr, base) && len(attr) > len(base) &&
		(attr[len(base)] == '.' || attr[len(base)] == '/')
}

// fleetReference checks every fleet image serially — a freshly decoded
// copy against a separately loaded plan of the same version — and keeps
// each report's hash for verifying the coordinator's output. It also
// scores planted-issue recall (Table 10) and the clean-image flag rate.
func fleetReference(b *bench, in *fleetInputs) (ref map[string][]uint64, recall, cleanRate float64, err error) {
	fw := encore.New()
	ref = map[string][]uint64{}
	found, planted, flagged, clean := 0, 0, 0, 0
	for _, app := range apps {
		plan, err := fw.LoadPlan(in.plans.bytes[app])
		if err != nil {
			return nil, 0, 0, err
		}
		src, err := fleet.NewDirSource(in.dirs[app])
		if err != nil {
			return nil, 0, 0, err
		}
		hashes := make([]uint64, src.Len())
		for i := range hashes {
			img, err := sysimage.LoadFile(src.Name(i))
			if err != nil {
				return nil, 0, 0, err
			}
			rep, err := plan.Check(img)
			if err != nil {
				return nil, 0, 0, err
			}
			hashes[i] = reportHash(rep)
			truth := in.truth[img.ID]
			if len(truth) == 0 {
				clean++
				if len(rep.Warnings) > 0 {
					flagged++
				}
			}
			for _, l := range truth {
				planted++
				if rep.RankOf(func(w *detect.Warning) bool { return attrRefers(w.Attr, l.Attr) }) > 0 {
					found++
				}
			}
		}
		ref[app] = hashes
	}
	if planted == 0 || clean == 0 {
		return nil, 0, 0, fmt.Errorf("fleet has %d planted issues and %d clean images", planted, clean)
	}
	return ref, float64(found) / float64(planted), float64(flagged) / float64(clean), nil
}

func runFleet(b *bench) error {
	fw := encore.New()
	in, err := genFleet(b, fw)
	if err != nil {
		return err
	}
	var fs *fleetScan
	setup, err := b.repeatSetup(func() error {
		var err error
		fs, err = loadFleet(b, in)
		return err
	})
	if err != nil {
		return err
	}
	ref, recall, cleanRate, err := fleetReference(b, in)
	if err != nil {
		return err
	}
	// Every pass, the measured ones included, must reproduce every
	// report's reference hash.
	opts := passOpts{workers: fleetWorkers, shards: fleetShards, ref: ref}
	verified, err := fleetPass(fs, opts)
	if err != nil {
		return err
	}
	b.ops(verified.images, verified.failed)

	if b.trace {
		b.set("detect.clean_flag_rate", cleanRate)
		fl, err := traceFleetLayers(b, fs)
		if err != nil {
			return err
		}
		b.set("telemetry.overhead_ratio", fl.recOn/fl.base-1)
		b.set("trace.overhead_ratio", fl.traced/fl.base-1)
		b.set("runtime.gc_cpu_ratio", fl.gcRatio)
		b.set("gen.late_p99_ms", fl.lateP99)
		b.sumCheck(fl.workerUs, fl.layerUs, sumTolerance)
		files, err := sampleFiles(in.dirs, replayImages)
		if err != nil {
			return err
		}
		if err := replayLayers(b, fw, files, in.plans, fl.workerUs); err != nil {
			return err
		}
		if err := serveReplay(b, files, in.plans); err != nil {
			return err
		}
		_, err = learnLayers(b, in.train, 1)
		return err
	}

	// Each pass is one full scan of the fleet. Throughput and per-image
	// latency are each pass's at the reference pace of the bursts it ran,
	// and the result is the median pass's, so a burst of outside noise
	// moves one pass, not the result.
	heap := startHeapSampler()
	m0, a0 := mallocs(), b.pace.allocs
	opts.latency = true
	opts.pace = b.pace
	var images int64
	var rate, p50, p99 []float64
	for start := time.Now(); time.Since(start) < b.seconds; {
		m := b.pace.mark()
		r, err := fleetPass(fs, opts)
		if err != nil {
			heap.peakMiB()
			return err
		}
		if !sameSummary(r.sum, verified.sum) {
			r.failed += r.images
		}
		b.ops(r.images, r.failed)
		images += r.images
		slow := b.pace.slowdownSince(m)
		rate = append(rate, float64(r.images)/r.elapsed.Seconds()*slow)
		p50 = append(p50, appQuantile(r.lat, 0.5)/slow)
		p99 = append(p99, appQuantile(r.lat, 0.99)/slow)
	}
	allocs := mallocs() - m0 - (b.pace.allocs - a0)
	b.set("peak_heap_mb", heap.peakMiB())
	b.set("setup_s", setup)
	b.set("throughput_per_s", median(rate))
	b.set("latency_p50_ms", median(p50))
	b.set("latency_p99_ms", median(p99))
	b.set("allocs_per_op", float64(allocs)/float64(images))
	b.set("detect_recall", recall)
	return nil
}

// fleetLayers is the traced fleet breakdown of one set of directories.
type fleetLayers struct {
	base, recOn, traced float64 // median round seconds: untraced, recorder on, wrapped layers
	workerUs, layerUs   float64 // per image: untraced worker time, traced layer self time
	gcRatio, lateP99    float64
}

// traceFleetLayers measures four variants of the same fleet pass:
// untraced, with a telemetry recorder, and with every layer wrapped, all
// at fleetWorkers, plus untraced at scalingWorkers. The variants are
// interleaved over traceRounds rounds, so slow drift of the machine hits
// them alike, and each one's figure is its median round. A fleet larger
// than traceImages is traced on a prefix of every app directory; a
// smaller one is scanned several times per round.
func traceFleetLayers(b *bench, fs *fleetScan) (*fleetLayers, error) {
	fs, n, err := traceSubset(b, fs)
	if err != nil {
		return nil, err
	}
	reps := max(1, (traceImages+n-1)/n)
	type variant struct {
		opts passOpts
		secs []float64
		last *passResult
	}
	base := passOpts{workers: fleetWorkers, shards: fleetShards}
	withRec, wide, traced := base, base, base
	withRec.rec = telemetry.New()
	wide.workers, wide.shards = scalingWorkers, scalingWorkers
	clock := &layerClock{}
	traced.layers = clock
	cfgs := []*variant{{opts: base}, {opts: withRec}, {opts: wide}, {opts: traced}}

	probe := startLateProbe(probeEvery)
	gcw := newGCWindow()
	var first *passResult
	for r := 0; r < traceRounds; r++ {
		for k := range cfgs {
			c := cfgs[(k+r)%len(cfgs)]
			var total time.Duration
			for i := 0; i < reps; i++ {
				res, err := fleetPass(fs, c.opts)
				if err != nil {
					probe.p99()
					return nil, err
				}
				// Every pass scans the same fleet, so all must agree.
				if first == nil {
					first = res
				} else if !sameSummary(res.sum, first.sum) {
					res.failed += res.images
				}
				b.ops(res.images, res.failed)
				total += res.elapsed
				c.last = res
			}
			c.secs = append(c.secs, total.Seconds())
		}
	}
	fl := &fleetLayers{gcRatio: gcw.ratio(), lateP99: probe.p99()}
	images := float64(cfgs[0].last.images) * float64(reps)
	tracedSecs := 0.0
	for _, s := range cfgs[3].secs {
		tracedSecs += s
	}
	workers := float64(cfgs[3].last.workers)
	layerSecs := clock.total().Seconds()
	rounds := float64(traceRounds)
	fl.base, fl.recOn, fl.traced = median(cfgs[0].secs), median(cfgs[1].secs), median(cfgs[3].secs)
	fl.workerUs = fl.base * 1e6 * float64(cfgs[0].last.workers) / images
	fl.layerUs = layerSecs * 1e6 / (images * rounds)
	b.set("fleet.worker_busy_ratio", layerSecs/(tracedSecs*workers))
	b.set("fleet.unattributed_us", (tracedSecs*workers-layerSecs)*1e6/(images*rounds))
	b.set("fleet.steals", float64(cfgs[2].last.steals))
	b.set("fleet.highwater_mb", float64(cfgs[2].last.highwater)/(1<<20))
	b.set("fleet.scaling_2v1", fl.base/median(cfgs[2].secs))
	st := cfgs[0].last.alerts
	b.set("alert.published", float64(st.Published))
	b.set("alert.dropped", float64(st.Dropped))
	b.set("alert.delivered_ratio", ratio(float64(st.Delivered), float64(st.Published)))
	return fl, nil
}

// traceSubset returns fs unchanged when it holds at most traceImages
// images, and otherwise a fleet of the first traceImages/3 files of every
// app directory, hard-linked into a directory of its own. It also returns
// the subset's size.
func traceSubset(b *bench, fs *fleetScan) (*fleetScan, int, error) {
	names := map[string][]string{}
	n := 0
	for _, app := range apps {
		src, err := fleet.NewDirSource(fs.dirs[app])
		if err != nil {
			return nil, 0, err
		}
		for i := 0; i < src.Len(); i++ {
			names[app] = append(names[app], src.Name(i))
		}
		n += src.Len()
	}
	if n <= traceImages {
		return fs, n, nil
	}
	sub := &fleetScan{dirs: map[string]string{}, plans: fs.plans}
	per := traceImages / len(apps)
	n = 0
	for _, app := range apps {
		dir := filepath.Join(b.dir, "trace-subset", app)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		for _, path := range names[app][:min(per, len(names[app]))] {
			if err := os.Link(path, filepath.Join(dir, filepath.Base(path))); err != nil {
				return nil, 0, err
			}
			n++
		}
		sub.dirs[app] = dir
	}
	return sub, n, nil
}

// ratio is a/b, or 1 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

// sumCheck compares the per-op layer costs with the untraced end-to-end
// per-op cost: the residual is reported, and a residual beyond tolerance
// (a share of the end-to-end cost) fails the run.
func (b *bench) sumCheck(e2eUs, layersUs, tolerance float64) {
	resid := e2eUs - layersUs
	b.set("trace.unattributed_us", resid)
	b.set("trace.residual_ratio", resid/e2eUs)
	failed := int64(0)
	if abs(resid/e2eUs) > tolerance {
		fmt.Fprintf(os.Stderr, "perfbench: layers sum to %.1fus of %.1fus end to end (tolerance %.0f%%)\n",
			layersUs, e2eUs, 100*tolerance)
		failed = 1
	}
	b.ops(1, failed)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// sampleFiles picks up to n image files, round-robin across the apps'
// directories in file-name order.
func sampleFiles(dirs map[string]string, n int) ([]appFile, error) {
	srcs := map[string]*fleet.DirSource{}
	for _, app := range apps {
		src, err := fleet.NewDirSource(dirs[app])
		if err != nil {
			return nil, err
		}
		srcs[app] = src
	}
	var out []appFile
	for i := 0; len(out) < n; i++ {
		added := false
		for _, app := range apps {
			if i < srcs[app].Len() && len(out) < n {
				out = append(out, appFile{app: app, path: srcs[app].Name(i)})
				added = true
			}
		}
		if !added {
			break
		}
	}
	return out, nil
}

// appFile is one image file and the app whose plan checks it.
type appFile struct{ app, path string }
