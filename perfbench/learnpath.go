package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	encore "repro"
	"repro/internal/detect"
	"repro/internal/inject"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// Learn workload sizes beyond the paper's training sets.
const (
	deltaImages   = 4  // images per incremental AddImages
	deltasPerApp  = 8  // incremental re-learns per app and pass
	heldOutImages = 30 // held-out and clean images per app
	learnErrors   = 3  // injected errors per held-out image
)

// learnInputs is the generated learn workload: training images on disk,
// a pool of later arrivals for incremental re-learning, and held-out
// images with injected errors for scoring the learned plans.
type learnInputs struct {
	trainDirs map[string]string
	deltas    map[string][]*sysimage.Image
	held      map[string][]*sysimage.Image
	targets   []target
	clean     map[string][]*sysimage.Image
}

func genLearn(b *bench) (*learnInputs, error) {
	in := &learnInputs{trainDirs: map[string]string{}}
	train, err := trainingSets(b.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(b.dir, "learn")
	for _, app := range apps {
		in.trainDirs[app] = filepath.Join(dir, app)
		for _, img := range train[app] {
			if _, err := saveImage(dir, img); err != nil {
				return nil, err
			}
		}
	}
	if in.deltas, err = heldOut(deltaImages*deltasPerApp, b.seed+seedDelta, "delta"); err != nil {
		return nil, err
	}
	if in.clean, err = heldOut(heldOutImages, b.seed+seedClean, "clean"); err != nil {
		return nil, err
	}
	held, err := heldOut(heldOutImages, b.seed+seedHeld, "held")
	if err != nil {
		return nil, err
	}
	in.held = map[string][]*sysimage.Image{}
	inj := inject.New(b.seed * seedInjection)
	for _, app := range apps {
		for _, img := range held[app] {
			injected, err := injectErrors(inj, img, learnErrors)
			if err != nil {
				continue // too few eligible entries for the error mix
			}
			in.held[app] = append(in.held[app], img)
			in.targets = append(in.targets, target{app: app, id: img.ID, injected: injected})
		}
	}
	return in, nil
}

// decodeTraining is the learn workload's set-up: read and decode every
// app's training directory.
func decodeTraining(in *learnInputs) (map[string][]*sysimage.Image, error) {
	out := map[string][]*sysimage.Image{}
	for _, app := range apps {
		imgs, err := sysimage.LoadDir(in.trainDirs[app])
		if err != nil {
			return nil, err
		}
		out[app] = imgs
	}
	return out, nil
}

// learnPass is one full learn → compile → marshal pass over every app.
type learnPass struct {
	know  map[string]*encore.Knowledge
	plans map[string]*detect.Plan
	bytes map[string][]byte
}

func fullPass(fw *encore.Framework, train map[string][]*sysimage.Image) (*learnPass, error) {
	p := &learnPass{know: map[string]*encore.Knowledge{}, plans: map[string]*detect.Plan{},
		bytes: map[string][]byte{}}
	for _, app := range apps {
		k, err := fw.Learn(train[app])
		if err != nil {
			return nil, err
		}
		p.know[app] = k
		p.plans[app] = fw.CompilePlan(k)
		p.bytes[app] = fw.MarshalPlan(p.plans[app])
	}
	return p, nil
}

// roundTrips checks that plan bytes load back into a plan whose reports
// on imgs are identical to the in-memory plan's; it returns the number
// of images that differ.
func roundTrips(fw *encore.Framework, plan *detect.Plan, data []byte, imgs []*sysimage.Image) (int64, error) {
	loaded, err := fw.LoadPlan(data)
	if err != nil {
		return 0, err
	}
	var bad int64
	var x, y bytes.Buffer
	for _, img := range imgs {
		r1, err1 := plan.Check(img)
		r2, err2 := loaded.Check(img)
		if err1 != nil || err2 != nil {
			bad++
			continue
		}
		x.Reset()
		y.Reset()
		if r1.AppendJSON(&x) != nil || r2.AppendJSON(&y) != nil || !sameReport(bytes.TrimRight(x.Bytes(), "\n"), bytes.TrimRight(y.Bytes(), "\n")) {
			bad++
		}
	}
	return bad, nil
}

func runLearn(b *bench) error {
	in, err := genLearn(b)
	if err != nil {
		return err
	}
	var train map[string][]*sysimage.Image
	setup, err := b.repeatSetup(func() error {
		var err error
		train, err = decodeTraining(in)
		return err
	})
	if err != nil {
		return err
	}
	fw := encore.New()
	first, err := fullPass(fw, train)
	if err != nil {
		return err
	}
	if err := b.verifyLearn(fw, in, first); err != nil {
		return err
	}
	if b.trace {
		return traceLearn(b, fw, in, train, first)
	}

	// Each pass's rate and each delta's latency are taken at the reference
	// pace of the latest burst, so a burst of outside noise moves a few
	// samples of the medians rather than the result.
	heap := startHeapSampler()
	var images int
	var allocs uint64
	var rate, delta []float64
	var slow float64
	for start := time.Now(); time.Since(start) < b.seconds; {
		if slow == 0 || time.Since(b.pace.last) >= paceEvery {
			slow = b.pace.burst()
		}
		m0 := mallocs()
		t := time.Now()
		p, err := fullPass(fw, train)
		if err != nil {
			heap.peakMiB()
			return err
		}
		took := time.Since(t)
		allocs += mallocs() - m0
		var bad int64
		passImages := 0
		for _, app := range apps {
			passImages += len(train[app])
			if !bytes.Equal(p.bytes[app], first.bytes[app]) {
				bad++ // learning must be deterministic
			}
		}
		b.ops(int64(len(apps)), bad)
		images += passImages
		rate = append(rate, float64(passImages)/took.Seconds()*slow)
		for j := 0; j < deltasPerApp; j++ {
			for _, app := range apps {
				batch := in.deltas[app][j*deltaImages : (j+1)*deltaImages]
				t := time.Now()
				err := fw.AddImages(p.know[app], batch...)
				if err == nil {
					fw.MarshalPlan(fw.CompilePlan(p.know[app]))
				}
				delta = append(delta, ms(time.Since(t))/slow)
				b.ops(1, failedIf(err != nil))
			}
		}
		// The grown knowledge's plan must still round-trip exactly.
		for _, app := range apps {
			plan := fw.CompilePlan(p.know[app])
			bad, err := roundTrips(fw, plan, fw.MarshalPlan(plan), in.held[app][:1])
			if err != nil {
				return err
			}
			b.ops(1, bad)
		}
	}
	b.set("peak_heap_mb", heap.peakMiB())
	b.set("setup_s", setup)
	b.set("throughput_per_s", median(rate))
	b.set("latency_p50_ms", quantile(delta, 0.5))
	b.set("latency_p99_ms", quantile(delta, 0.99))
	b.set("allocs_per_op", float64(allocs)/float64(images))
	return nil
}

// verifyLearn checks the learned plans: each round-trips through
// LoadPlan with identical reports on the held-out images, and the plans
// are scored for recall of the injected errors and clean-image flags.
func (b *bench) verifyLearn(fw *encore.Framework, in *learnInputs, p *learnPass) error {
	reports := map[string]*detect.Report{}
	for _, app := range apps {
		bad, err := roundTrips(fw, p.plans[app], p.bytes[app], in.held[app])
		if err != nil {
			return err
		}
		b.ops(int64(len(in.held[app])), bad)
		for _, img := range in.held[app] {
			rep, err := p.plans[app].Check(img)
			if err != nil {
				return err
			}
			reports[img.ID] = rep
		}
	}
	found, total := recallOf(in.targets, reports)
	if total == 0 {
		return fmt.Errorf("learn: no injected errors to score")
	}
	b.set("detect_recall", float64(found)/float64(total))
	rate, err := flagRate(p.plans, in.clean)
	b.set("detect.clean_flag_rate", rate)
	return err
}

// learnTrace is one interleaved learn-pass comparison, in microseconds
// per full pass (medians over rounds).
type learnTrace struct {
	base, recOn, traced float64 // untraced, recorder on, recorder on plus call timers
	layers              float64 // mean traced training + inference + compile + encode
}

// learnLayers runs reps rounds of three full learn → compile → marshal
// passes over every app — untraced, with a recorder on the framework, and
// traced (recorder plus timers around compile and encode) — interleaved
// so slow drift of the machine hits them alike. It records the learn
// layers per full pass: training-set assembly and rule inference from the
// recorder's stages and counters, compile and encode from the timers.
func learnLayers(b *bench, train map[string][]*sysimage.Image, reps int) (*learnTrace, error) {
	plain, withRec, fw := encore.New(), encore.New(), encore.New()
	withRec.SetTelemetry(telemetry.New())
	rec := telemetry.New()
	fw.SetTelemetry(rec)
	var base, recOn, traced []float64
	var compile, encode time.Duration
	timed := func(f *encore.Framework) (float64, error) {
		t := time.Now()
		_, err := fullPass(f, train)
		return us(time.Since(t)), err
	}
	for i := 0; i < reps; i++ {
		u, err := timed(plain)
		if err != nil {
			return nil, err
		}
		base = append(base, u)
		if u, err = timed(withRec); err != nil {
			return nil, err
		}
		recOn = append(recOn, u)
		start := time.Now()
		for _, app := range apps {
			k, err := fw.Learn(train[app])
			if err != nil {
				return nil, err
			}
			t := time.Now()
			plan := fw.CompilePlan(k)
			t2 := time.Now()
			fw.MarshalPlan(plan)
			encode += time.Since(t2)
			compile += t2.Sub(t)
		}
		traced = append(traced, us(time.Since(start)))
	}
	b.ops(int64(3*reps*len(apps)), 0)
	snap := rec.Snapshot()
	stage := func(names ...string) time.Duration {
		var d time.Duration
		for _, st := range snap.Stages {
			for _, n := range names {
				if st.Name == n {
					d += st.Total
				}
			}
		}
		return d
	}
	training := stage(telemetry.StageAssembleParse, telemetry.StageAssembleInfer, telemetry.StageAssembleRows)
	infer := stage(telemetry.StageRulesInfer)
	n := float64(reps)
	candidates := float64(rec.Counter(telemetry.CounterRulesValidated)) / n
	b.set("assemble.training_ms", ms(training)/n)
	b.set("rules.infer_ms", ms(infer)/n)
	b.set("rules.candidates", candidates)
	b.set("rules.kept_ratio", float64(rec.Counter(telemetry.CounterRulesKept))/n/candidates)
	b.set("detect.compile_ms", ms(compile)/n)
	return &learnTrace{base: median(base), recOn: median(recOn), traced: median(traced),
		layers: us(training+infer+compile+encode) / n}, nil
}

// traceLearn breaks a full learn pass down by layer and runs the learned
// plans through the shared scan-path replays over the training files.
func traceLearn(b *bench, fw *encore.Framework, in *learnInputs, train map[string][]*sysimage.Image, first *learnPass) error {
	probe := startLateProbe(probeEvery)
	gcw := newGCWindow()
	lt, err := learnLayers(b, train, 5)
	b.set("runtime.gc_cpu_ratio", gcw.ratio())
	b.set("gen.late_p99_ms", probe.p99())
	if err != nil {
		return err
	}
	b.set("telemetry.overhead_ratio", lt.recOn/lt.base-1)
	b.set("trace.overhead_ratio", lt.traced/lt.base-1)
	b.sumCheck(lt.base, lt.layers, sumTolerance)

	p := &plans{bytes: first.bytes, live: map[string]*detect.Plan{}}
	for _, app := range apps {
		if p.live[app], err = fw.LoadPlan(p.bytes[app]); err != nil {
			return err
		}
	}
	fs := &fleetScan{dirs: in.trainDirs, plans: p.live}
	fl, err := traceFleetLayers(b, fs)
	if err != nil {
		return err
	}
	files, err := sampleFiles(in.trainDirs, replayImages)
	if err != nil {
		return err
	}
	if err := replayLayers(b, fw, files, p, fl.workerUs); err != nil {
		return err
	}
	return serveReplay(b, files, p)
}
