package encore

// The benchmark harness regenerates every table of the paper's evaluation
// (BenchmarkTableN, one per table) and measures the ablations DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Table benches report the headline quantity of their table as a custom
// metric alongside timing, so a bench run doubles as a results summary.

import (
	"fmt"
	"runtime"
	"testing"

	"context"
	"repro/internal/assemble"
	"repro/internal/baseline"
	"repro/internal/conftypes"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"time"

	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/inject"
	"repro/internal/mining"
	"repro/internal/rules"
	"repro/internal/scan"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

const benchSeed = 1

func BenchmarkTable1Study(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := eval.Table1()
		if len(rows) != 4 {
			b.Fatal("study rows")
		}
	}
	b.ReportMetric(float64(len(eval.Table1())), "apps")
}

func BenchmarkTable2AttributeGrowth(b *testing.B) {
	var last []eval.Table2Row
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table2(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	total := 0
	for _, r := range last {
		total += r.Binomial
	}
	b.ReportMetric(float64(total), "binomial-attrs")
}

func BenchmarkTable3MiningScalability(b *testing.B) {
	oom := 0
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table3(benchSeed, nil, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		oom = 0
		for _, r := range rows {
			if r.OOM {
				oom++
			}
		}
	}
	b.ReportMetric(float64(oom), "oom-runs")
}

func BenchmarkTable8InjectionStudy(b *testing.B) {
	var rows []eval.Table8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.Table8(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	detected := 0
	for _, r := range rows {
		detected += r.EnCore
	}
	b.ReportMetric(float64(detected), "encore-detected")
}

func BenchmarkTable9RealWorldCases(b *testing.B) {
	detected := 0
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table9(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		detected = 0
		for _, r := range rows {
			if r.Detected {
				detected++
			}
		}
	}
	b.ReportMetric(float64(detected), "cases-detected")
}

func BenchmarkTable10NewMisconfigurations(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table10(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, r := range rows {
			total += r.Total
		}
	}
	b.ReportMetric(float64(total), "detections")
}

func BenchmarkTable11TypeInference(b *testing.B) {
	var rows []eval.Table11Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.Table11(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	wrong := 0
	for _, r := range rows {
		wrong += r.FalseTypes + r.Undetected
	}
	b.ReportMetric(float64(wrong), "inference-errors")
}

func BenchmarkTable12RuleInference(b *testing.B) {
	var rows []eval.Table12Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.Table12(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	total := 0
	for _, r := range rows {
		total += r.DetectedRules
	}
	b.ReportMetric(float64(total), "rules")
}

func BenchmarkTable13EntropyFilter(b *testing.B) {
	var rows []eval.Table13Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.Table13(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	reduced := 0
	for _, r := range rows {
		reduced += r.FPReduced
	}
	b.ReportMetric(float64(reduced), "fp-reduced")
}

// ---- pipeline stage benchmarks ----

func benchCorpus(b *testing.B, app string, n int) ([]*Image, *dataset.Dataset) {
	b.Helper()
	images, err := corpus.Training(app, n, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := assemble.New().AssembleTraining(images)
	if err != nil {
		b.Fatal(err)
	}
	return images, ds
}

// paperTrainingSizes are the training-set sizes of the paper's rule
// inference evaluation (Table 12).
var paperTrainingSizes = []struct {
	app string
	n   int
}{{"apache", 127}, {"mysql", 187}, {"php", 123}}

// BenchmarkAssembleTraining measures training-set assembly at the paper's
// training sizes, inline (workers=1) and on the NumCPU pool, so bench
// runs track both the per-image assembly cost and the pool's speedup.
func BenchmarkAssembleTraining(b *testing.B) {
	for _, s := range paperTrainingSizes {
		images, err := corpus.Training(s.app, s.n, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []struct {
			label   string
			workers int
		}{{"1", 1}, {"NumCPU", runtime.NumCPU()}} {
			b.Run(fmt.Sprintf("app=%s/workers=%s", s.app, w.label), func(b *testing.B) {
				asm := assemble.New()
				asm.Workers = w.workers
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := asm.AssembleTraining(images); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(images)), "ns/image")
			})
		}
	}
}

// BenchmarkLearn measures the learn path end to end at the paper's
// training sizes: Learn, CompilePlan and MarshalPlan over images decoded
// by sysimage.LoadJSON, the form a learner reading snapshots from disk
// holds.
func BenchmarkLearn(b *testing.B) {
	for _, s := range paperTrainingSizes {
		generated, err := corpus.Training(s.app, s.n, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		images := make([]*Image, len(generated))
		for i, im := range generated {
			data, err := im.MarshalJSONIndent()
			if err != nil {
				b.Fatal(err)
			}
			if images[i], err = sysimage.LoadJSON(data); err != nil {
				b.Fatal(err)
			}
		}
		b.Run("app="+s.app, func(b *testing.B) {
			fw := New()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k, err := fw.Learn(images)
				if err != nil {
					b.Fatal(err)
				}
				fw.MarshalPlan(fw.CompilePlan(k))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(images)), "ns/image")
		})
	}
}

func BenchmarkRuleInferenceParallel(b *testing.B) {
	images, ds := benchCorpus(b, "apache", 60)
	byID := corpus.ByID(images)
	eng := rules.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Infer(ds, byID)
	}
}

// BenchmarkRuleInferenceIndexed measures the columnar-index inference path
// (bitset support pruning, co-occurrence sweeps, memoized entropies) on a
// corpus-scaling axis, so bench runs track how inference scales with fleet
// size, not just its apache/60 headline. The images=60 case is the number
// to compare against BenchmarkRuleInferenceParallel's pre-index history.
func BenchmarkRuleInferenceIndexed(b *testing.B) {
	for _, n := range []int{60, 120, 240} {
		b.Run(fmt.Sprintf("images=%d", n), func(b *testing.B) {
			images, ds := benchCorpus(b, "apache", n)
			byID := corpus.ByID(images)
			eng := rules.NewEngine()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Infer(ds, byID)
			}
			b.ReportMetric(float64(eng.LastStats.Candidates), "candidates")
		})
	}
}

// BenchmarkDetectorCheck records the cost of the legacy per-image
// detector, the oracle the plan equivalence tests check against (see
// BenchmarkPlanCheck for the production path).
func BenchmarkDetectorCheck(b *testing.B) {
	images, err := corpus.Training("mysql", 60, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(images)
	if err != nil {
		b.Fatal(err)
	}
	target := corpus.RealWorldCases()[2].Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := legacyCheck(fw, k, target); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineCheck(b *testing.B) {
	images, ds := benchCorpus(b, "mysql", 60)
	_ = images
	target := corpus.RealWorldCases()[2].Build()
	bl := baseline.NewBaselineEnv(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bl.Check(target); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInjection(b *testing.B) {
	images, err := corpus.Training("apache", 1, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := images[0].Clone()
		if _, err := inject.New(int64(i)).Inject(victim, "apache", 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablations ----

// BenchmarkAblationTypedCandidates measures the typed candidate space; its
// untyped counterpart shows what template instantiation would cost without
// type-based attribute selection — the scalability argument of Section 5.1.
func BenchmarkAblationTypedCandidates(b *testing.B) {
	_, ds := benchCorpus(b, "apache", 60)
	eng := rules.NewEngine()
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = eng.CandidateCount(ds)
	}
	b.ReportMetric(float64(n), "candidates")
}

func BenchmarkAblationUntypedCandidates(b *testing.B) {
	_, ds := benchCorpus(b, "apache", 60)
	// Erase semantic types: every attribute becomes eligible for every
	// numeric/string slot, the worst case the paper's typed selection
	// avoids.
	untyped := dataset.New()
	for _, a := range ds.Attributes() {
		untyped.DeclareAttr(a.Name, conftypes.TypeNumber, false)
	}
	eng := rules.NewEngine()
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = eng.CandidateCount(untyped)
	}
	b.ReportMetric(float64(n), "candidates")
}

// BenchmarkAblationSyntacticOnly measures type-inference accuracy without
// the semantic verification step (crude syntactic guesses only).
func BenchmarkAblationSyntacticOnly(b *testing.B) {
	images, err := corpus.Training("mysql", 60, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	inf := conftypes.NewInferencer()
	// Strip every semantic verifier.
	noVerify := conftypes.NewInferencer()
	stripped := 0
	for _, d := range noVerify.Defs() {
		if d.Verify != nil {
			d.Verify = nil
			stripped++
		}
	}
	img := images[0]
	values := []string{"/var/lib/mysql", "mysql", "3306", "16M", "10.0.0.5", "no-such-user"}
	b.ResetTimer()
	misclassified := 0
	for i := 0; i < b.N; i++ {
		misclassified = 0
		for _, v := range values {
			if inf.InferValue(v, img) != noVerify.InferValue(v, img) {
				misclassified++
			}
		}
	}
	b.ReportMetric(float64(misclassified), "divergent-types")
}

// ---- mining algorithm comparison ----

func miningWorkload(b *testing.B, app string) [][]int {
	b.Helper()
	_, ds := benchCorpus(b, app, 0x0+60)
	disc := ds.Discretize(nil)
	return disc.Transactions
}

func BenchmarkMiningApriori(b *testing.B) {
	txns := miningWorkload(b, "php")
	m := &mining.Apriori{MaxSets: 100_000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := m.Mine(txns, len(txns)*8/10)
		if err != nil && err != mining.ErrBudgetExceeded {
			b.Fatal(err)
		}
	}
}

func BenchmarkMiningFPGrowth(b *testing.B) {
	txns := miningWorkload(b, "php")
	m := &mining.FPGrowth{MaxSets: 100_000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := m.Mine(txns, len(txns)*8/10)
		if err != nil && err != mining.ErrBudgetExceeded {
			b.Fatal(err)
		}
	}
}

// ---- extension studies ----

// BenchmarkExtensionEnvInjection measures the environment-error study: the
// pure baseline is structurally blind, EnCore is not.
func BenchmarkExtensionEnvInjection(b *testing.B) {
	var rows []eval.EnvInjectionRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.ExtensionEnvInjection(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	enc := 0
	for _, r := range rows {
		enc += r.EnCore
	}
	b.ReportMetric(float64(enc), "encore-detected")
}

// BenchmarkExtensionCrossComponent measures LAMP cross-component learning
// and detection (the paper's future-work extension).
func BenchmarkExtensionCrossComponent(b *testing.B) {
	var res *eval.CrossComponentResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.ExtensionCrossComponent(40, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CrossRules), "cross-rules")
}

// BenchmarkAblationThresholdSweep measures the filter-threshold
// sensitivity sweep (confidence / support / entropy, 15 points).
func BenchmarkAblationThresholdSweep(b *testing.B) {
	var points []eval.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = eval.ThresholdSweep("mysql", benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, p := range points {
		if p.Precision() > best {
			best = p.Precision()
		}
	}
	b.ReportMetric(best*100, "best-precision-%")
}

// BenchmarkAdvise measures remediation-advice derivation for a report.
func BenchmarkAdvise(b *testing.B) {
	images, err := corpus.Training("mysql", 60, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(images)
	if err != nil {
		b.Fatal(err)
	}
	target := corpus.RealWorldCases()[2].Build()
	report, err := fw.CompilePlan(k).Check(target)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n = len(k.Advise(report))
	}
	b.ReportMetric(float64(n), "suggestions")
}

// ---- concurrency benchmarks ----

// benchScanFleet learns once and returns a target fleet for the batch
// scan benchmarks.
func benchScanFleet(b *testing.B) (*Framework, *Knowledge, []*Image) {
	b.Helper()
	training, err := corpus.Training("mysql", 30, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(training)
	if err != nil {
		b.Fatal(err)
	}
	targets, err := corpus.Training("mysql", 32, benchSeed+9)
	if err != nil {
		b.Fatal(err)
	}
	return fw, k, targets
}

// BenchmarkBatchScanWorkers records the worker-scaling surface of the
// batch scan engine with one shard, as `encore scan` runs it by default:
// one sub-benchmark per (corpus size, pool size) point. The corpus-size
// axis exists because a 32-image fleet finishes too fast for the workers
// axis to discriminate; the 1k and 10k points replicate the loaded images
// by pointer — Plan.Check is read-only — so task count scales without
// corpus memory, and parallel speedup (or a regression in it) is visible
// in ns/image.
func BenchmarkBatchScanWorkers(b *testing.B) {
	fw, k, targets := benchScanFleet(b)
	eng := fw.ScanEngine(fw.CompilePlan(k))
	eng.Opts.Shards = 1
	axis := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		axis = append(axis, n)
	}
	for _, size := range []int{32, 1000, 10000} {
		images := make([]*Image, size)
		for i := range images {
			images[i] = targets[i%len(targets)]
		}
		for _, w := range axis {
			b.Run(fmt.Sprintf("images=%d/workers=%d", size, w), func(b *testing.B) {
				eng.Opts.Workers = w
				src := &ImageSource{Images: images}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := eng.Collect(context.Background(), src); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/image")
			})
		}
	}
}

// BenchmarkFleetScan measures the sharded coordinator over synthetic
// fleets one, two, and three orders of magnitude past the corpus bench:
// every image streams through the full decode + check path. Alongside
// ns/image it reports the runtime sampler's peak heap — the constant-
// memory acceptance number: the 100k point must hold within 1.5× of the
// 10k point — and the steal rate.
func BenchmarkFleetScan(b *testing.B) {
	fw, k, targets := benchScanFleet(b)
	plan := fw.CompilePlan(k)
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("images=%d", size), func(b *testing.B) {
			src, err := fleet.NewSyntheticSource(targets[:4], size)
			if err != nil {
				b.Fatal(err)
			}
			var peak uint64
			var steals int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := telemetry.NewSampler(2*time.Millisecond, 1<<15)
				s.Start()
				coord := &fleet.Coordinator{Opts: fleet.Options{Check: plan.Check, Shards: 4}}
				stats, err := coord.Run(context.Background(), src, func(int, scan.Item) {})
				s.Stop()
				if err != nil {
					b.Fatal(err)
				}
				if stats.Images != int64(size) {
					b.Fatalf("images = %d, want %d", stats.Images, size)
				}
				steals += stats.Steals
				for _, sm := range s.Samples() {
					if sm.HeapBytes > peak {
						peak = sm.HeapBytes
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/image")
			b.ReportMetric(float64(peak), "peak-heap-bytes")
			b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
		})
	}
}

// BenchmarkPlanCheck measures one compiled-plan check per op — the
// per-image hot path of the batch scan. target=realworld is read against
// BenchmarkDetectorCheck (the legacy per-image detector on the same corpus
// and target); fleet=privatecloud cycles 900 PrivateCloudTargets images
// through per-app plans learned at the paper's training sizes, the
// traffic of a fleet scan.
func BenchmarkPlanCheck(b *testing.B) {
	b.Run("target=realworld", func(b *testing.B) {
		images, err := corpus.Training("mysql", 60, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		fw := New()
		k, err := fw.Learn(images)
		if err != nil {
			b.Fatal(err)
		}
		plan := fw.CompilePlan(k)
		target := corpus.RealWorldCases()[2].Build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Check(target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fleet=privatecloud", func(b *testing.B) {
		fw := New()
		plans := map[string]*Plan{}
		for _, app := range []string{"apache", "mysql", "php"} {
			training, err := corpus.Training(app, eval.TrainingSize(app), benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			k, err := fw.Learn(training)
			if err != nil {
				b.Fatal(err)
			}
			plans[app] = fw.CompilePlan(k)
		}
		type job struct {
			plan *Plan
			img  *Image
		}
		var jobs []job
		for seed := int64(1); seed <= 3; seed++ {
			pop, err := corpus.PrivateCloudTargets(seed)
			if err != nil {
				b.Fatal(err)
			}
			for _, img := range pop.Images {
				jobs = append(jobs, job{plans[img.ConfigFiles[0].App], img})
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := jobs[i%len(jobs)]
			if _, err := j.plan.Check(j.img); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHeadline prints the paper's headline comparison as a benchmark:
// EnCore vs the baselines on the injection study.
func BenchmarkHeadline(b *testing.B) {
	var rows []eval.Table8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.Table8(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	enc, base := 0, 0
	for _, r := range rows {
		enc += r.EnCore
		base += r.Baseline
	}
	if base > 0 {
		b.ReportMetric(float64(enc)/float64(base), "improvement-x")
	}
	b.Logf("\n%s", eval.RenderTable8(rows))
	_ = fmt.Sprint()
}

// BenchmarkPlanColdStart measures the three ways to get a usable detector
// on a fresh process, on the same 32-image corpus: decoding a compiled
// binary plan, compiling a plan from a deserialized JSON profile, and
// re-learning from the raw training images. The binary path is the one
// the scan CLI takes with -plan; the sub-benchmark ratios are the point
// of the format.
func BenchmarkPlanColdStart(b *testing.B) {
	images, err := corpus.Training("mysql", 32, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(images)
	if err != nil {
		b.Fatal(err)
	}
	planBytes := fw.MarshalPlan(fw.CompilePlan(k))
	profileBytes, err := k.Profile().Marshal()
	if err != nil {
		b.Fatal(err)
	}

	b.Run("binary-load", func(b *testing.B) {
		b.SetBytes(int64(len(planBytes)))
		for i := 0; i < b.N; i++ {
			if _, err := fw.LoadPlan(planBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile-from-profile", func(b *testing.B) {
		b.SetBytes(int64(len(profileBytes)))
		for i := 0; i < b.N; i++ {
			p, err := LoadProfile(profileBytes)
			if err != nil {
				b.Fatal(err)
			}
			if fw.CompilePlanFromProfile(p) == nil {
				b.Fatal("nil plan")
			}
		}
	})
	b.Run("full-relearn", func(b *testing.B) {
		// Like the other two arms, start from serialized bytes: a real
		// re-learn cold start parses the training snapshots before it can
		// assemble, infer, and compile.
		raw := make([][]byte, len(images))
		for i, im := range images {
			data, err := im.MarshalJSONIndent()
			if err != nil {
				b.Fatal(err)
			}
			raw[i] = data
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			imgs := make([]*sysimage.Image, len(raw))
			for j, data := range raw {
				img, err := sysimage.LoadJSON(data)
				if err != nil {
					b.Fatal(err)
				}
				imgs[j] = img
			}
			kk, err := New().Learn(imgs)
			if err != nil {
				b.Fatal(err)
			}
			if fw.CompilePlan(kk) == nil {
				b.Fatal("nil plan")
			}
		}
	})
}

// BenchmarkIncrementalInfer compares re-inferring rules after a two-image
// fleet change: InferDelta against a from-scratch Infer over the same
// rows.
func BenchmarkIncrementalInfer(b *testing.B) {
	images, err := corpus.Training("mysql", 32, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	delta, err := corpus.Training("mysql", 2, benchSeed+500)
	if err != nil {
		b.Fatal(err)
	}
	for i, im := range delta {
		im.ID = fmt.Sprintf("delta-%d", i)
	}

	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fw := New()
			k, err := fw.Learn(images)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := fw.AddImages(k, delta...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		all := append(append([]*sysimage.Image(nil), images...), delta...)
		for i := 0; i < b.N; i++ {
			if _, err := New().Learn(all); err != nil {
				b.Fatal(err)
			}
		}
	})
}
