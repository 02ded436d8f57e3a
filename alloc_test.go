package encore

import (
	"context"
	"testing"

	"repro/internal/conftypes"
	"repro/internal/corpus"
	"repro/internal/scan"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// Allocation ceilings for the per-image hot path. Measured steady-state
// costs are 2 allocs for Plan.Check (mysql corpus image: the report and
// its warning slice) and 73 for LoadJSON of its ~5KB snapshot through the
// native decoder (193 through the encoding/json fallback); the ceilings
// leave roughly 2x headroom for legitimate growth while still catching a
// re-bloat of the scan path (the legacy per-image Check ran at ~700
// allocs, 64 before the config tokenizer stopped copying arguments, and
// 51 before config files were parsed into a reused scratch) or a corpus
// image falling back to encoding/json.
const (
	maxPlanCheckAllocs = 4
	// A -race build's sync.Pool drops a quarter of the items put back, so
	// Plan.Check rebuilds its pooled scratches every few images: 6–10
	// allocs measured.
	maxPlanCheckAllocsRace = 20
	maxLoadJSONAllocs      = 150
	// Binary plan decode of a learned 30-image mysql plan sits around ~260
	// allocations once the string interner is warm (one per histogram slice
	// and rule, plus the spec scaffolding); 600 leaves ~2x headroom while
	// still catching a per-string or per-varint alloc regression that would
	// erode the cold-start win.
	maxPlanDecodeAllocs = 600
	// Learn → CompilePlan → MarshalPlan over a 30-image mysql training set
	// costs 23.8 allocations per training image with the rows stored as
	// dataset columns (no cell map per row), joined paths looked up
	// without a string, rules sorted without building keys and span
	// attributes kept off the heap with telemetry off (31.5–32.2 before
	// them, 60.9 before value dictionaries, 114 when every entry was
	// allocated, 308 when each row was recorded as an op log and
	// replayed); the ceiling leaves 10% headroom. A -race build's
	// sync.Pool drops pooled parse and inference scratches, which
	// measured 33.1–33.4.
	maxLearnAllocsPerImage     = 26
	maxLearnAllocsPerImageRace = 37
	// The batch engine's own allocations per image on top of Plan.Check:
	// a warmed one-shard run over 200 resident images with a recorder
	// measured 0.11 (the run's goroutines, spans and deques amortized;
	// nothing per image). Under -race, the two measurements rebuild
	// different numbers of pool-dropped scratches: the difference read
	// -0.5 to +0.6.
	maxFleetAllocsPerImage     = 1
	maxFleetAllocsPerImageRace = 3
)

// TestPlanCheckAllocCeiling pins the steady-state allocation count of one
// compiled-plan check so future changes cannot silently reintroduce
// per-image churn (histograms, datasets, per-call name strings).
func TestPlanCheckAllocCeiling(t *testing.T) {
	training, err := corpus.Training("mysql", 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	plan := fw.CompilePlan(k)
	targets, err := corpus.Training("mysql", 4, 1009)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the scratch pool and the target-name interner.
	for _, img := range targets {
		if _, err := plan.Check(img); err != nil {
			t.Fatal(err)
		}
	}
	img := targets[0]
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := plan.Check(img); err != nil {
			t.Fatal(err)
		}
	})
	ceiling := maxPlanCheckAllocs
	if raceBuild {
		ceiling = maxPlanCheckAllocsRace
	}
	if allocs > float64(ceiling) {
		t.Errorf("Plan.Check allocated %.1f objects per image; ceiling is %d", allocs, ceiling)
	}
}

// TestLoadJSONAllocCeiling pins the decode cost of one image snapshot.
func TestLoadJSONAllocCeiling(t *testing.T) {
	images, err := corpus.Training("mysql", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := images[0].MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sysimage.LoadJSON(data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sysimage.LoadJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxLoadJSONAllocs {
		t.Errorf("LoadJSON allocated %.1f objects for a %d-byte image; ceiling is %d",
			allocs, len(data), maxLoadJSONAllocs)
	}
}

// TestPlanDecodeAllocCeiling pins the allocation count of decoding a
// compiled binary plan — the millisecond cold-start path. The ceiling is
// what keeps `scan -plan` startup from quietly regressing toward the
// JSON-profile cost it replaces.
func TestPlanDecodeAllocCeiling(t *testing.T) {
	training, err := corpus.Training("mysql", 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	data := fw.MarshalPlan(fw.CompilePlan(k))
	// Warm the string interner with the plan's vocabulary.
	if _, err := fw.LoadPlan(data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := fw.LoadPlan(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxPlanDecodeAllocs {
		t.Errorf("LoadPlan allocated %.1f objects for a %d-byte plan; ceiling is %d",
			allocs, len(data), maxPlanDecodeAllocs)
	}
}

// TestLearnAllocCeiling pins the allocation count of a full learn pass —
// assembly, rule inference, plan compile and encode — per training image,
// so the learn path cannot quietly drift back toward per-row churn
// (recorded op logs, per-instance name strings, per-cell slices).
func TestLearnAllocCeiling(t *testing.T) {
	training, err := corpus.Training("mysql", 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	learn := func() {
		k, err := fw.Learn(training)
		if err != nil {
			t.Fatal(err)
		}
		fw.MarshalPlan(fw.CompilePlan(k))
	}
	perImage := testing.AllocsPerRun(10, learn) / float64(len(training))
	ceiling := maxLearnAllocsPerImage
	if raceBuild {
		ceiling = maxLearnAllocsPerImageRace
	}
	if perImage > float64(ceiling) {
		t.Errorf("learn allocated %.1f objects per training image; ceiling is %d", perImage, ceiling)
	}
	t.Logf("learn: %.1f allocations per training image", perImage)
}

// TestInferValueAllocs pins InferValue, which every scan path calls for
// entries training never saw, at zero allocations: it decides on stack
// arrays, with no definition list, sample slice or pooled scratch.
func TestInferValueAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("a -race build's sync.Pool drops regexp's pooled machines")
	}
	images, err := corpus.Training("mysql", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	inf := conftypes.NewInferencer()
	for _, v := range []string{"", "on", "On", "3306", "16M", "/var/lib/mysql", "mysql", "x y", "-3.5"} {
		if n := testing.AllocsPerRun(100, func() { inf.InferValue(v, images[0]) }); n != 0 {
			t.Errorf("InferValue(%q) allocated %.0f times", v, n)
		}
	}
}

// TestFleetAllocCeiling pins what the batch engine adds to Plan.Check per
// image: no allocation, lock, goroutine or span per image, so a run's
// allocations beyond the checks' own stay under one per image.
func TestFleetAllocCeiling(t *testing.T) {
	training, err := corpus.Training("mysql", 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	plan := fw.CompilePlan(k)
	targets, err := corpus.Training("mysql", 200, 1009)
	if err != nil {
		t.Fatal(err)
	}
	checkAll := func() {
		for _, img := range targets {
			if _, err := plan.Check(img); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng := fw.ScanEngine(plan)
	eng.Opts.Shards = 1
	eng.Opts.Telemetry = telemetry.New()
	src := &ImageSource{Images: targets}
	run := func() {
		if _, err := eng.Run(context.Background(), src, func(int, scan.Item) {}); err != nil {
			t.Fatal(err)
		}
	}
	checkAll() // warm the scratch pools and the target-name interner
	run()
	n := float64(len(targets))
	checks := testing.AllocsPerRun(5, checkAll) / n
	runs := testing.AllocsPerRun(5, run) / n
	ceiling := float64(maxFleetAllocsPerImage)
	if raceBuild {
		ceiling = maxFleetAllocsPerImageRace
	}
	t.Logf("per image: Plan.Check %.2f allocs, engine run %.2f", checks, runs)
	if runs > checks+ceiling {
		t.Errorf("engine run allocated %.2f objects per image, Plan.Check alone %.2f; ceiling is %.0f more",
			runs, checks, ceiling)
	}
}
