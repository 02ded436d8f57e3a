package encore

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/sysimage"
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
	// costs ~65 allocations per training image with config files parsed
	// into per-worker scratches (114 when every entry was allocated, 308
	// when each row was recorded as an op log and replayed); the ceiling
	// leaves ~2x headroom.
	maxLearnAllocsPerImage = 130
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
	if perImage > maxLearnAllocsPerImage {
		t.Errorf("learn allocated %.1f objects per training image; ceiling is %d", perImage, maxLearnAllocsPerImage)
	}
	t.Logf("learn: %.1f allocations per training image", perImage)
}
