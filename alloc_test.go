package encore

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/sysimage"
)

// Allocation ceilings for the per-image hot path. Measured steady-state
// costs are 51 allocs for Plan.Check (mysql corpus image) and 73 for
// LoadJSON of its ~5KB snapshot through the native decoder (193 through
// the encoding/json fallback); the ceilings leave roughly 2x headroom for
// legitimate growth while still catching a re-bloat of the scan path (the
// legacy per-image Check ran at ~700 allocs, and 64 before the config
// tokenizer stopped copying arguments) or a corpus image falling back to
// encoding/json.
const (
	maxPlanCheckAllocs = 100
	maxLoadJSONAllocs  = 150
	// Binary plan decode of a learned 30-image mysql plan sits around ~260
	// allocations once the string interner is warm (one per histogram slice
	// and rule, plus the spec scaffolding); 600 leaves ~2x headroom while
	// still catching a per-string or per-varint alloc regression that would
	// erode the cold-start win.
	maxPlanDecodeAllocs = 600
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
	if allocs > maxPlanCheckAllocs {
		t.Errorf("Plan.Check allocated %.1f objects per image; ceiling is %d", allocs, maxPlanCheckAllocs)
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
