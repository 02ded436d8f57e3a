package encore

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/inject"
	"repro/internal/sysimage"
)

// legacyCheck is the equivalence tests' oracle: the legacy per-image
// detector over the knowledge's live training set, wired to the
// framework's assembler and templates exactly as CompilePlan wires the
// plan.
func legacyCheck(fw *Framework, k *Knowledge, img *sysimage.Image) (*detect.Report, error) {
	dt := &detect.Detector{Training: k.Training, Rules: k.Rules, Templates: fw.Engine.Templates, Assembler: fw.Assembler}
	return dt.Check(img)
}

// requireSameReport fails the test when the compiled plan's report differs
// in any observable way from the legacy detector's.
func requireSameReport(t *testing.T, label string, legacy, plan *detect.Report) {
	t.Helper()
	if reflect.DeepEqual(legacy, plan) {
		return
	}
	if legacy.SystemID != plan.SystemID {
		t.Fatalf("%s: SystemID %q vs %q", label, legacy.SystemID, plan.SystemID)
	}
	if len(legacy.Warnings) != len(plan.Warnings) {
		t.Fatalf("%s: warning count %d vs %d\nlegacy: %v\nplan:   %v",
			label, len(legacy.Warnings), len(plan.Warnings), renderWarnings(legacy), renderWarnings(plan))
	}
	for i := range legacy.Warnings {
		if !reflect.DeepEqual(legacy.Warnings[i], plan.Warnings[i]) {
			t.Fatalf("%s: warning %d differs\nlegacy: %+v\nplan:   %+v",
				label, i, legacy.Warnings[i], plan.Warnings[i])
		}
	}
	t.Fatalf("%s: reports differ", label)
}

func renderWarnings(r *detect.Report) []string {
	out := make([]string, len(r.Warnings))
	for i, w := range r.Warnings {
		out[i] = fmt.Sprintf("#%d %.2f %s %s", w.Rank, w.Score, w.Kind, w.Message)
	}
	return out
}

// equivalenceTargets builds a target fleet that exercises all four checks:
// clean drift targets from a fresh seed, targets with injected
// configuration errors (typos drive the misspelling index, value
// mutations drive type/suspicious checks), and the real-world cases.
func equivalenceTargets(t *testing.T, app string, seed int64) []*sysimage.Image {
	t.Helper()
	targets, err := corpus.Training(app, 6, seed+1000)
	if err != nil {
		t.Fatal(err)
	}
	in := inject.New(seed + 7)
	for i, clean := range targets[:3] {
		broken := clean.Clone()
		broken.ID = fmt.Sprintf("%s-broken-%d", broken.ID, i)
		if _, err := in.Inject(broken, app, 2+i); err != nil {
			t.Fatal(err)
		}
		targets = append(targets, broken)
	}
	if app == "mysql" {
		for _, c := range corpus.RealWorldCases() {
			targets = append(targets, c.Build())
		}
	}
	return targets
}

// TestPlanReportEquivalence is the compiled-plan equivalence property
// test: across apps, seeds, and target mutations, Plan.Check must emit a
// report identical to the legacy per-image detector's.
func TestPlanReportEquivalence(t *testing.T) {
	for _, app := range []string{"apache", "mysql", "php", "sshd"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", app, seed), func(t *testing.T) {
				training, err := corpus.Training(app, 12, seed)
				if err != nil {
					t.Fatal(err)
				}
				fw := New()
				k, err := fw.Learn(training)
				if err != nil {
					t.Fatal(err)
				}
				plan := fw.CompilePlan(k)
				for _, img := range equivalenceTargets(t, app, seed) {
					legacy, err := legacyCheck(fw, k, img)
					if err != nil {
						t.Fatal(err)
					}
					got, err := plan.Check(img)
					if err != nil {
						t.Fatal(err)
					}
					requireSameReport(t, img.ID, legacy, got)
					// A second pass reuses the pooled scratch; the report
					// must not change (stale per-image state would show
					// here).
					again, err := plan.Check(img)
					if err != nil {
						t.Fatal(err)
					}
					requireSameReport(t, img.ID+"/reused-scratch", legacy, again)
				}
			})
		}
	}
}

// TestPlanReportEquivalenceConcurrent drives one shared plan from many
// goroutines (tier-2 runs this under -race): every concurrent report must
// match the serial legacy report for its image.
func TestPlanReportEquivalenceConcurrent(t *testing.T) {
	training, err := corpus.Training("mysql", 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	plan := fw.CompilePlan(k)
	targets := equivalenceTargets(t, "mysql", 5)
	legacy := make([]*detect.Report, len(targets))
	for i, img := range targets {
		if legacy[i], err = legacyCheck(fw, k, img); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(targets)*4)
	for round := 0; round < 4; round++ {
		for i, img := range targets {
			wg.Add(1)
			go func(i int, img *sysimage.Image) {
				defer wg.Done()
				got, err := plan.Check(img)
				if err != nil {
					errs <- fmt.Sprintf("%s: %v", img.ID, err)
					return
				}
				if !reflect.DeepEqual(legacy[i], got) {
					errs <- fmt.Sprintf("%s: concurrent report differs", img.ID)
				}
			}(i, img)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPlanProfileEquivalence checks the profile round trip: a plan
// compiled from a deserialized profile must reproduce the legacy detector
// over the live knowledge the profile was exported from.
func TestPlanProfileEquivalence(t *testing.T) {
	training, err := corpus.Training("mysql", 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	data, err := k.Profile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	plan := fw.CompilePlanFromProfile(p)
	for _, img := range equivalenceTargets(t, "mysql", 2) {
		legacy, err := legacyCheck(fw, k, img)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Check(img)
		if err != nil {
			t.Fatal(err)
		}
		requireSameReport(t, img.ID, legacy, got)
	}
}

// TestPlanAugmentedEntryNameCollision locks the trickiest naming corner:
// a literal entry whose name equals another entry's augmented attribute
// ("dir.exists" next to a FilePath entry "dir"). The legacy target
// dataset declares every parsed entry name non-augmented before emitting
// augmentations, so such an entry must still produce an entry-name
// warning even though the augmented declare streams first.
func TestPlanAugmentedEntryNameCollision(t *testing.T) {
	training, err := corpus.Training("mysql", 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	plan := fw.CompilePlan(k)
	target, err := corpus.Training("mysql", 1, 999)
	if err != nil {
		t.Fatal(err)
	}
	img := target[0].Clone()
	img.ID = "collision-target"
	img.ConfigFiles = append(img.ConfigFiles, sysimage.ConfigFile{
		App:     "php",
		Path:    "/etc/php.ini",
		Content: "dir=/etc\ndir.exists=weird\n",
	})
	legacy, err := legacyCheck(fw, k, img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Check(img)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, img.ID, legacy, got)
	if legacy.RankOf(func(w *Warning) bool {
		return w.Kind == KindName && w.Attr == "php:dir.exists"
	}) == 0 {
		t.Fatalf("expected an entry-name warning for php:dir.exists; report: %v", renderWarnings(legacy))
	}
}

// TestScanEngineMatchesPerImageCheck pins that the batch engine (which
// runs the compiled plan) returns the same reports as the legacy detector
// checking each image on its own.
func TestScanEngineMatchesPerImageCheck(t *testing.T) {
	training, err := corpus.Training("apache", 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	targets := equivalenceTargets(t, "apache", 4)
	res, _, err := fw.ScanEngine(fw.CompilePlan(k)).Collect(context.Background(), &ImageSource{Images: targets})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != len(targets) {
		t.Fatalf("items: %d vs %d targets", len(res.Items), len(targets))
	}
	for i, it := range res.Items {
		if it.Err != nil {
			t.Fatalf("%s: %v", targets[i].ID, it.Err)
		}
		legacy, err := legacyCheck(fw, k, targets[i])
		if err != nil {
			t.Fatal(err)
		}
		requireSameReport(t, targets[i].ID, legacy, it.Report)
	}
}
