package encore

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/rules"
	"repro/internal/sysimage"
)

// freshRules re-infers the rule set from scratch over the knowledge's
// current rows — a rebuilt dataset twin, a fresh engine, no incremental
// state — so it is the reference answer for the delta-maintained rules.
func freshRules(t *testing.T, k *Knowledge) []*rules.Rule {
	t.Helper()
	twin := dataset.New()
	for _, a := range k.Training.Attributes() {
		twin.DeclareAttr(a.Name, a.Type, a.Augmented)
	}
	twin.AddRows(k.Training.Rows...)
	return New().Engine.Infer(twin, k.images)
}

func requireRulesFresh(t *testing.T, label string, k *Knowledge) {
	t.Helper()
	want := freshRules(t, k)
	if len(k.Rules) != len(want) {
		t.Fatalf("%s: incremental kept %d rules, from-scratch inference kept %d", label, len(k.Rules), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(k.Rules[i], want[i]) {
			t.Fatalf("%s: rule %d differs\nincremental:  %+v\nfrom-scratch: %+v", label, i, k.Rules[i], want[i])
		}
	}
}

// TestIncrementalLearnEquivalence drives the framework-level incremental
// pipeline — Learn on a partial fleet, AddImages for the rest, then
// RetireImages — and checks after every step that the delta-maintained
// rule set matches a from-scratch inference over the same rows, and that
// the final knowledge produces the same reports as one learned in a
// single batch over the same images.
func TestIncrementalLearnEquivalence(t *testing.T) {
	for _, app := range []string{"apache", "mysql"} {
		t.Run(app, func(t *testing.T) {
			training, err := corpus.Training(app, 16, 3)
			if err != nil {
				t.Fatal(err)
			}
			fw := New()
			k, err := fw.Learn(training[:10])
			if err != nil {
				t.Fatal(err)
			}
			requireRulesFresh(t, "after Learn", k)

			if err := fw.AddImages(k, training[10:13]...); err != nil {
				t.Fatal(err)
			}
			requireRulesFresh(t, "after AddImages batch 1", k)
			if err := fw.AddImages(k, training[13:]...); err != nil {
				t.Fatal(err)
			}
			requireRulesFresh(t, "after AddImages batch 2", k)

			retire := []string{training[1].ID, training[7].ID, training[14].ID}
			if err := fw.RetireImages(k, retire...); err != nil {
				t.Fatal(err)
			}
			requireRulesFresh(t, "after RetireImages", k)
			for _, id := range retire {
				if _, ok := k.images[id]; ok {
					t.Fatalf("retired image %s still registered", id)
				}
			}

			// The surviving fleet, learned in one batch, must make the same
			// calls on every target as the incrementally maintained one.
			var survivors []*sysimage.Image
			for _, row := range k.Training.Rows {
				survivors = append(survivors, k.images[row.SystemID])
			}
			batch, err := New().Learn(survivors)
			if err != nil {
				t.Fatal(err)
			}
			incPlan, batchPlan := fw.CompilePlan(k), fw.CompilePlan(batch)
			for _, img := range equivalenceTargets(t, app, 3) {
				want, err := batchPlan.Check(img)
				if err != nil {
					t.Fatal(err)
				}
				got, err := incPlan.Check(img)
				if err != nil {
					t.Fatal(err)
				}
				requireSameReport(t, img.ID, want, got)
			}
		})
	}
}

// TestIncrementalLearnErrors locks the guard rails: nil knowledge,
// duplicate image IDs, and retiring unknown IDs.
func TestIncrementalLearnErrors(t *testing.T) {
	training, err := corpus.Training("mysql", 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	if err := fw.AddImages(nil, training[0]); err == nil {
		t.Fatal("AddImages accepted nil knowledge")
	}
	k, err := fw.Learn(training[:3])
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.AddImages(k, training[0]); err == nil {
		t.Fatal("AddImages accepted a duplicate image ID")
	}
	before := len(k.Training.Rows)
	if err := fw.RetireImages(k, "no-such-image"); err != nil {
		t.Fatalf("retiring an unknown ID should be a no-op, got %v", err)
	}
	if len(k.Training.Rows) != before {
		t.Fatal("no-op retire changed the training rows")
	}
	if err := fw.RetireImages(nil, "x"); err == nil {
		t.Fatal("RetireImages accepted nil knowledge")
	}
}

// TestBinaryPlanReportEquivalence extends the plan equivalence property
// through the binary codec: a plan marshaled to the binary format and
// loaded back must report byte-identically to the legacy detector and to
// the in-memory plan it came from, and re-marshaling the loaded plan must
// reproduce the same bytes.
func TestBinaryPlanReportEquivalence(t *testing.T) {
	for _, app := range []string{"apache", "mysql", "php", "sshd"} {
		for seed := int64(1); seed <= 2; seed++ {
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
				data := fw.MarshalPlan(plan)
				loaded, err := fw.LoadPlan(data)
				if err != nil {
					t.Fatal(err)
				}
				if again := fw.MarshalPlan(loaded); string(again) != string(data) {
					t.Fatalf("re-marshaling the loaded plan changed the bytes: %d vs %d", len(again), len(data))
				}
				if loaded.Samples() != plan.Samples() || loaded.RuleCount() != plan.RuleCount() || loaded.AttrCount() != plan.AttrCount() {
					t.Fatalf("loaded plan shape differs: %d/%d/%d vs %d/%d/%d",
						loaded.Samples(), loaded.RuleCount(), loaded.AttrCount(),
						plan.Samples(), plan.RuleCount(), plan.AttrCount())
				}
				for _, img := range equivalenceTargets(t, app, seed) {
					legacy, err := legacyCheck(fw, k, img)
					if err != nil {
						t.Fatal(err)
					}
					got, err := loaded.Check(img)
					if err != nil {
						t.Fatal(err)
					}
					requireSameReport(t, img.ID, legacy, got)
				}
			})
		}
	}
}

// TestBinaryPlanFromProfile covers the other production path into the
// codec: profile JSON -> compiled plan -> binary -> loaded plan, compared
// against the legacy detector over the live knowledge the profile was
// exported from.
func TestBinaryPlanFromProfile(t *testing.T) {
	training, err := corpus.Training("mysql", 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := k.Profile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := fw.LoadPlan(fw.MarshalPlan(fw.CompilePlanFromProfile(p)))
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range equivalenceTargets(t, "mysql", 4) {
		legacy, err := legacyCheck(fw, k, img)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Check(img)
		if err != nil {
			t.Fatal(err)
		}
		requireSameReport(t, img.ID, legacy, got)
	}
}
