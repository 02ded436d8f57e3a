package encore

// Cross-module integration tests: the full pipeline over every supported
// application, knowledge-profile round trips, and whole-pipeline
// properties.

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/inject"
	"repro/internal/sysimage"
)

// TestPipelineAllApps runs learn+check for each of the four supported
// applications on clean corpora: clean targets must not trigger
// correlation, type, or name warnings.
func TestPipelineAllApps(t *testing.T) {
	for _, app := range []string{"apache", "mysql", "php", "sshd"} {
		t.Run(app, func(t *testing.T) {
			training, err := corpus.Training(app, 60, 13)
			if err != nil {
				t.Fatal(err)
			}
			fw := New()
			k, err := fw.Learn(training)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := corpus.Training(app, 1, 555)
			if err != nil {
				t.Fatal(err)
			}
			clean[0].ID = app + "-clean"
			report, err := fw.CompilePlan(k).Check(clean[0])
			if err != nil {
				t.Fatal(err)
			}
			// Any data-driven learner carries some false rules (the paper
			// reports them in Table 12); a clean target may trip at most
			// one low-value boolean association, but never a type or name
			// violation.
			fpBudget := 1
			for _, w := range report.Warnings {
				switch w.Kind {
				case KindCorrelation:
					if w.Rule != nil && w.Rule.Template == "bool-implies" && fpBudget > 0 {
						fpBudget--
						continue
					}
					t.Errorf("clean %s target: %s: %s", app, w.Kind, w.Message)
				case KindType, KindName:
					t.Errorf("clean %s target: %s: %s", app, w.Kind, w.Message)
				}
			}
		})
	}
}

// TestSSHDDetectsBrokenChroot drives the fourth application end-to-end
// with a planted environment error.
func TestSSHDDetectsBrokenChroot(t *testing.T) {
	training, err := corpus.Training("sshd", 30, 17)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	victims, err := corpus.Training("sshd", 1, 18)
	if err != nil {
		t.Fatal(err)
	}
	victim := victims[0]
	victim.ID = "sshd-victim"
	// The chroot directory must be root-owned; chown it away.
	fm := victim.Lookup("/var/empty/sshd")
	if fm == nil {
		t.Fatal("chroot dir missing from corpus image")
	}
	fm.Owner = "sshd"
	fm.Mode = 0o777
	report, err := fw.CompilePlan(k).Check(victim)
	if err != nil {
		t.Fatal(err)
	}
	rank := report.RankOf(func(w *Warning) bool {
		return strings.Contains(w.Attr, "ChrootDirectory")
	})
	if rank == 0 || rank > 3 {
		for _, w := range report.Warnings {
			t.Logf("%d %s %s", w.Rank, w.Kind, w.Message)
		}
		t.Fatalf("broken chroot rank = %d", rank)
	}
}

// TestInjectionAlwaysDetectable is a pipeline property: for many seeds,
// EnCore finds at least two thirds of injected configuration errors on a
// held-out image.
func TestInjectionAlwaysDetectable(t *testing.T) {
	training, err := corpus.Training("mysql", 50, 19)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	plan := fw.CompilePlan(k)
	for seed := int64(0); seed < 8; seed++ {
		victims, err := corpus.Training("mysql", 1, 300+seed)
		if err != nil {
			t.Fatal(err)
		}
		victim := victims[0]
		victim.ID = "victim"
		injections, err := inject.New(seed).Inject(victim, "mysql", 10)
		if err != nil {
			t.Fatal(err)
		}
		report, err := plan.Check(victim)
		if err != nil {
			t.Fatal(err)
		}
		detected := 0
		for _, inj := range injections {
			for _, w := range report.Warnings {
				if inj.Matches(w.Attr) {
					detected++
					break
				}
			}
		}
		if detected*3 < len(injections)*2 {
			t.Errorf("seed %d: detected %d of %d", seed, detected, len(injections))
		}
	}
}

// TestProfileRoundTripProperty: exporting and re-importing knowledge never
// changes a report, across corpora seeds — a plan compiled from the
// re-imported profile reports what the legacy detector reports over the
// live knowledge.
func TestProfileRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		seed = seed%100 + 1
		training, err := corpus.Training("php", 20, seed)
		if err != nil {
			return false
		}
		fw := New()
		k, err := fw.Learn(training)
		if err != nil {
			return false
		}
		data, err := k.Profile().Marshal()
		if err != nil {
			return false
		}
		p, err := LoadProfile(data)
		if err != nil {
			return false
		}
		target := corpus.RealWorldCases()[1].Build()
		live, err := legacyCheck(fw, k, target)
		if err != nil {
			return false
		}
		fromProfile, err := fw.CompilePlanFromProfile(p).Check(target)
		if err != nil {
			return false
		}
		if len(live.Warnings) != len(fromProfile.Warnings) {
			return false
		}
		for i := range live.Warnings {
			if live.Warnings[i].Attr != fromProfile.Warnings[i].Attr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestLearnDeterministic: the same corpus always yields the same rules.
func TestLearnDeterministic(t *testing.T) {
	training, err := corpus.Training("apache", 30, 23)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	a, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rules) != len(b.Rules) {
		t.Fatalf("rule counts differ: %d vs %d", len(a.Rules), len(b.Rules))
	}
	for i := range a.Rules {
		if a.Rules[i].Key() != b.Rules[i].Key() {
			t.Fatalf("rule %d differs: %s vs %s", i, a.Rules[i], b.Rules[i])
		}
	}
}

// TestImageJSONThroughPipeline: images survive a disk round trip and
// produce identical reports.
func TestImageJSONThroughPipeline(t *testing.T) {
	training, err := corpus.Training("mysql", 15, 29)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sysimage.SaveDir(dir, training); err != nil {
		t.Fatal(err)
	}
	loaded, err := sysimage.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k1, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := fw.Learn(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if len(k1.Rules) != len(k2.Rules) {
		t.Fatalf("rules differ after disk round trip: %d vs %d", len(k1.Rules), len(k2.Rules))
	}
}
