package eval

import (
	"strings"
	"testing"
)

const testSeed = 1

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The study catalog is asserted in detail in internal/study; here we
	// only check the rendering includes the headline numbers.
	out := RenderTable1()
	for _, want := range []string{"Apache", "94", "29", "42", "113", "31%", "51%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !(r.Original < r.Augmented && r.Augmented < r.Binomial) {
			t.Errorf("%s: attribute growth violated: %d / %d / %d", r.App, r.Original, r.Augmented, r.Binomial)
		}
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "Original") || !strings.Contains(out, "Binomial") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(testSeed, nil, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	perApp := map[string][]Table3Row{}
	for _, r := range rows {
		perApp[r.App] = append(perApp[r.App], r)
	}
	for app, rs := range perApp {
		if len(rs) != len(Table3Fractions) {
			t.Fatalf("%s: %d sweep points", app, len(rs))
		}
		// Finding 3: growth is monotone until the budget blows, and the
		// full attribute set always exceeds the budget (the OOM row).
		last := rs[len(rs)-1]
		if !last.OOM {
			t.Errorf("%s: full attribute set should exceed the budget, got %d sets", app, last.FreqSets)
		}
		prev := -1
		for _, r := range rs {
			if r.OOM {
				break
			}
			if r.FreqSets < prev {
				t.Errorf("%s: frequent sets shrank: %v", app, rs)
			}
			prev = r.FreqSets
		}
	}
	out := RenderTable3(rows)
	if !strings.Contains(out, "OOM") {
		t.Fatalf("render should mention OOM:\n%s", out)
	}
}

func TestTable8Shape(t *testing.T) {
	rows, err := Table8(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Total != InjectionsPerApp {
			t.Errorf("%s: total = %d", r.App, r.Total)
		}
		// The paper's ordering: Baseline <= Baseline+Env <= EnCore, with
		// EnCore near-perfect and clearly dominant.
		if !(r.Baseline <= r.BaselineEnv && r.BaselineEnv <= r.EnCore) {
			t.Errorf("%s: ordering violated: %d / %d / %d", r.App, r.Baseline, r.BaselineEnv, r.EnCore)
		}
		if r.EnCore < r.Total-2 {
			t.Errorf("%s: EnCore detected only %d of %d", r.App, r.EnCore, r.Total)
		}
		if r.Baseline > 0 && float64(r.EnCore)/float64(r.Baseline) < 1.6 {
			t.Errorf("%s: improvement factor %.2f below the paper's 1.6x floor",
				r.App, float64(r.EnCore)/float64(r.Baseline))
		}
	}
	out := RenderTable8(rows)
	if !strings.Contains(out, "EnCore") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTable9Shape(t *testing.T) {
	rows, err := Table9(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	detected := 0
	for _, r := range rows {
		if r.Case.ExpectMiss {
			if r.Detected {
				t.Errorf("case %d should be missed (no hardware info in training), got rank %d", r.Case.ID, r.Rank)
			}
			continue
		}
		if !r.Detected {
			t.Errorf("case %d (%s) not detected", r.Case.ID, r.Case.Problem)
			continue
		}
		detected++
		if r.Rank > 3 {
			t.Errorf("case %d ranked %d (want top 3)", r.Case.ID, r.Rank)
		}
	}
	if detected != 9 {
		t.Errorf("detected %d of 9 detectable cases", detected)
	}
	out := RenderTable9(rows)
	if !strings.Contains(out, "AppArmor") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTable10Shape(t *testing.T) {
	rows, err := Table10(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var ec2, pc Table10Row
	for _, r := range rows {
		if r.Source == "EC2" {
			ec2 = r
		} else {
			pc = r
		}
	}
	// The planted mixes are 3/10/24 (EC2) and 10/3/11 (private cloud);
	// detection should recover most of each category and preserve the
	// skew the paper reports.
	if ec2.ValueCompare <= ec2.FilePath {
		t.Errorf("EC2 skew lost: %+v", ec2)
	}
	if pc.FilePath <= pc.Permission {
		t.Errorf("private-cloud skew lost: %+v", pc)
	}
	if ec2.Total < 30 || pc.Total < 18 {
		t.Errorf("detection recall too low: EC2 %d/37, PC %d/24", ec2.Total, pc.Total)
	}
	if ec2.Images == 0 || pc.Images == 0 {
		t.Error("image counts missing")
	}
	out := RenderTable10(rows)
	if !strings.Contains(out, "PrivateCloud") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTable11Shape(t *testing.T) {
	rows, err := Table11(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Entries == 0 || r.NonTrivial == 0 {
			t.Errorf("%s: empty row %+v", r.App, r)
		}
		if r.NonTrivial > r.Entries {
			t.Errorf("%s: non-trivial exceeds entries: %+v", r.App, r)
		}
		// Inference errors exist (the paper reports them) but stay a small
		// fraction.
		if r.FalseTypes+r.Undetected > r.Entries/3 {
			t.Errorf("%s: too many inference errors: %+v", r.App, r)
		}
	}
	out := RenderTable11(rows)
	if !strings.Contains(out, "FalseTypes") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTable12And13Shape(t *testing.T) {
	t12, err := Table12(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t12 {
		if r.DetectedRules == 0 {
			t.Errorf("%s: no rules", r.App)
		}
		if r.FalsePositives >= r.DetectedRules {
			t.Errorf("%s: more FPs than true rules: %+v", r.App, r)
		}
	}
	t13, err := Table13(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t13 {
		if r.Original == 0 {
			t.Errorf("%s: no unfiltered rules", r.App)
			continue
		}
		// The entropy filter removes far more false rules than true ones.
		if r.FPReduced <= r.FNIntroduced*10 {
			t.Errorf("%s: entropy filter trade-off wrong: %+v", r.App, r)
		}
	}
	if !strings.Contains(RenderTable12(t12), "False Positives") {
		t.Fatal("table 12 render")
	}
	if !strings.Contains(RenderTable13(t13), "FN Introduced") {
		t.Fatal("table 13 render")
	}
}

func TestTrainUsesPaperSizes(t *testing.T) {
	if TrainingSize("apache") != 127 || TrainingSize("mysql") != 187 || TrainingSize("php") != 123 {
		t.Fatal("training sizes diverge from the paper")
	}
	if TrainingSize("other") == 0 {
		t.Fatal("unknown app should get a default size")
	}
	tr, err := Train("php", 10, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Images) != 10 || tr.Plan() == nil {
		t.Fatal("Train(10) wrong")
	}
}

func TestAttrRefers(t *testing.T) {
	if !attrRefers("a.owner", "a") || !attrRefers("a/arg2", "a") || !attrRefers("a", "a") {
		t.Fatal("positive cases failed")
	}
	if attrRefers("ab", "a") || attrRefers("b", "a") {
		t.Fatal("negative cases failed")
	}
}
