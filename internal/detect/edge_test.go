package detect

import (
	"strings"
	"testing"

	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/rules"
	"repro/internal/sysimage"
)

// tinyTraining builds a minimal dataset with one typed attribute.
func tinyTraining() *dataset.Dataset {
	d := dataset.New()
	d.DeclareAttr("mysql:mysqld/user", conftypes.TypeUserName, false)
	for _, id := range []string{"a", "b", "c"} {
		r := d.NewRow(id)
		d.Add(r, "mysql:mysqld/user", "mysql")
	}
	return d
}

func tinyTarget() *sysimage.Image {
	im := sysimage.New("t")
	im.Users["mysql"] = &sysimage.User{Name: "mysql", UID: 27, GID: 27}
	im.Groups["mysql"] = &sysimage.Group{Name: "mysql", GID: 27}
	im.SetConfig("mysql", "/etc/my.cnf", "[mysqld]\nuser = mysql\n")
	return im
}

func TestUnknownRuleTemplateIsSkipped(t *testing.T) {
	d := tinyTraining()
	dt := New(d, []*rules.Rule{{
		Template: "no-such-template",
		AttrA:    "mysql:mysqld/user",
		AttrB:    "mysql:mysqld/user",
	}})
	rep, err := dt.Check(tinyTarget())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Warnings {
		if w.Kind == KindCorrelation {
			t.Fatalf("unknown template produced a warning: %s", w.Message)
		}
	}
}

func TestEmptyRuleSetStillChecksTypesAndValues(t *testing.T) {
	d := tinyTraining()
	dt := New(d, nil)
	target := tinyTarget()
	target.Users["other"] = &sysimage.User{Name: "other", UID: 5, GID: 5}
	target.SetConfig("mysql", "/etc/my.cnf", "[mysqld]\nuser = other\n")
	rep, err := dt.Check(target)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RankOf(func(w *Warning) bool { return w.Kind == KindSuspicious }) == 0 {
		t.Fatal("suspicious-value check should run without rules")
	}
}

func TestTargetParseErrorSurfaces(t *testing.T) {
	dt := New(tinyTraining(), nil)
	bad := tinyTarget()
	bad.SetConfig("mysql", "/etc/my.cnf", "[broken\n")
	if _, err := dt.Check(bad); err == nil {
		t.Fatal("parse error should surface")
	}
}

// TestSpecFromDataset pins the spec a live training set compiles from:
// sample count, Has from presence, the histogram sorted by value, one
// type declaration per attribute and the rules as given.
func TestSpecFromDataset(t *testing.T) {
	d := tinyTraining()
	spec := SpecFromDataset(d, nil)
	if spec.Samples != 3 || spec.SuspLimit != 0 || spec.Rules != nil {
		t.Fatalf("spec header = %d/%d/%v", spec.Samples, spec.SuspLimit, spec.Rules)
	}
	if len(spec.Attrs) != 1 {
		t.Fatalf("attrs = %+v", spec.Attrs)
	}
	a := spec.Attrs[0]
	if a.Name != "mysql:mysqld/user" || a.Augmented || !a.Has || a.Sig != charSig(a.Name) {
		t.Fatalf("attr = %+v", a)
	}
	if len(a.Hist) != 1 || a.Hist[0] != (PlanSpecHistEntry{Value: "mysql", Count: 3}) {
		t.Fatalf("histogram = %+v", a.Hist)
	}
	if len(spec.Types) != 1 || spec.Types[0] != (PlanSpecType{Name: a.Name, Type: a.Type}) {
		t.Fatalf("types = %+v", spec.Types)
	}
}

func TestGlobValuesSkipTypeCheck(t *testing.T) {
	d := dataset.New()
	d.DeclareAttr("mysql:mysqld/log-bin", conftypes.TypeFilePath, false)
	r := d.NewRow("a")
	d.Add(r, "mysql:mysqld/log-bin", "/var/log/bin-a")
	dt := New(d, nil)
	target := tinyTarget()
	target.SetConfig("mysql", "/etc/my.cnf", "[mysqld]\nlog-bin = /var/log/mysql-bin.*\n")
	rep, err := dt.Check(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Warnings {
		if w.Kind == KindType && strings.Contains(w.Attr, "log-bin") {
			t.Fatalf("glob value should skip type checking: %s", w.Message)
		}
	}
}

func TestEnvAttrsNeverNameViolations(t *testing.T) {
	// Table 5b env attrs (no app prefix) on a target never trained with
	// them must not be reported as misspelled entries.
	d := tinyTraining()
	dt := New(d, nil)
	target := tinyTarget()
	target.OS.DistName = "ubuntu"
	rep, err := dt.Check(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Warnings {
		if w.Kind == KindName && !strings.Contains(w.Attr, ":") {
			t.Fatalf("env attr flagged as name violation: %s", w.Message)
		}
	}
}
