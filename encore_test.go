package encore

import (
	"strings"
	"testing"

	"repro/internal/corpus"
)

// TestEndToEndMySQL exercises the full pipeline on a realistic corpus: learn
// from clean MySQL images, then detect a planted ownership violation.
func TestEndToEndMySQL(t *testing.T) {
	images, err := corpus.Training("mysql", 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(images)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Rules) == 0 {
		t.Fatal("no rules learned from 60 clean images")
	}
	// The headline rule must be among them.
	found := false
	for _, r := range k.Rules {
		if r.Template == "owner" && r.AttrA == "mysql:mysqld/datadir" && r.AttrB == "mysql:mysqld/user" {
			found = true
		}
	}
	if !found {
		for _, r := range k.Rules {
			t.Logf("rule: %s", r)
		}
		t.Fatal("datadir => user ownership rule not learned")
	}

	target := corpus.RealWorldCases()[2].Build() // case 3: wrong datadir owner
	report, err := fw.CompilePlan(k).Check(target)
	if err != nil {
		t.Fatal(err)
	}
	rank := report.RankOf(func(w *Warning) bool {
		return w.Kind == KindCorrelation && strings.Contains(w.Attr, "datadir")
	})
	if rank == 0 || rank > 3 {
		for _, w := range report.Warnings {
			t.Logf("%d %s %s", w.Rank, w.Kind, w.Message)
		}
		t.Fatalf("ownership violation rank = %d", rank)
	}
}

func TestLearnEmptyTrainingSet(t *testing.T) {
	if _, err := New().Learn(nil); err == nil {
		t.Fatal("empty training set should error")
	}
}

func TestRuleSetExport(t *testing.T) {
	images, err := corpus.Training("php", 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	fw := New()
	k, err := fw.Learn(images)
	if err != nil {
		t.Fatal(err)
	}
	rs := k.RuleSet()
	data, err := rs.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "upload_max_filesize") {
		t.Log(string(data)[:min(len(data), 500)])
		t.Fatal("serialized rules should mention the PHP size chain")
	}
	if ty, ok := k.TypeOf("php:PHP/extension_dir"); !ok || string(ty) != "FilePath" {
		t.Fatalf("TypeOf = %v %v", ty, ok)
	}
	if _, ok := k.TypeOf("missing"); ok {
		t.Fatal("missing attr should report !ok")
	}
}

func TestLoadCustomization(t *testing.T) {
	fw := New()
	src := `
$$TypeDeclaration
LogDir
$$TypeInference
LogDir (value): { matches(value, '^/var/log(/.*)?$') }
$$TypeValidation
LogDir (value): { isDir(value) || isFile(value) }
$$Template
[A:LogDir] => [B:UserName]
`
	// "=>" between LogDir and UserName is not registered; expect an error
	// that names the operator.
	err := fw.LoadCustomization(src)
	if err == nil || !strings.Contains(err.Error(), "operator") {
		t.Fatalf("expected operator error, got %v", err)
	}
	// Without the template the customization applies cleanly.
	src = strings.Split(src, "$$Template")[0]
	if err := fw.LoadCustomization(src); err != nil {
		t.Fatal(err)
	}
	if len(fw.Templates()) == 0 {
		t.Fatal("templates missing")
	}
}

func TestLoadCustomizationFileMissing(t *testing.T) {
	if err := New().LoadCustomizationFile("/no/such/file"); err == nil {
		t.Fatal("missing file should error")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
