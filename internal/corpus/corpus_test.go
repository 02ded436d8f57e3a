package corpus

import (
	"math/rand"
	"testing"

	"repro/internal/assemble"
	"repro/internal/confparse"
	"repro/internal/sysimage"
	"repro/internal/templates"
)

func TestTrainingDeterministic(t *testing.T) {
	a, err := Training("mysql", 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Training("mysql", 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].ConfigFor("mysql").Content != b[i].ConfigFor("mysql").Content {
			t.Fatalf("image %d differs across runs with same seed", i)
		}
	}
	c, err := Training("mysql", 10, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].ConfigFor("mysql").Content != c[i].ConfigFor("mysql").Content {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should produce different corpora")
	}
}

func TestAllAppsParseAndAreCoherent(t *testing.T) {
	for _, app := range []string{"apache", "mysql", "php", "sshd"} {
		images, err := Training(app, 25, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(images) != 25 {
			t.Fatalf("%s: %d images", app, len(images))
		}
		for _, im := range images {
			cf := im.ConfigFor(app)
			if cf == nil {
				t.Fatalf("%s: image %s has no config", app, im.ID)
			}
			if _, err := confparse.Parse(app, cf.Path, cf.Content); err != nil {
				t.Fatalf("%s: %s: %v", app, im.ID, err)
			}
		}
	}
}

// TestCleanImagesSatisfyGroundTruthRules verifies internal coherence: every
// declared ground-truth correlation holds on (nearly) every clean image.
func TestCleanImagesSatisfyGroundTruthRules(t *testing.T) {
	cases := []struct {
		app   string
		truth []TrueRule
	}{
		{"mysql", MySQLTrueRules()},
		{"apache", ApacheTrueRules()},
		{"php", PHPTrueRules()},
	}
	for _, c := range cases {
		images, err := Training(c.app, 30, 11)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := assemble.New().AssembleTraining(images)
		if err != nil {
			t.Fatal(err)
		}
		byID := ByID(images)
		for _, tr := range c.truth {
			tpl := templates.ByID(tr.Template)
			if tpl == nil {
				t.Fatalf("%s: unknown template %s", c.app, tr.Template)
			}
			present, holds := 0, 0
			for _, row := range ds.Rows() {
				va, vb := row.Instances(tr.AttrA), row.Instances(tr.AttrB)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ctx := &templates.Ctx{Row: row, Image: byID[row.SystemID]}
				ok, app := tpl.Validate(va, vb, ctx)
				if !app {
					continue
				}
				present++
				if ok {
					holds++
				}
			}
			if tr.AttrB == "MemSize" {
				continue // only applies to hardware-bearing populations
			}
			if present == 0 {
				t.Errorf("%s: ground truth %s(%s,%s) never applicable", c.app, tr.Template, tr.AttrA, tr.AttrB)
				continue
			}
			if float64(holds)/float64(present) < 0.95 {
				t.Errorf("%s: ground truth %s(%s,%s) holds on %d/%d images",
					c.app, tr.Template, tr.AttrA, tr.AttrB, holds, present)
			}
		}
	}
}

func TestEC2TargetsGroundTruth(t *testing.T) {
	pop, err := EC2Targets(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Images) != 120 {
		t.Fatalf("images = %d", len(pop.Images))
	}
	counts := map[string]int{}
	for _, l := range pop.Truth {
		counts[l.Category]++
	}
	if counts["FilePath"] != 3 || counts["Permission"] != 10 || counts["ValueCompare"] != 24 {
		t.Fatalf("EC2 category mix = %v, want 3/10/24", counts)
	}
	// Every truth entry names an existing image.
	ids := ByID(pop.Images)
	for _, l := range pop.Truth {
		if ids[l.ImageID] == nil {
			t.Fatalf("truth names unknown image %s", l.ImageID)
		}
	}
}

func TestPrivateCloudTargetsGroundTruth(t *testing.T) {
	pop, err := PrivateCloudTargets(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Images) != 300 {
		t.Fatalf("images = %d", len(pop.Images))
	}
	counts := map[string]int{}
	for _, l := range pop.Truth {
		counts[l.Category]++
	}
	if counts["FilePath"] != 10 || counts["Permission"] != 3 || counts["ValueCompare"] != 11 {
		t.Fatalf("private cloud mix = %v, want 10/3/11", counts)
	}
	// Private-cloud instances are running systems with hardware specs.
	for _, im := range pop.Images {
		if !im.HW.Present {
			t.Fatalf("image %s missing hardware", im.ID)
		}
	}
}

func TestDormantImagesHaveNoHardware(t *testing.T) {
	images, err := Training("mysql", 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range images {
		if im.HW.Present {
			t.Fatalf("dormant image %s has hardware", im.ID)
		}
	}
}

func TestRealWorldCasesComplete(t *testing.T) {
	cases := RealWorldCases()
	if len(cases) != 10 {
		t.Fatalf("cases = %d, want 10", len(cases))
	}
	missCount := 0
	for _, c := range cases {
		img := c.Build()
		if img == nil {
			t.Fatalf("case %d built nil image", c.ID)
		}
		cf := img.ConfigFor(c.App)
		if cf == nil {
			t.Fatalf("case %d image lacks %s config", c.ID, c.App)
		}
		if _, err := confparse.Parse(c.App, cf.Path, cf.Content); err != nil {
			t.Fatalf("case %d config unparsable: %v", c.ID, err)
		}
		if c.ExpectMiss {
			missCount++
		}
		if c.MatchAttr == "" || c.Info == "" || c.Problem == "" {
			t.Fatalf("case %d metadata incomplete: %+v", c.ID, c)
		}
	}
	if missCount != 1 {
		t.Fatalf("exactly one case (paper's #8) should be expected-miss, got %d", missCount)
	}
	// Builds are deterministic.
	a := RealWorldCases()[0].Build()
	b := RealWorldCases()[0].Build()
	if a.ConfigFor("apache").Content != b.ConfigFor("apache").Content {
		t.Fatal("case build not deterministic")
	}
}

func TestCase1RemovesOnlyDocrootSection(t *testing.T) {
	c := RealWorldCases()[0]
	img := c.Build()
	cf := img.ConfigFor("apache")
	f, err := confparse.Parse("apache", cf.Path, cf.Content)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := findConfValue(img, "apache", "DocumentRoot")
	dirs := f.FindKey("Directory")
	if len(dirs) == 0 {
		t.Fatal("all Directory sections removed; the root section must stay")
	}
	for _, d := range dirs {
		if len(d.Values) > 0 && d.Values[0] == doc {
			t.Fatal("docroot Directory section still present")
		}
	}
}

func TestCase3And9OwnershipBroken(t *testing.T) {
	c3 := RealWorldCases()[2]
	img := c3.Build()
	dd, _ := findConfValue(img, "mysql", "datadir")
	user, _ := findConfValue(img, "mysql", "user")
	if img.Files[dd].Owner == user {
		t.Fatal("case 3: datadir ownership not broken")
	}
	c9 := RealWorldCases()[8]
	img9 := c9.Build()
	lf, _ := findConfValue(img9, "mysql", "log-error")
	if img9.Files[lf].Owner != "root" {
		t.Fatal("case 9: log ownership not broken")
	}
}

func TestBuildAppUnknown(t *testing.T) {
	if _, err := BuildApp("nginx", "x", rand.New(rand.NewSource(1)), false); err == nil {
		t.Fatal("unknown app should error")
	}
}

func TestRemoveSectionHelpers(t *testing.T) {
	content := "a 1\n<Directory \"/x\">\n  b 2\n</Directory>\nc 3\n"
	out := removeSection(content, "<Directory \"/x\">")
	if out != "a 1\nc 3\n" {
		t.Fatalf("removeSection = %q", out)
	}
	if removeSection(content, "<Directory \"/y\">") != content {
		t.Fatal("missing header should be a no-op")
	}
	if got := replaceLine("a = 1\nbb = 2\n", "b", "bb = 3"); got != "a = 1\nbb = 2\n" {
		t.Fatalf("replaceLine prefix guard failed: %q", got)
	}
	if got := replaceLine("a = 1\nbb = 2\n", "bb", "bb = 3"); got != "a = 1\nbb = 3\n" {
		t.Fatalf("replaceLine = %q", got)
	}
	if got := removeLine("a 1\nb 2\n", "a"); got != "b 2\n" {
		t.Fatalf("removeLine = %q", got)
	}
}

func TestPickHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	opts := []string{"a", "b", "c"}
	seen := map[string]int{}
	for i := 0; i < 300; i++ {
		seen[Pick(rng, opts)]++
	}
	if len(seen) != 3 {
		t.Fatalf("Pick coverage = %v", seen)
	}
	w := map[string]int{}
	for i := 0; i < 1000; i++ {
		w[PickWeighted(rng, []string{"x", "y"}, []int{9, 1})]++
	}
	if w["x"] < w["y"] {
		t.Fatalf("weights ignored: %v", w)
	}
	tr, fa := 0, 0
	for i := 0; i < 1000; i++ {
		if Chance(rng, 0.2) {
			tr++
		} else {
			fa++
		}
	}
	if tr == 0 || fa == 0 || tr > fa {
		t.Fatalf("Chance(0.2): %d true %d false", tr, fa)
	}
}

func TestBuilderBaseSystem(t *testing.T) {
	b := NewBuilder("x", rand.New(rand.NewSource(1)))
	if !b.Img.UserExists("root") || !b.Img.IsAdmin("root") {
		t.Fatal("root missing")
	}
	if !b.Img.IsDir("/var/log") || !b.Img.IsDir("/tmp") {
		t.Fatal("base dirs missing")
	}
	if !b.Img.PortRegistered(22) || !b.Img.PortRegistered(3306) {
		t.Fatal("base services missing")
	}
	b.AddAccount("svc", 123)
	if !b.Img.UserExists("svc") || !b.Img.GroupExists("svc") {
		t.Fatal("AddAccount incomplete")
	}
}

func TestGroundTruthMapsCoverGeneratedAttrs(t *testing.T) {
	// Every non-augmented attribute the generators emit must have a
	// ground-truth type (Table 11 depends on this).
	for _, app := range []string{"mysql", "apache", "php", "sshd"} {
		images, err := Training(app, 20, 17)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := assemble.New().AssembleTraining(images)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range ds.Attributes() {
			if a.Augmented {
				continue
			}
			if _, ok := GroundTruthType(app, a.Name); !ok {
				t.Errorf("%s: generated attribute %s missing from ground-truth types", app, a.Name)
			}
		}
	}
}

func TestGroundTruthTypeLookup(t *testing.T) {
	if ty, ok := GroundTruthType("mysql", "mysql:mysqld/datadir"); !ok || string(ty) != "FilePath" {
		t.Fatalf("datadir type = %v %v", ty, ok)
	}
	if ty, ok := GroundTruthType("apache", "apache:Directory:/var/www/Options"); !ok || string(ty) != "String" {
		t.Fatalf("scoped Options type = %v %v", ty, ok)
	}
	if ty, ok := GroundTruthType("apache", "apache:Directory://Require/arg2"); !ok || string(ty) != "String" {
		t.Fatalf("scoped Require/arg2 type = %v %v", ty, ok)
	}
	if _, ok := GroundTruthType("apache", "apache:TotallyUnknown"); ok {
		t.Fatal("unknown attribute should not resolve")
	}
	if _, ok := GroundTruthType("nginx", "x"); ok {
		t.Fatal("unknown app should not resolve")
	}
	if rs := GroundTruthRules("mysql"); len(rs) == 0 {
		t.Fatal("mysql ground-truth rules empty")
	}
	if rs := GroundTruthRules("nginx"); rs != nil {
		t.Fatal("unknown app rules should be nil")
	}
	tr := TrueRule{Template: "owner", AttrA: "a", AttrB: "b"}
	if !tr.Matches("owner", "a", "b") || tr.Matches("owner", "a", "c") {
		t.Fatal("TrueRule.Matches wrong")
	}
}

var _ = sysimage.New // keep import if helpers change
