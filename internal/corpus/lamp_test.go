package corpus

import (
	"testing"

	"repro/internal/assemble"
	"repro/internal/confparse"
	"repro/internal/rules"
	"repro/internal/templates"
)

func TestLAMPTrainingCoherent(t *testing.T) {
	images, err := LAMPTraining(15, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != 15 {
		t.Fatalf("images = %d", len(images))
	}
	for _, im := range images {
		for _, app := range []string{"apache", "mysql", "php"} {
			cf := im.ConfigFor(app)
			if cf == nil {
				t.Fatalf("%s: missing %s config", im.ID, app)
			}
			if _, err := confparse.Parse(app, cf.Path, cf.Content); err != nil {
				t.Fatalf("%s/%s: %v", im.ID, app, err)
			}
		}
		// Cross-component coherence: PHP points at MySQL's real socket.
		phpSock, ok1 := findConfValue(im, "php", "mysqli.default_socket")
		mySock, ok2 := findConfValue(im, "mysql", "socket")
		if !ok1 || !ok2 || phpSock != mySock {
			t.Fatalf("%s: socket mismatch %q vs %q", im.ID, phpSock, mySock)
		}
		// The session store belongs to the Apache account.
		user, _ := findConfValue(im, "apache", "User")
		sess, _ := findConfValue(im, "php", "session.save_path")
		if fm := im.Lookup(sess); fm == nil || fm.Owner != user {
			t.Fatalf("%s: session dir not owned by %s", im.ID, user)
		}
	}
}

func TestLAMPSharesOneOS(t *testing.T) {
	images, err := LAMPTraining(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range images {
		if im.OS.DistName == "" {
			t.Fatal("OS missing")
		}
	}
}

func TestLAMPCrossComponentRulesLearned(t *testing.T) {
	images, err := LAMPTraining(40, 4)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := assemble.New().AssembleTraining(images)
	if err != nil {
		t.Fatal(err)
	}
	learned := rules.NewEngine().Infer(ds, ByID(images))
	cross := 0
	for _, r := range learned {
		if appPrefix(r.AttrA) != appPrefix(r.AttrB) && appPrefix(r.AttrA) != "" && appPrefix(r.AttrB) != "" {
			cross++
		}
	}
	if cross == 0 {
		for _, r := range learned {
			t.Logf("rule: %s", r)
		}
		t.Fatal("no cross-component rules learned from the LAMP corpus")
	}
	// The headline cross rule: the web tier's socket equals the DB's.
	found := false
	for _, r := range learned {
		for _, tr := range LAMPTrueRules() {
			if tr.Matches(r.Template, r.AttrA, r.AttrB) {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no ground-truth cross-component rule among the learned rules")
	}
}

func appPrefix(attr string) string {
	for i := 0; i < len(attr); i++ {
		if attr[i] == ':' {
			return attr[:i]
		}
	}
	return ""
}

func TestLAMPGroundTruthHolds(t *testing.T) {
	images, err := LAMPTraining(25, 6)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := assemble.New().AssembleTraining(images)
	if err != nil {
		t.Fatal(err)
	}
	byID := ByID(images)
	for _, tr := range LAMPTrueRules() {
		tpl := templates.ByID(tr.Template)
		if tpl == nil {
			t.Fatalf("unknown template %s", tr.Template)
		}
		present, holds := 0, 0
		for _, row := range ds.Rows() {
			va, vb := row.Instances(tr.AttrA), row.Instances(tr.AttrB)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ok, app := tpl.Validate(va, vb, &templates.Ctx{Row: row, Image: byID[row.SystemID]})
			if !app {
				continue
			}
			present++
			if ok {
				holds++
			}
		}
		if present == 0 {
			t.Errorf("%s(%s,%s) never applicable", tr.Template, tr.AttrA, tr.AttrB)
			continue
		}
		if holds != present {
			t.Errorf("%s(%s,%s) holds on %d/%d", tr.Template, tr.AttrA, tr.AttrB, holds, present)
		}
	}
}

func TestBreakLAMPSocketDetectable(t *testing.T) {
	images, err := LAMPTraining(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	broken := BreakLAMPSocket(images[0])
	phpSock, _ := findConfValue(broken, "php", "mysqli.default_socket")
	mySock, _ := findConfValue(broken, "mysql", "socket")
	if phpSock == mySock {
		t.Fatal("socket not broken")
	}
	// The original image is untouched.
	origSock, _ := findConfValue(images[0], "php", "mysqli.default_socket")
	if origSock == phpSock {
		t.Fatal("original image mutated")
	}
}

func TestBreakLAMPSessionOwner(t *testing.T) {
	images, err := LAMPTraining(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	broken := BreakLAMPSessionOwner(images[0])
	dir, _ := findConfValue(broken, "php", "session.save_path")
	if fm := broken.Lookup(dir); fm == nil || fm.Owner != "root" {
		t.Fatal("session dir not chowned")
	}
	// Original untouched.
	if fm := images[0].Lookup(dir); fm == nil || fm.Owner == "root" {
		t.Fatal("original image mutated")
	}
}

func TestLAMPEntryTypesMerged(t *testing.T) {
	m := LAMPEntryTypes()
	for _, key := range []string{"apache:User", "mysql:mysqld/socket", "php:PHP/mysqli.default_socket"} {
		if _, ok := m[key]; !ok {
			t.Errorf("merged types missing %s", key)
		}
	}
}
