package profile

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/assemble"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/rules"
)

func trainedFixture(t *testing.T) (*Profile, *detect.Detector) {
	t.Helper()
	images, err := corpus.Training("mysql", 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := assemble.New().AssembleTraining(images)
	if err != nil {
		t.Fatal(err)
	}
	learned := rules.NewEngine().Infer(ds, corpus.ByID(images))
	if len(learned) == 0 {
		t.Fatal("no rules learned")
	}
	return Build(ds, learned), detect.New(ds, learned)
}

func TestBuildCapturesKnowledge(t *testing.T) {
	p, _ := trainedFixture(t)
	if p.Samples != 40 {
		t.Fatalf("samples = %d", p.Samples)
	}
	if len(p.Rules) == 0 || len(p.Attrs) == 0 {
		t.Fatal("profile empty")
	}
	var datadir *AttrProfile
	for i := range p.Attrs {
		if p.Attrs[i].Name == "mysql:mysqld/datadir" {
			datadir = &p.Attrs[i]
		}
	}
	if datadir == nil {
		t.Fatal("datadir attr missing")
	}
	if datadir.Type != "FilePath" || datadir.Present != 40 {
		t.Fatalf("datadir profile = %+v", datadir)
	}
	total := 0
	for _, c := range datadir.Histogram {
		total += c
	}
	if total != 40 {
		t.Fatalf("histogram mass = %d", total)
	}
}

func TestRoundTrip(t *testing.T) {
	p, _ := trainedFixture(t)
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Samples != p.Samples || len(back.Attrs) != len(p.Attrs) || len(back.Rules) != len(p.Rules) {
		t.Fatal("round trip lost data")
	}
	if _, err := Unmarshal([]byte("{bad")); err == nil {
		t.Fatal("bad JSON should error")
	}
}

// TestProfileDetectorMatchesLiveDetector is the separation guarantee: a
// plan built from the serialized profile's spec produces the same report
// as the legacy detector holding the live training dataset.
func TestProfileDetectorMatchesLiveDetector(t *testing.T) {
	p, live := trainedFixture(t)
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	fromProfile := detect.NewPlanFromSpec(back.Spec(), nil, nil)

	target := corpus.RealWorldCases()[2].Build() // datadir wrong owner
	liveReport, err := live.Check(target)
	if err != nil {
		t.Fatal(err)
	}
	profReport, err := fromProfile.Check(target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveReport, profReport) {
		t.Fatalf("reports differ\nlive:    %v\nprofile: %v", messages(liveReport), messages(profReport))
	}
}

// TestSpecMatchesDatasetSpec pins that a profile carries exactly a plan:
// the spec of a serialized and re-read profile equals the spec
// detect.SpecFromDataset derives from the training set it was built from.
func TestSpecMatchesDatasetSpec(t *testing.T) {
	p, live := trainedFixture(t)
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Spec(), detect.SpecFromDataset(live.Training, live.Rules); !reflect.DeepEqual(got, want) {
		t.Fatalf("profile spec differs from the dataset spec: %d/%d attrs, %d/%d rules",
			len(got.Attrs), len(want.Attrs), len(got.Rules), len(want.Rules))
	}
}

// TestUnmarshalRejectsInvalid: what no learned profile holds and no plan
// can carry is a decode error, not a later panic.
func TestUnmarshalRejectsInvalid(t *testing.T) {
	for _, c := range []struct{ doc, want string }{
		{`{"samples":1,"attrs":[],"rules":[null]}`, "rule 0 is null"},
		{`{"samples":1,"attrs":[],"rules":[{"template":"owner"},null]}`, "rule 1 is null"},
		{`{"samples":-1,"attrs":[],"rules":[]}`, "samples -1 out of range"},
		{`{"samples":1,"attrs":[{"name":"a:x","histogram":{"v":-2}}]}`, `attribute "a:x" has a histogram count out of range`},
		{`{"samples":1,"rules":[{"template":"owner","support":-1}]}`, "rule 0 (owner||) has a support or valid count out of range"},
		{`{"samples":4611686018427387904}`, "out of range"},
	} {
		_, err := Unmarshal([]byte(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Unmarshal(%s) = %v, want an error containing %q", c.doc, err, c.want)
		}
	}
}

func messages(r *detect.Report) []string {
	out := make([]string, len(r.Warnings))
	for i, w := range r.Warnings {
		out[i] = string(w.Kind) + ":" + w.Attr
	}
	return out
}

func TestProfileJSONShape(t *testing.T) {
	p, _ := trainedFixture(t)
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"samples": 40`, `"attrs"`, `"rules"`, `"histogram"`} {
		if !strings.Contains(s, want) {
			t.Errorf("serialized profile missing %q", want)
		}
	}
}
