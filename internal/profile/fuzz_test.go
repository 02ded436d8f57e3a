package profile

import (
	"bytes"
	"testing"

	"repro/internal/assemble"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/planio"
	"repro/internal/rules"
)

// FuzzProfile feeds untrusted bytes down the profile upload path:
// Unmarshal, Spec, NewPlanFromSpec and Check of a fixed corpus image. Every
// input must end in an error or a report, never a panic, and the plan of
// every accepted profile must round-trip through the binary plan format
// to identical bytes.
func FuzzProfile(f *testing.F) {
	images, err := corpus.Training("mysql", 8, 7)
	if err != nil {
		f.Fatal(err)
	}
	asm := assemble.New()
	ds, err := asm.AssembleTraining(images)
	if err != nil {
		f.Fatal(err)
	}
	learned, err := Build(ds, rules.NewEngine().Infer(ds, corpus.ByID(images))).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(learned)
	f.Add([]byte(`{"samples":1,"attrs":[],"rules":[null]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"samples":3,"attrs":[` +
		`{"name":"mysql:mysqld/user","type":"UserName","present":3,"histogram":{"mysql":3}},` +
		`{"name":"mysql:mysqld/user","type":"FilePath","augmented":true,"present":1,"histogram":{"/x":1}}],"rules":[]}`))
	f.Add([]byte(`{"samples":-5,"attrs":[{"name":"mysql:mysqld/datadir","type":"FilePath","present":-1}],"rules":[]}`))
	f.Add([]byte(`{"samples":4,"attrs":[{"name":"mysql:mysqld/datadir","type":"FilePath","present":4,"histogram":{"/var/lib/mysql":4}}],"rules":[` +
		`{"template":"no-such-template","attrA":"mysql:mysqld/datadir","attrB":"mysql:mysqld/user"},` +
		`{"template":"owner","spec":"[A:FilePath] => [B:UserName]","attrA":"mysql:mysqld/datadir","attrB":"mysql:no-such-entry","support":4,"valid":4,"confidence":1}]}`))
	target := corpus.RealWorldCases()[2].Build()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		plan := detect.NewPlanFromSpec(p.Spec(), asm, nil)
		// Check must not panic; an error is as good an answer as a report.
		_, _ = plan.Check(target)
		enc := planio.Encode(plan.Spec())
		spec, err := planio.Decode(enc)
		if err != nil {
			t.Fatalf("the plan of an accepted profile does not decode: %v", err)
		}
		if again := planio.Encode(detect.NewPlanFromSpec(spec, asm, nil).Spec()); !bytes.Equal(again, enc) {
			t.Fatalf("the plan of an accepted profile does not round-trip: %d vs %d bytes", len(again), len(enc))
		}
	})
}
