package templates

import (
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/sysimage"
)

// TestValidatorsNeverPanic feeds arbitrary instance slices (including nil,
// empty strings, and garbage) to every predefined validator, with and
// without an environment. Validators must classify or abstain, never
// panic.
func TestValidatorsNeverPanic(t *testing.T) {
	img := sysimage.New("fz")
	img.Users["u"] = &sysimage.User{Name: "u", UID: 1, GID: 1}
	img.Groups["g"] = &sysimage.Group{Name: "g", GID: 1}
	img.AddDir("/d", "u", "g", 0o755)
	ctxs := []*Ctx{
		{Row: &dataset.Row{}, Image: img},
		{Row: &dataset.Row{}},
	}
	f := func(a, b []string) bool {
		for _, tpl := range Predefined() {
			for _, ctx := range ctxs {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s panicked on (%q, %q): %v", tpl.ID, a, b, r)
						}
					}()
					_, _ = tpl.Validate(a, b, ctx)
				}()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestValidatorsAbstainWithoutEvidence: every validator reports
// inapplicable for empty instance lists.
func TestValidatorsAbstainWithoutEvidence(t *testing.T) {
	ctx := &Ctx{Row: &dataset.Row{}}
	for _, tpl := range Predefined() {
		if _, app := tpl.Validate(nil, nil, ctx); app {
			t.Errorf("%s claims applicability with no instances", tpl.ID)
		}
		if _, app := tpl.Validate([]string{"x"}, nil, ctx); app {
			t.Errorf("%s claims applicability with one empty side", tpl.ID)
		}
	}
}

// TestValidatorDeterminism: validators are pure functions of their inputs.
func TestValidatorDeterminism(t *testing.T) {
	img := sysimage.New("det")
	img.Users["mysql"] = &sysimage.User{Name: "mysql", UID: 27, GID: 27}
	img.AddDir("/var/lib/mysql", "mysql", "mysql", 0o750)
	ctx := &Ctx{Row: &dataset.Row{}, Image: img}
	inputs := [][2][]string{
		{{"/var/lib/mysql"}, {"mysql"}},
		{{"1M"}, {"2M"}},
		{{"On"}, {"Off"}},
		{{"10.0.0.1"}, {"10.0.0.2"}},
		{{"a", "b"}, {"b", "c"}},
	}
	for _, tpl := range Predefined() {
		for _, in := range inputs {
			h1, a1 := tpl.Validate(in[0], in[1], ctx)
			for i := 0; i < 5; i++ {
				h2, a2 := tpl.Validate(in[0], in[1], ctx)
				if h1 != h2 || a1 != a2 {
					t.Fatalf("%s nondeterministic on %v", tpl.ID, in)
				}
			}
		}
	}
}
