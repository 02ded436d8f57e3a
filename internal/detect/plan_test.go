package detect

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/rules"
	"repro/internal/sysimage"
)

// randomName draws an attribute-like name: app prefix, a few path
// segments over a small alphabet so edit-distance neighbours are common.
func randomName(rng *rand.Rand) string {
	const alphabet = "abcde_"
	apps := []string{"mysql", "apache", "php"}
	n := 3 + rng.Intn(8)
	b := make([]byte, 0, n+8)
	b = append(b, apps[rng.Intn(len(apps))]...)
	b = append(b, ':')
	for i := 0; i < n; i++ {
		if i > 0 && i%4 == 0 {
			b = append(b, '/')
			continue
		}
		b = append(b, alphabet[rng.Intn(len(alphabet))])
	}
	return string(b)
}

// TestPlanNearestMatchesBruteForce is the pruned misspelling index's
// property test: against random training vocabularies and random probes
// (including near-misses of real names), Plan.nearest must return exactly
// what the legacy declaration-order scan returns.
func TestPlanNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		d := dataset.New()
		for i := 0; i < 60; i++ {
			d.DeclareAttr(randomName(rng), conftypes.TypeString, rng.Intn(4) == 0)
		}
		dt := New(d, nil)
		p := dt.Compile()
		s := p.pool.Get().(*scratch)
		attrs := d.Attributes()
		for probe := 0; probe < 80; probe++ {
			var name string
			if probe%2 == 0 {
				name = randomName(rng)
			} else {
				// Mutate a real name so suggestions actually fire.
				base := []byte(attrs[rng.Intn(len(attrs))].Name)
				pos := rng.Intn(len(base))
				switch rng.Intn(3) {
				case 0:
					base[pos] = "abcde_"[rng.Intn(6)]
				case 1:
					base = append(base[:pos], base[pos:]...)
					base[pos] = 'x'
				case 2:
					base = append(base[:pos], base[min(pos+1, len(base)):]...)
				}
				name = string(base)
			}
			want := dt.nearestTrainingAttr(name)
			got := p.nearest(s, name)
			if want != got {
				t.Fatalf("trial %d: nearest(%q) = %q, legacy %q", trial, name, got, want)
			}
		}
		s.release()
	}
}

// TestCharSigBoundsEditDistance verifies the pruning invariant the name
// index relies on: the signature popcount never exceeds the true edit
// distance, so signature-based skips are always sound.
func TestCharSigBoundsEditDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a, b := randomName(rng), randomName(rng)
		d := editDistance(a, b, 1<<30)
		sa, sb := charSig(a), charSig(b)
		if lb := bits.OnesCount64(sa &^ sb); lb > d {
			t.Fatalf("sig lower bound %d > distance %d for %q vs %q", lb, d, a, b)
		}
		if lb := bits.OnesCount64(sb &^ sa); lb > d {
			t.Fatalf("sig lower bound %d > distance %d for %q vs %q", lb, d, b, a)
		}
	}
}

// TestEditDistanceIntoMatchesAlloc pins the buffer-reusing DP against the
// allocating wrapper across random pairs and bounds.
func TestEditDistanceIntoMatchesAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := &scratch{}
	for i := 0; i < 5000; i++ {
		a, b := randomName(rng), randomName(rng)
		bound := 1 + rng.Intn(6)
		if got, want := s.editDistance(a, b, bound), editDistance(a, b, bound); got != want {
			t.Fatalf("editDistance(%q, %q, %d) = %d via scratch, %d via alloc", a, b, bound, got, want)
		}
	}
}

// TestPlanRulesDropMissingTemplates pins compile-time rule resolution: a
// rule naming an uninstalled template is dropped (the legacy
// checkCorrelations skip), while rules with installed templates compile.
func TestPlanRulesDropMissingTemplates(t *testing.T) {
	d := dataset.New()
	d.DeclareAttr("mysql:a", conftypes.TypeString, false)
	dt := New(d, nil)
	dt.Rules = []*rules.Rule{
		{Template: "no-such-template", AttrA: "mysql:a", AttrB: "mysql:a"},
		{Template: dt.Templates[0].ID, AttrA: "mysql:a", AttrB: "mysql:a"},
	}
	p := dt.Compile()
	if len(p.rules) != 1 || p.rules[0].tpl != dt.Templates[0] {
		t.Fatalf("compiled %d rules; want exactly the one with an installed template", len(p.rules))
	}
}

// TestScratchArenaReuse pins the arena rewind: repeated checks through
// one scratch must not leak previously-scanned cell values into later
// reports (covered end to end by the reused-scratch equivalence test,
// verified here at the unit level).
func TestScratchArenaReuse(t *testing.T) {
	p := &Plan{}
	p.pool.New = func() any { return newScratch(p) }
	s := p.pool.Get().(*scratch)
	vals := func(name string) []string { return s.cells[s.resolve(name)].vals }
	for round := 0; round < 3; round++ {
		for i := 0; i < 700; i++ { // crosses the initial arena capacity
			s.Add(fmt.Sprintf("attr-%d", i), fmt.Sprintf("v%d-%d", round, i))
		}
		for i := 0; i < 700; i++ {
			vs := vals(fmt.Sprintf("attr-%d", i))
			if len(vs) != 1 || vs[0] != fmt.Sprintf("v%d-%d", round, i) {
				t.Fatalf("round %d attr-%d: cells = %v", round, i, vs)
			}
		}
		// Multi-instance attributes must keep append order.
		s.Add("multi", "one")
		s.Add("multi", "two")
		s.Add("multi", "three")
		if got := vals("multi"); len(got) != 3 || got[0] != "one" || got[2] != "three" {
			t.Fatalf("round %d multi: %v", round, got)
		}
		s.release()
		s = p.pool.Get().(*scratch)
		for _, name := range []string{"attr-0", "attr-699", "multi"} {
			if vs := vals(name); len(vs) != 0 {
				t.Fatalf("round %d: %s kept %v after release", round, name, vs)
			}
		}
	}
}

// TestScratchResolveCache pins the last-name cache: a name resolved by
// InternName, then a different name, then the first again must each land
// in their own slot, whether the plan knows the name or not.
func TestScratchResolveCache(t *testing.T) {
	d := dataset.New()
	d.DeclareAttr("mysql:known", conftypes.TypeString, false)
	p := New(d, nil).Compile()
	s := p.pool.Get().(*scratch)
	defer s.release()
	known := s.InternName([]byte("mysql:known"))
	s.Add(known, "k1")
	fresh := s.InternName([]byte("mysql:fresh"))
	s.Add(fresh, "f1")
	s.Add(known, "k2")
	s.Add("mysql:fresh", "f2")
	if got := s.cells[s.resolve("mysql:known")].vals; len(got) != 2 || got[0] != "k1" || got[1] != "k2" {
		t.Fatalf("known cell = %v", got)
	}
	if got := s.cells[s.resolve("mysql:fresh")].vals; len(got) != 2 || got[0] != "f1" || got[1] != "f2" {
		t.Fatalf("fresh cell = %v", got)
	}
	s.InternName([]byte("mysql:fresh"))
	if len(s.extraNames) != 1 {
		t.Fatalf("extra names = %q; want the one target-only name, interned once", s.extraNames)
	}
}

// tiedImage configures six entries, all set to v.
func tiedImage(id, v string) *sysimage.Image {
	im := sysimage.New(id)
	lines := []string{"[mysqld]"}
	for _, k := range []string{"k5", "k2", "k4", "k1", "k3", "k6"} {
		lines = append(lines, k+" = "+v)
	}
	im.SetConfig("mysql", "/etc/my.cnf", strings.Join(lines, "\n"))
	return im
}

// TestSuspiciousLimitTiesDeterministic pins truncation at
// SuspiciousValueLimit under ties: six entries every training system
// agreed on get unseen values of equal score, and with limit 1 the legacy
// detector and the plan must keep the same warning — the lowest
// attribute — on every run, whatever order the cells are visited in.
func TestSuspiciousLimitTiesDeterministic(t *testing.T) {
	var images []*sysimage.Image
	for i := 0; i < 12; i++ {
		images = append(images, tiedImage(fmt.Sprintf("t%02d", i), "agreed"))
	}
	training, err := assemble.New().AssembleTraining(images)
	if err != nil {
		t.Fatal(err)
	}
	dt := New(training, nil)
	dt.SuspiciousValueLimit = 1
	plan := dt.Compile()
	target := tiedImage("target", "unseen")
	for run := 0; run < 50; run++ {
		legacy, err := dt.Check(target)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Check(target)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, got) {
			t.Fatalf("run %d: plan and legacy reports differ\nlegacy: %+v\nplan:   %+v", run, legacy.Warnings, got.Warnings)
		}
		var kept []string
		for _, w := range legacy.Warnings {
			if w.Kind == KindSuspicious {
				kept = append(kept, w.Attr)
			}
		}
		if len(kept) != 1 || kept[0] != "mysql:mysqld/k1" {
			t.Fatalf("run %d: kept suspicious warnings %q; want only the lowest tied attribute", run, kept)
		}
	}
}
