package rules

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/sysimage"
	"repro/internal/templates"
)

// trainingImage builds a MySQL-style image with the datadir/user ownership
// correlation intact and some diversity in paths.
func trainingImage(id, datadir, user string) *sysimage.Image {
	im := sysimage.New(id)
	im.Users["root"] = &sysimage.User{Name: "root", UID: 0, GID: 0, IsAdmin: true}
	im.Users[user] = &sysimage.User{Name: user, UID: 27, GID: 27}
	im.Groups[user] = &sysimage.Group{Name: user, GID: 27}
	im.Services = []sysimage.Service{{Name: "mysql", Port: 3306, Protocol: "tcp"}}
	im.AddDir(datadir, user, user, 0o750)
	im.SetConfig("mysql", "/etc/my.cnf",
		"[mysqld]\ndatadir = "+datadir+"\nuser = "+user+"\nnet_buffer_length = 16K\nmax_allowed_packet = "+packetFor(id)+"\n")
	return im
}

// packetFor varies max_allowed_packet across images so the entropy filter
// keeps it.
func packetFor(id string) string {
	sizes := []string{"16M", "32M", "64M", "128M"}
	return sizes[len(id)%len(sizes)]
}

func buildTraining(t *testing.T, n int) (*dataset.Dataset, map[string]*sysimage.Image) {
	t.Helper()
	dirs := []string{"/var/lib/mysql", "/data/mysql", "/srv/mysql", "/opt/mysql/data"}
	images := make([]*sysimage.Image, 0, n)
	byID := map[string]*sysimage.Image{}
	for i := 0; i < n; i++ {
		id := strings.Repeat("x", i%7+1) + "-img"
		// A minority of images run MySQL as a differently named account;
		// ownership still tracks the configured user, so the ownership
		// correlation holds while the user attribute keeps enough entropy
		// to survive the filter.
		user := "mysql"
		if i%5 == 0 {
			user = "mysqld_safe"
		}
		im := trainingImage(id+string(rune('a'+i%26)), dirs[i%len(dirs)], user)
		images = append(images, im)
		byID[im.ID] = im
	}
	d, err := assemble.New().AssembleTraining(images)
	if err != nil {
		t.Fatal(err)
	}
	return d, byID
}

func TestInferOwnershipRule(t *testing.T) {
	d, imgs := buildTraining(t, 20)
	e := NewEngine()
	rules := e.Infer(d, imgs)
	var found *Rule
	for _, r := range rules {
		if r.Template == "owner" && r.AttrA == "mysql:mysqld/datadir" && r.AttrB == "mysql:mysqld/user" {
			found = r
		}
	}
	if found == nil {
		t.Fatalf("datadir => user ownership rule not learned; got %d rules", len(rules))
	}
	if found.Confidence < 0.9 {
		t.Fatalf("ownership confidence = %v", found.Confidence)
	}
}

func TestEntropyFilterDropsConstantAttrs(t *testing.T) {
	d, imgs := buildTraining(t, 20)
	e := NewEngine()
	withFilter := e.Infer(d, imgs)
	e.Config.UseEntropyFilter = false
	withoutFilter := e.Infer(d, imgs)
	if len(withoutFilter) <= len(withFilter) {
		t.Fatalf("entropy filter should reduce rules: %d vs %d", len(withoutFilter), len(withFilter))
	}
	// net_buffer_length is constant (16K) so size-lt rules involving it
	// must be filtered, reproducing the paper's false-negative example.
	for _, r := range withFilter {
		if strings.Contains(r.AttrA, "net_buffer_length") || strings.Contains(r.AttrB, "net_buffer_length") {
			t.Fatalf("constant attribute survived entropy filter: %s", r)
		}
	}
	foundWithout := false
	for _, r := range withoutFilter {
		if strings.Contains(r.AttrA, "net_buffer_length") && r.Template == "size-lt" {
			foundWithout = true
		}
	}
	if !foundWithout {
		t.Fatal("without entropy filter the size rule should exist (the FN the paper reports)")
	}
}

func TestSupportFilter(t *testing.T) {
	d, imgs := buildTraining(t, 10)
	// Add one image with a unique pair of attributes: support 1/11 < 10%.
	extra := trainingImage("rare", "/var/lib/mysql", "mysql")
	extra.SetConfig("mysql", "/etc/my.cnf",
		"[mysqld]\ndatadir = /var/lib/mysql\nuser = mysql\nrare_a = 5\nrare_b = 10\nmax_allowed_packet = 32M\nnet_buffer_length = 16K\n")
	images := []*sysimage.Image{extra}
	for _, im := range imgs {
		images = append(images, im)
	}
	byID := map[string]*sysimage.Image{}
	for _, im := range images {
		byID[im.ID] = im
	}
	d2, err := assemble.New().AssembleTraining(images)
	if err != nil {
		t.Fatal(err)
	}
	_ = d
	e := NewEngine()
	e.Config.UseEntropyFilter = false
	rules := e.Infer(d2, byID)
	for _, r := range rules {
		if strings.Contains(r.AttrA, "rare_a") || strings.Contains(r.AttrB, "rare_b") {
			t.Fatalf("low-support rule survived: %s", r)
		}
	}
}

func TestConfidenceFilter(t *testing.T) {
	// Build a dataset where A < B holds on only half the rows.
	d := dataset.New()
	d.DeclareAttr("a", conftypes.TypeNumber, false)
	d.DeclareAttr("b", conftypes.TypeNumber, false)
	for i := 0; i < 10; i++ {
		r := d.NewRow(strings.Repeat("s", i+1))
		if i%2 == 0 {
			d.Add(r, "a", "1")
			d.Add(r, "b", "2")
		} else {
			d.Add(r, "a", "2")
			d.Add(r, "b", "1")
		}
	}
	e := NewEngine()
	e.Config.UseEntropyFilter = false
	rules := e.Infer(d, nil)
	for _, r := range rules {
		if r.Template == "num-lt" {
			t.Fatalf("50%% confidence rule survived: %s", r)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	d, imgs := buildTraining(t, 15)
	e := NewEngine()
	par := e.Infer(d, imgs)
	ser := e.InferSerial(d, imgs)
	if len(par) != len(ser) {
		t.Fatalf("parallel %d rules, serial %d", len(par), len(ser))
	}
	for i := range par {
		if par[i].Key() != ser[i].Key() || par[i].Confidence != ser[i].Confidence {
			t.Fatalf("rule %d differs: %s vs %s", i, par[i], ser[i])
		}
	}
}

// TestContextsOneAllocationFresh pins the memoized evaluation contexts:
// a rebuild costs one allocation for all rows, a repeat over the same rows
// reuses the memo, and an add followed by an equal-sized retire — the row
// count unchanged, the rows not — rebuilds it.
func TestContextsOneAllocationFresh(t *testing.T) {
	d, imgs := buildTraining(t, 12)
	e := NewEngine()
	if n := testing.AllocsPerRun(10, func() {
		e.ctxData = nil
		e.contexts(d, imgs)
	}); n != 1 {
		t.Fatalf("building %d contexts allocated %.0f times, want 1", len(d.Rows()), n)
	}
	first := e.contexts(d, imgs)
	if again := e.contexts(d, imgs); &again[0] != &first[0] {
		t.Fatal("contexts over unchanged rows were rebuilt")
	}
	added := &dataset.Row{SystemID: "added"}
	d.AddRows(added)
	d.RetireRows(d.Rows()[0].SystemID)
	got := e.contexts(d, imgs)
	if len(got) != len(first) {
		t.Fatalf("row count changed: %d vs %d", len(got), len(first))
	}
	for i := range got {
		if got[i].Row != d.Rows()[i] || got[i].Image != imgs[d.Rows()[i].SystemID] {
			t.Fatalf("context %d is stale: row %s, dataset row %s", i, got[i].Row.SystemID, d.Rows()[i].SystemID)
		}
	}
}

func TestSelfAndAugmentPairsExcluded(t *testing.T) {
	d, imgs := buildTraining(t, 12)
	e := NewEngine()
	e.Config.UseEntropyFilter = false
	for _, r := range e.Infer(d, imgs) {
		if r.AttrA == r.AttrB {
			t.Fatalf("self pair: %s", r)
		}
		if strings.HasPrefix(r.AttrA, r.AttrB+".") || strings.HasPrefix(r.AttrB, r.AttrA+".") {
			t.Fatalf("base/augment tautology: %s", r)
		}
	}
}

func TestCandidateCountScalesWithTypes(t *testing.T) {
	d, _ := buildTraining(t, 5)
	e := NewEngine()
	typed := e.CandidateCount(d)
	if typed == 0 {
		t.Fatal("no candidates at all")
	}
	// Untyped ablation: treating every attribute as every type explodes the
	// space. Simulate by making templates accept Strings everywhere.
	allString := dataset.New()
	for _, a := range d.Attributes() {
		allString.DeclareAttr(a.Name, conftypes.TypeNumber, false)
	}
	e2 := NewEngine()
	untypedCount := 0
	for _, tpl := range e2.Templates {
		if tpl.ID == "num-lt" {
			n := len(allString.Attributes())
			untypedCount += n * (n - 1)
		}
	}
	if untypedCount <= typed {
		t.Fatalf("untyped space (%d) should exceed typed space (%d)", untypedCount, typed)
	}
}

// UnmarshalRuleSet parses a serialized rule set: the inverse of
// RuleSet.Marshal, which only this round trip reads back.
func UnmarshalRuleSet(data []byte) (*RuleSet, error) {
	var rs RuleSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("rules: decode rule set: %w", err)
	}
	return &rs, nil
}

func TestRuleSetRoundTrip(t *testing.T) {
	d, imgs := buildTraining(t, 12)
	e := NewEngine()
	rules := e.Infer(d, imgs)
	rs := NewRuleSet(rules, d)
	data, err := rs.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRuleSet(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rules) != len(rs.Rules) {
		t.Fatalf("round trip lost rules: %d vs %d", len(back.Rules), len(rs.Rules))
	}
	if back.Types["mysql:mysqld/datadir"] != string(conftypes.TypeFilePath) {
		t.Fatal("types lost in round trip")
	}
	if _, err := UnmarshalRuleSet([]byte("{bad")); err == nil {
		t.Fatal("bad JSON should error")
	}
}

func TestCustomTemplateParticipates(t *testing.T) {
	d, imgs := buildTraining(t, 12)
	tpl, err := templates.ParseSpec("my-size", "[A:Size] < [B:Size]")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.Templates = nil
	e.AddTemplate(tpl)
	e.Config.UseEntropyFilter = false
	rules := e.Infer(d, imgs)
	found := false
	for _, r := range rules {
		if r.Template == "my-size" {
			found = true
		}
	}
	if !found {
		t.Fatalf("custom template produced no rules (have %d rules)", len(rules))
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.MinConfidence != 0.90 || c.MinSupportFraction != 0.10 {
		t.Fatalf("thresholds = %+v", c)
	}
	if c.EntropyThreshold != stats.DefaultEntropyThreshold || !c.UseEntropyFilter {
		t.Fatalf("entropy config = %+v", c)
	}
}

func TestRuleString(t *testing.T) {
	r := &Rule{Template: "owner", AttrA: "a", AttrB: "b", Support: 3, Confidence: 1}
	if !strings.Contains(r.String(), "owner(a, b)") {
		t.Fatalf("String = %q", r.String())
	}
	if r.Key() != "owner|a|b" {
		t.Fatalf("Key = %q", r.Key())
	}
	// String writes exactly the text of the report format it replaced.
	for _, c := range []Rule{
		*r,
		{Template: "[A] ? [B]", AttrA: "mysql:mysqld/datadir", AttrB: "mysql:mysqld/user", Support: 1234567, Confidence: 0.9049999},
		{Support: -2, Confidence: -0.0},
		{AttrA: "é", Support: math.MaxInt64, Confidence: 1e300},
		{Confidence: math.NaN()}, {Confidence: math.Inf(1)}, {Confidence: math.Inf(-1)}, {Confidence: 0.125}, {Confidence: 0.135},
	} {
		want := fmt.Sprintf("%s(%s, %s) support=%d conf=%.2f", c.Template, c.AttrA, c.AttrB, c.Support, c.Confidence)
		if got := c.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	e := NewEngine()
	if got := e.Infer(dataset.New(), nil); len(got) != 0 {
		t.Fatalf("empty dataset produced rules: %v", got)
	}
}

func TestInferStats(t *testing.T) {
	d, imgs := buildTraining(t, 20)
	e := NewEngine()
	learned := e.Infer(d, imgs)
	s := e.LastStats
	if s.Candidates == 0 {
		t.Fatal("no candidates counted")
	}
	if s.Kept != len(learned) {
		t.Fatalf("kept = %d, rules = %d", s.Kept, len(learned))
	}
	total := s.Kept + s.NoEvidence + s.SupportRejected + s.ConfidenceRejected + s.EntropyRejected
	if total != s.Candidates {
		t.Fatalf("stats do not partition the candidate space: %+v", s)
	}
	if s.EntropyRejected == 0 {
		t.Fatal("entropy filter should reject something on this corpus")
	}
	// Serial run produces the same accounting.
	e2 := NewEngine()
	e2.InferSerial(d, imgs)
	if e2.LastStats != s {
		t.Fatalf("serial stats differ: %+v vs %+v", e2.LastStats, s)
	}
}

// TestCompareKeysMatchesKeyOrder is the property compareKeys rests on:
// on random rules whose fields share prefixes and hold '|', '{', '~' and
// ':' (bytes on both sides of '|'), it orders every pair exactly as their
// built keys compare.
func TestCompareKeysMatchesKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", "|", "{", "~", ":", "ab", "a|", ""}
	field := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	var rs []*Rule
	for i := 0; i < 300; i++ {
		rs = append(rs, &Rule{Template: field(), AttrA: field(), AttrB: field()})
	}
	for _, a := range rs {
		for _, b := range rs {
			if got, want := compareKeys(a, b), strings.Compare(a.Key(), b.Key()); got != want {
				t.Fatalf("compareKeys(%q, %q) = %d, want %d", a.Key(), b.Key(), got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { compareKeys(rs[0], rs[1]) }); n != 0 {
		t.Fatalf("compareKeys allocated %.0f times, want 0", n)
	}
}
