package templates

import (
	"strings"
	"testing"

	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/sysimage"
)

func ctxWith(img *sysimage.Image) *Ctx {
	return &Ctx{Row: &dataset.Row{SystemID: "t", Cells: map[string][]string{}}, Image: img}
}

func envImage() *sysimage.Image {
	im := sysimage.New("env")
	im.Users["mysql"] = &sysimage.User{Name: "mysql", UID: 27, GID: 27}
	im.Users["nobody"] = &sysimage.User{Name: "nobody", UID: 99, GID: 99}
	im.Groups["mysql"] = &sysimage.Group{Name: "mysql", GID: 27}
	im.Groups["www"] = &sysimage.Group{Name: "www", GID: 48, Members: []string{"nobody"}}
	im.AddDir("/var/lib/mysql", "mysql", "mysql", 0o700)
	im.AddDir("/etc/httpd", "root", "root", 0o755)
	im.AddRegular("/etc/httpd/modules/libphp5.so", "root", "root", 0o755, 9)
	return im
}

func TestPredefinedCount(t *testing.T) {
	if n := len(Predefined()); n != 11 {
		t.Fatalf("predefined templates = %d, want 11 (Table 6)", n)
	}
	seen := map[string]bool{}
	for _, tpl := range Predefined() {
		if tpl.ID == "" || tpl.Validate == nil || tpl.Spec == "" || tpl.Description == "" {
			t.Fatalf("template %+v incomplete", tpl)
		}
		if seen[tpl.ID] {
			t.Fatalf("duplicate template id %s", tpl.ID)
		}
		seen[tpl.ID] = true
	}
}

func TestByID(t *testing.T) {
	if ByID("owner") == nil || ByID("nope") != nil {
		t.Fatal("ByID lookup wrong")
	}
}

func TestEqTemplate(t *testing.T) {
	tpl := ByID("eq")
	ctx := ctxWith(nil)
	if ok, app := tpl.Validate([]string{"x"}, []string{"x"}, ctx); !ok || !app {
		t.Fatal("equal values should hold")
	}
	if ok, _ := tpl.Validate([]string{"x"}, []string{"y"}, ctx); ok {
		t.Fatal("unequal values must not hold")
	}
	if _, app := tpl.Validate(nil, []string{"y"}, ctx); app {
		t.Fatal("missing side is inapplicable")
	}
}

func TestMatchOneTemplate(t *testing.T) {
	tpl := ByID("match-one")
	ctx := ctxWith(nil)
	if ok, _ := tpl.Validate([]string{"a", "b"}, []string{"c", "b"}, ctx); !ok {
		t.Fatal("shared instance should hold")
	}
	if ok, _ := tpl.Validate([]string{"a"}, []string{"c"}, ctx); ok {
		t.Fatal("disjoint instances must not hold")
	}
}

func TestBoolImpliesTemplate(t *testing.T) {
	tpl := ByID("bool-implies")
	ctx := ctxWith(nil)
	cases := []struct {
		a, b  string
		holds bool
	}{
		{"On", "true", true},
		{"On", "false", false},
		{"Off", "false", true},
		{"Off", "true", true}, // false antecedent: implication holds
	}
	for _, c := range cases {
		ok, app := tpl.Validate([]string{c.a}, []string{c.b}, ctx)
		if !app || ok != c.holds {
			t.Errorf("%s -> %s: holds=%v app=%v, want %v", c.a, c.b, ok, app, c.holds)
		}
	}
	if _, app := tpl.Validate([]string{"Maybe"}, []string{"On"}, ctx); app {
		t.Fatal("non-boolean word is inapplicable")
	}
}

func TestSubnetTemplate(t *testing.T) {
	tpl := ByID("subnet")
	ctx := ctxWith(nil)
	if ok, _ := tpl.Validate([]string{"10.0.1.5"}, []string{"10.0.1.99"}, ctx); !ok {
		t.Fatal("same /24 should hold")
	}
	if ok, _ := tpl.Validate([]string{"10.0.1.5"}, []string{"10.0.2.1"}, ctx); ok {
		t.Fatal("different /24 must not hold")
	}
	if ok, _ := tpl.Validate([]string{"10.0.1.5"}, []string{"0.0.0.0"}, ctx); !ok {
		t.Fatal("wildcard matches everything")
	}
}

func TestConcatTemplate(t *testing.T) {
	tpl := ByID("concat")
	ctx := ctxWith(envImage())
	if ok, app := tpl.Validate([]string{"/etc/httpd"}, []string{"modules/libphp5.so"}, ctx); !ok || !app {
		t.Fatalf("existing concat should hold (ok=%v app=%v)", ok, app)
	}
	if ok, _ := tpl.Validate([]string{"/etc/httpd"}, []string{"modules/missing.so"}, ctx); ok {
		t.Fatal("missing concat must not hold")
	}
	// Trailing slash on the root is tolerated.
	if ok, _ := tpl.Validate([]string{"/etc/httpd/"}, []string{"modules/libphp5.so"}, ctx); !ok {
		t.Fatal("trailing slash should still concat")
	}
	if _, app := tpl.Validate([]string{"/etc/httpd"}, []string{"modules/libphp5.so"}, ctxWith(nil)); app {
		t.Fatal("no image: inapplicable")
	}
}

func TestSubstrTemplate(t *testing.T) {
	tpl := ByID("substr")
	ctx := ctxWith(nil)
	if ok, _ := tpl.Validate([]string{"/var/www"}, []string{"/var/www/html"}, ctx); !ok {
		t.Fatal("prefix should hold")
	}
	if ok, _ := tpl.Validate([]string{"/var/www"}, []string{"/var/www"}, ctx); ok {
		t.Fatal("identical strings are excluded (eq covers that)")
	}
	if ok, _ := tpl.Validate([]string{"/srv"}, []string{"/var"}, ctx); ok {
		t.Fatal("non-substring must not hold")
	}
}

func TestUserGroupTemplate(t *testing.T) {
	tpl := ByID("user-group")
	ctx := ctxWith(envImage())
	if ok, _ := tpl.Validate([]string{"nobody"}, []string{"www"}, ctx); !ok {
		t.Fatal("member should hold")
	}
	if ok, _ := tpl.Validate([]string{"mysql"}, []string{"www"}, ctx); ok {
		t.Fatal("non-member must not hold")
	}
}

func TestNotAccessTemplate(t *testing.T) {
	tpl := ByID("not-access")
	ctx := ctxWith(envImage())
	// /var/lib/mysql is 0700 mysql: nobody cannot access it.
	if ok, app := tpl.Validate([]string{"/var/lib/mysql"}, []string{"nobody"}, ctx); !ok || !app {
		t.Fatalf("inaccessible path should hold (ok=%v app=%v)", ok, app)
	}
	// /etc/httpd is world readable: rule does not hold.
	if ok, _ := tpl.Validate([]string{"/etc/httpd"}, []string{"nobody"}, ctx); ok {
		t.Fatal("accessible path must not hold")
	}
	if _, app := tpl.Validate([]string{"/missing"}, []string{"nobody"}, ctx); app {
		t.Fatal("missing path is inapplicable")
	}
}

func TestOwnerTemplate(t *testing.T) {
	tpl := ByID("owner")
	ctx := ctxWith(envImage())
	if ok, _ := tpl.Validate([]string{"/var/lib/mysql"}, []string{"mysql"}, ctx); !ok {
		t.Fatal("correct owner should hold")
	}
	if ok, _ := tpl.Validate([]string{"/var/lib/mysql"}, []string{"nobody"}, ctx); ok {
		t.Fatal("wrong owner must not hold")
	}
	if _, app := tpl.Validate([]string{"/missing"}, []string{"mysql"}, ctx); app {
		t.Fatal("missing path is inapplicable")
	}
}

func TestNumLtTemplate(t *testing.T) {
	tpl := ByID("num-lt")
	ctx := ctxWith(nil)
	if ok, _ := tpl.Validate([]string{"5"}, []string{"10"}, ctx); !ok {
		t.Fatal("5 < 10 should hold")
	}
	if ok, _ := tpl.Validate([]string{"10"}, []string{"5"}, ctx); ok {
		t.Fatal("10 < 5 must not hold")
	}
	if _, app := tpl.Validate([]string{"x"}, []string{"5"}, ctx); app {
		t.Fatal("non-numeric is inapplicable")
	}
}

func TestSizeLtTemplate(t *testing.T) {
	tpl := ByID("size-lt")
	ctx := ctxWith(nil)
	// The PHP upload case: upload_max_filesize < post_max_size.
	if ok, _ := tpl.Validate([]string{"2M"}, []string{"8M"}, ctx); !ok {
		t.Fatal("2M < 8M should hold")
	}
	if ok, _ := tpl.Validate([]string{"16M"}, []string{"8M"}, ctx); ok {
		t.Fatal("16M < 8M must not hold")
	}
	if ok, _ := tpl.Validate([]string{"1G"}, []string{"1025M"}, ctx); !ok {
		t.Fatal("1G < 1025M should hold")
	}
}

func TestEligibility(t *testing.T) {
	owner := ByID("owner")
	fp := dataset.Attribute{Name: "datadir", Type: conftypes.TypeFilePath}
	user := dataset.Attribute{Name: "user", Type: conftypes.TypeUserName}
	aug := dataset.Attribute{Name: "datadir.owner", Type: conftypes.TypeUserName, Augmented: true}
	if !owner.EligibleA(fp) || owner.EligibleA(user) {
		t.Fatal("A eligibility wrong")
	}
	if !owner.EligibleB(user) || owner.EligibleB(fp) {
		t.Fatal("B eligibility wrong")
	}
	if owner.EligibleB(aug) {
		t.Fatal("owner template must not take augmented attributes")
	}
	bi := ByID("bool-implies")
	augBool := dataset.Attribute{Name: "dir.hasSymLink", Type: conftypes.TypeBoolean, Augmented: true}
	if !bi.EligibleB(augBool) {
		t.Fatal("bool-implies allows augmented attributes")
	}
}

func TestParseSpec(t *testing.T) {
	tpl, err := ParseSpec("", "[A:Size] < [B:Size]")
	if err != nil {
		t.Fatal(err)
	}
	if tpl.TypesA[0] != conftypes.TypeSize || !tpl.SameType {
		t.Fatalf("parsed template = %+v", tpl)
	}
	if ok, _ := tpl.Validate([]string{"1M"}, []string{"2M"}, ctxWith(nil)); !ok {
		t.Fatal("parsed size template should validate sizes")
	}
	tpl, err = ParseSpec("my-owner", "[A:FilePath] => [B:UserName]")
	if err != nil {
		t.Fatal(err)
	}
	if tpl.ID != "my-owner" {
		t.Fatalf("id = %s", tpl.ID)
	}
	if ok, _ := tpl.Validate([]string{"/var/lib/mysql"}, []string{"mysql"}, ctxWith(envImage())); !ok {
		t.Fatal("parsed owner template should consult environment")
	}
}

func TestParseSpecErrors(t *testing.T) {
	if _, err := ParseSpec("", "garbage"); err == nil {
		t.Fatal("malformed spec should error")
	}
	if _, err := ParseSpec("", "[A:Size] ?? [B:FilePath]"); err == nil {
		t.Fatal("unknown operator should error")
	}
}

func TestRegisterCustomOp(t *testing.T) {
	RegisterOp("endswith", conftypes.TypeString, conftypes.TypeString,
		func(a, b []string, _ *Ctx) (bool, bool) {
			if len(a) == 0 || len(b) == 0 {
				return false, false
			}
			return len(b[0]) >= len(a[0]) && b[0][len(b[0])-len(a[0]):] == a[0], true
		})
	tpl, err := ParseSpec("", "[A:String] endswith [B:String]")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := tpl.Validate([]string{".log"}, []string{"error.log"}, ctxWith(nil)); !ok {
		t.Fatal("custom operator should run")
	}
}

// normBoolToLower is normBool as first written, lower-casing through
// strings.ToLower: the reference the allocation-free version must match
// on every input.
func normBoolToLower(v string) (bool, bool) {
	switch strings.ToLower(v) {
	case "on", "true", "yes", "1", "enabled":
		return true, true
	case "off", "false", "no", "0", "disabled", "none":
		return false, true
	default:
		return false, false
	}
}

// normBoolSeeds covers every lexicon word in several casings, the empty
// string, inputs longer than the longest word, and the non-ASCII letters
// whose Unicode case mappings reach ASCII: U+212A KELVIN SIGN lowers to
// 'k', U+0130 to 'i', and U+017F LONG S upper-cases to 'S'.
func normBoolSeeds() []string {
	seeds := []string{"", "maybe", "o", "disabledx", "enabled ", " on", "DISABLED!", "not-a-boolean-word",
		"\u212A", "\u017F", "\u0130", "d\u0130sabled", "D\u0130SABLED", "\u017Fure", "di\u017Fabled",
		"\u212Aeep", "\u0130\u0130\u0130\u0130\u0130", "en\u0130abled", "yes\u212A", "\xff", "on\x00"}
	for _, w := range []string{"on", "true", "yes", "1", "enabled", "off", "false", "no", "0", "disabled", "none"} {
		upper := strings.ToUpper(w)
		mixed := []byte(w)
		for i := 0; i < len(mixed); i += 2 {
			mixed[i] = upper[i]
		}
		seeds = append(seeds, w, upper, string(mixed), upper[:1]+w[1:], w+w)
	}
	return seeds
}

func TestNormBool(t *testing.T) {
	for _, v := range []string{"On", "TRUE", "yes", "1", "enabled"} {
		if b, ok := normBool(v); !ok || !b {
			t.Errorf("normBool(%q) = %v %v", v, b, ok)
		}
	}
	for _, v := range []string{"Off", "false", "NO", "0", "none"} {
		if b, ok := normBool(v); !ok || b {
			t.Errorf("normBool(%q) = %v %v", v, b, ok)
		}
	}
	if _, ok := normBool("maybe"); ok {
		t.Error("normBool should reject unknown words")
	}
	for _, v := range normBoolSeeds() {
		b, ok := normBool(v)
		wb, wok := normBoolToLower(v)
		if b != wb || ok != wok {
			t.Errorf("normBool(%q) = %v %v, strings.ToLower reference says %v %v", v, b, ok, wb, wok)
		}
	}
	if b, ok := normBool("D\u0130SABLED"); !ok || b {
		t.Errorf("normBool must follow strings.ToLower's U+0130 mapping, got %v %v", b, ok)
	}
	for _, v := range []string{"Enabled", "DISABLED", "off", "ServerTokens-Full"} {
		if n := testing.AllocsPerRun(100, func() { normBool(v) }); n != 0 {
			t.Errorf("normBool(%q) allocated %.0f times", v, n)
		}
	}
}

// FuzzNormBool holds normBool to the strings.ToLower reference on
// arbitrary input.
func FuzzNormBool(f *testing.F) {
	for _, v := range normBoolSeeds() {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		b, ok := normBool(v)
		wb, wok := normBoolToLower(v)
		if b != wb || ok != wok {
			t.Fatalf("normBool(%q) = %v %v, strings.ToLower reference says %v %v", v, b, ok, wb, wok)
		}
	})
}
