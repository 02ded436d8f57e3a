package conftypes

import (
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sysimage"
)

func envImage() *sysimage.Image {
	im := sysimage.New("env")
	im.Users["mysql"] = &sysimage.User{Name: "mysql", UID: 27, GID: 27}
	im.Users["apache"] = &sysimage.User{Name: "apache", UID: 48, GID: 48}
	im.Groups["mysql"] = &sysimage.Group{Name: "mysql", GID: 27}
	im.Services = []sysimage.Service{{Name: "mysql", Port: 3306, Protocol: "tcp"}, {Name: "http", Port: 80, Protocol: "tcp"}}
	im.AddDir("/var/lib/mysql", "mysql", "mysql", 0o750)
	im.AddRegular("/usr/lib/php/modules/libphp5.so", "root", "root", 0o644, 100)
	im.AddRegular("/etc/httpd/conf/httpd.conf", "root", "root", 0o644, 100)
	return im
}

func one(v string, img *sysimage.Image) []Sample { return []Sample{{Value: v, Image: img}} }

func TestInferValueKinds(t *testing.T) {
	im := envImage()
	inf := NewInferencer()
	cases := []struct {
		value string
		want  Type
	}{
		{"/var/lib/mysql", TypeFilePath},
		{"mysql", TypeUserName}, // user wins over group by priority
		{"3306", TypePortNumber},
		{"42", TypeNumber},     // unregistered port degrades to Number
		{"999999", TypeNumber}, // out of port range
		{"16M", TypeSize},
		{"10.0.1.1", TypeIPAddress},
		{"fe80::1", TypeIPAddress},
		{"300.1.1.1", TypeString}, // invalid octet is not an IP; degrades
		{"http://example.com/x", TypeURL},
		{"text/html", TypeMIMEType},
		{"utf-8", TypeCharset},
		{"en", TypeLanguage},
		{"On", TypeBoolean},
		{"modules/libphp5.so", TypePartialFilePath},
		{"httpd.conf", TypeFileName},
		{"some arbitrary words", TypeString},
	}
	for _, c := range cases {
		if got := inf.InferValue(c.value, im); got != c.want {
			t.Errorf("InferValue(%q) = %s, want %s", c.value, got, c.want)
		}
	}
}

func TestSemanticVerificationGates(t *testing.T) {
	im := envImage()
	inf := NewInferencer()
	// Path-looking value that does not exist: semantic verification fails,
	// so FilePath is rejected and the value degrades to String.
	if got := inf.InferValue("/no/such/path", im); got == TypeFilePath {
		t.Fatalf("nonexistent path should not verify as FilePath, got %s", got)
	}
	// Unknown user name degrades to String (no account verification).
	if got := inf.InferValue("ghostuser", im); got == TypeUserName || got == TypeGroupName {
		t.Fatalf("unknown account inferred as %s", got)
	}
}

func TestBooleanFromValueSet(t *testing.T) {
	inf := NewInferencer()
	im := envImage()
	samples := []Sample{{Value: "On", Image: im}, {Value: "Off", Image: im}, {Value: "on", Image: im}}
	if got := inf.InferEntry(samples); got != TypeBoolean {
		t.Fatalf("on/off entry = %s", got)
	}
	// The 0/1 false-type source from Table 11: all-0/1 integers infer as
	// Boolean even when the entry is semantically a count.
	zeroOne := []Sample{{Value: "0", Image: im}, {Value: "1", Image: im}, {Value: "0", Image: im}}
	if got := inf.InferEntry(zeroOne); got != TypeBoolean {
		t.Fatalf("0/1 entry = %s, want Boolean (paper's false-type behaviour)", got)
	}
	// A wider integer range is a Number.
	nums := []Sample{{Value: "0", Image: im}, {Value: "10", Image: im}}
	if got := inf.InferEntry(nums); got != TypeNumber {
		t.Fatalf("0/10 entry = %s", got)
	}
}

func TestInferEntryMajority(t *testing.T) {
	im := envImage()
	inf := NewInferencer()
	// 4 of 5 samples are existing paths in their images; one sample is
	// garbage. 0.8 match fraction admits FilePath.
	samples := []Sample{
		{Value: "/var/lib/mysql", Image: im},
		{Value: "/var/lib/mysql", Image: im},
		{Value: "/usr/lib/php/modules/libphp5.so", Image: im},
		{Value: "/etc/httpd/conf/httpd.conf", Image: im},
		{Value: "not a path", Image: im},
	}
	if got := inf.InferEntry(samples); got != TypeFilePath {
		t.Fatalf("majority path entry = %s", got)
	}
}

func TestInferEntryEmpty(t *testing.T) {
	inf := NewInferencer()
	if got := inf.InferEntry(nil); got != TypeString {
		t.Fatalf("empty samples = %s", got)
	}
	if got := inf.InferEntry([]Sample{{Value: ""}}); got != TypeString {
		t.Fatalf("all-empty values = %s", got)
	}
}

func TestCustomTypePriority(t *testing.T) {
	inf := NewInferencer()
	im := envImage()
	inf.AddCustom(&Def{
		Name:  Type("MysqlWord"),
		Match: func(v string) bool { return v == "mysql" },
	})
	if got := inf.InferValue("mysql", im); got != Type("MysqlWord") {
		t.Fatalf("custom type should win: got %s", got)
	}
}

func TestCheckValue(t *testing.T) {
	im := envImage()
	inf := NewInferencer()
	syn, sem := inf.CheckValue(TypeFilePath, "/var/lib/mysql", im)
	if !syn || !sem {
		t.Fatal("existing path should pass both steps")
	}
	syn, sem = inf.CheckValue(TypeFilePath, "/no/such", im)
	if !syn || sem {
		t.Fatalf("missing path: syn=%v sem=%v, want true,false", syn, sem)
	}
	syn, sem = inf.CheckValue(TypeFilePath, "not-a-path", im)
	if syn || sem {
		t.Fatal("non-path must fail syntactic step")
	}
	syn, sem = inf.CheckValue(TypeBoolean, "On", im)
	if !syn || !sem {
		t.Fatal("boolean word should pass")
	}
	syn, sem = inf.CheckValue(TypeBoolean, "Onn", im)
	if syn || sem {
		t.Fatal("non-boolean word should fail")
	}
	if syn, sem = inf.CheckValue(TypeString, "anything", im); !syn || !sem {
		t.Fatal("trivial type always passes")
	}
	if syn, sem = inf.CheckValue(Type("Unknown"), "x", im); !syn || !sem {
		t.Fatal("unknown type must not fail the check")
	}
	if syn, sem = inf.CheckValue(TypeSize, "16M", im); !syn || !sem {
		t.Fatal("size with no verifier passes semantically when syntactic passes")
	}
}

func TestPortVsNumberPriority(t *testing.T) {
	im := envImage()
	inf := NewInferencer()
	// 80 is registered: PortNumber. 81 is not: Number.
	if got := inf.InferValue("80", im); got != TypePortNumber {
		t.Fatalf("80 = %s", got)
	}
	if got := inf.InferValue("81", im); got != TypeNumber {
		t.Fatalf("81 = %s", got)
	}
}

func TestIsTrivial(t *testing.T) {
	if !TypeString.IsTrivial() || !TypeNumber.IsTrivial() || !Type("").IsTrivial() {
		t.Fatal("String/Number/empty are trivial")
	}
	if TypeFilePath.IsTrivial() || TypeUserName.IsTrivial() {
		t.Fatal("semantic types are not trivial")
	}
}

func TestLooksLikeRegexOrGlob(t *testing.T) {
	if !LooksLikeRegexOrGlob("*.php") || !LooksLikeRegexOrGlob("^/cgi-bin/") {
		t.Fatal("glob/regex should be detected")
	}
	if LooksLikeRegexOrGlob("/var/www") {
		t.Fatal("plain path is not a pattern")
	}
	// Every byte, alone and behind a multi-byte rune, agrees with the
	// strings.ContainsAny form the byte switch replaced.
	for b := 0; b < 256; b++ {
		for _, v := range []string{string([]byte{byte(b)}), "é" + string([]byte{byte(b)})} {
			if got, want := LooksLikeRegexOrGlob(v), strings.ContainsAny(v, "*?[]^$()%{}"); got != want {
				t.Fatalf("LooksLikeRegexOrGlob(%q) = %v, ContainsAny %v", v, got, want)
			}
		}
	}
}

func TestInferEntryNamedDisambiguatesGroups(t *testing.T) {
	im := envImage()
	im.Groups["apache"] = &sysimage.Group{Name: "apache", GID: 48}
	inf := NewInferencer()
	samples := []Sample{{Value: "apache", Image: im}}
	// "apache" is both a user and a group: by value alone UserName wins.
	if got := inf.InferEntry(samples); got != TypeUserName {
		t.Fatalf("InferEntry = %s", got)
	}
	// An entry *named* Group whose values all verify as groups flips.
	if got := inf.InferEntryNamed("apache:Group", samples); got != TypeGroupName {
		t.Fatalf("InferEntryNamed(Group) = %s", got)
	}
	// The hint only applies when the name says so...
	if got := inf.InferEntryNamed("apache:User", samples); got != TypeUserName {
		t.Fatalf("InferEntryNamed(User) = %s", got)
	}
	// ...and only when every sample verifies as a group.
	im.Users["deploy"] = &sysimage.User{Name: "deploy", UID: 1000, GID: 1000}
	mixed := append(samples, Sample{Value: "deploy", Image: im}) // user only
	if got := inf.InferEntryNamed("apache:Group", mixed); got != TypeUserName {
		t.Fatalf("InferEntryNamed(mixed) = %s", got)
	}
	// Non-UserName inferences pass through untouched.
	nums := []Sample{{Value: "42", Image: im}}
	if got := inf.InferEntryNamed("some_group_count", nums); got != TypeNumber {
		t.Fatalf("InferEntryNamed(number) = %s", got)
	}
}

func TestGroupNameInference(t *testing.T) {
	im := envImage()
	im.Groups["www"] = &sysimage.Group{Name: "www", GID: 48}
	inf := NewInferencer()
	// "www" is a group but not a user: GroupName.
	if got := inf.InferValue("www", im); got != TypeGroupName {
		t.Fatalf("www = %s", got)
	}
}

func TestInferValueNeverPanics(t *testing.T) {
	im := envImage()
	inf := NewInferencer()
	f := func(v string) bool {
		_ = inf.InferValue(v, im)
		_ = inf.InferValue(v, nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInferEntryDeterministic(t *testing.T) {
	im := envImage()
	inf := NewInferencer()
	samples := one("/var/lib/mysql", im)
	first := inf.InferEntry(samples)
	for i := 0; i < 10; i++ {
		if got := inf.InferEntry(samples); got != first {
			t.Fatalf("nondeterministic inference: %s vs %s", got, first)
		}
	}
}

func TestPermissionType(t *testing.T) {
	inf := NewInferencer()
	if got := inf.InferValue("0644", nil); got != TypePermission {
		t.Fatalf("0644 = %s", got)
	}
	// Without a leading zero, 644 is indistinguishable from a count; the
	// inferencer is conservative and leaves it numeric.
	if got := inf.InferValue("644", nil); got != TypeNumber {
		t.Fatalf("644 = %s", got)
	}
	// 999 is not octal.
	if got := inf.InferValue("999", nil); got == TypePermission {
		t.Fatal("999 must not be a permission")
	}
}

// TestIsAbsPathMatchesPattern holds the FilePath matcher to the pattern
// it replaced, over every string of up to three bytes drawn from slashes,
// letters, RE2's \s bytes, a vertical tab (not \s) and UTF-8 and invalid
// bytes.
func TestIsAbsPathMatchesPattern(t *testing.T) {
	pattern := regexp.MustCompile(`^/[^\s]*$`)
	alphabet := []string{"/", "a", " ", "\t", "\n", "\f", "\r", "\v", "\u00a0", "\xff", ""}
	for _, a := range alphabet {
		for _, b := range alphabet {
			for _, c := range alphabet {
				v := a + b + c
				if got, want := isAbsPath(v), pattern.MatchString(v); got != want {
					t.Errorf("isAbsPath(%q) = %v, pattern %v", v, got, want)
				}
			}
		}
	}
}
