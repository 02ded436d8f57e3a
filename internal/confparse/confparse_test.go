package confparse

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const apacheSample = `
# Main server configuration
ServerRoot "/etc/httpd"
Listen 80
LoadModule php5_module modules/libphp5.so
User apache
Group apache

<Directory "/var/www/html">
    Options Indexes FollowSymLinks
    AllowOverride None
    <Limit GET POST>
        Require all granted
    </Limit>
</Directory>
DocumentRoot "/var/www/html"
HostnameLookups Off # inline comment
`

func TestApacheParse(t *testing.T) {
	d := NewApacheDialect()
	entries, err := d.Parse(apacheSample)
	if err != nil {
		t.Fatal(err)
	}
	f := &File{App: "apache", Entries: entries}
	sr := f.Find("ServerRoot")
	if len(sr) != 1 || sr[0].Value() != "/etc/httpd" {
		t.Fatalf("ServerRoot = %+v", sr)
	}
	lm := f.Find("LoadModule")
	if len(lm) != 1 || len(lm[0].Values) != 2 || lm[0].Values[1] != "modules/libphp5.so" {
		t.Fatalf("LoadModule = %+v", lm)
	}
	opts := f.FindKey("Options")
	if len(opts) != 1 || opts[0].Section != "Directory:/var/www/html" {
		t.Fatalf("Options = %+v", opts)
	}
	req := f.FindKey("Require")
	if len(req) != 1 || req[0].Section != "Directory:/var/www/html|Limit:GET:POST" {
		t.Fatalf("Require section = %q", req[0].Section)
	}
	hl := f.Find("HostnameLookups")
	if len(hl) != 1 || hl[0].Value() != "Off" {
		t.Fatalf("inline comment not stripped: %+v", hl)
	}
}

func TestApacheQuotedHashNotComment(t *testing.T) {
	d := NewApacheDialect()
	entries, err := d.Parse(`ServerAdmin "admin#example"` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Value() != "admin#example" {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestApacheErrors(t *testing.T) {
	d := NewApacheDialect()
	cases := []string{
		"</Directory>\n",
		"<Directory /a>\n</Limit>\n",
		"<Directory /a>\nOptions None\n",
		"<Directory /a\n",
		"<>\n",
	}
	for _, c := range cases {
		if _, err := d.Parse(c); err == nil {
			t.Errorf("expected parse error for %q", c)
		}
	}
}

func TestApacheRoundTrip(t *testing.T) {
	d := NewApacheDialect()
	entries, err := d.Parse(apacheSample)
	if err != nil {
		t.Fatal(err)
	}
	rendered := d.Render(entries)
	back, err := d.Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, rendered)
	}
	if len(back) != len(entries) {
		t.Fatalf("round trip: %d entries vs %d", len(back), len(entries))
	}
	for i := range entries {
		if back[i].Name() != entries[i].Name() || back[i].Value() != entries[i].Value() {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, back[i], entries[i])
		}
	}
}

const mysqlSample = `
[mysqld]
datadir = /var/lib/mysql
user = mysql
port = 3306
skip-networking
max_allowed_packet = 16M
# comment
[client]
socket = /var/lib/mysql/mysql.sock
`

func TestINIParse(t *testing.T) {
	d := NewINIDialect("#", ";")
	entries, err := d.Parse(mysqlSample)
	if err != nil {
		t.Fatal(err)
	}
	f := &File{App: "mysql", Entries: entries}
	dd := f.Find("mysqld/datadir")
	if len(dd) != 1 || dd[0].Value() != "/var/lib/mysql" {
		t.Fatalf("datadir = %+v", dd)
	}
	sn := f.Find("mysqld/skip-networking")
	if len(sn) != 1 || len(sn[0].Values) != 0 {
		t.Fatalf("flag entry = %+v", sn)
	}
	sock := f.Find("client/socket")
	if len(sock) != 1 {
		t.Fatalf("socket = %+v", sock)
	}
}

func TestINIQuotedValues(t *testing.T) {
	d := NewINIDialect(";")
	entries, err := d.Parse("[PHP]\nerror_log = \"/var/log/php errors.log\"\n")
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Value() != "/var/log/php errors.log" {
		t.Fatalf("value = %q", entries[0].Value())
	}
}

func TestINIValueContainingEquals(t *testing.T) {
	d := NewINIDialect(";")
	entries, err := d.Parse("a = b=c\n")
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Value() != "b=c" {
		t.Fatalf("value = %q", entries[0].Value())
	}
}

func TestINIErrors(t *testing.T) {
	d := NewINIDialect("#")
	for _, c := range []string{"[unterminated\n", "[]\n", "= novalue\n"} {
		if _, err := d.Parse(c); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestINIRoundTrip(t *testing.T) {
	d := NewINIDialect("#", ";")
	entries, err := d.Parse(mysqlSample)
	if err != nil {
		t.Fatal(err)
	}
	back, err := d.Parse(d.Render(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("round trip: %d vs %d", len(back), len(entries))
	}
	for i := range entries {
		if back[i].Name() != entries[i].Name() || back[i].Value() != entries[i].Value() {
			t.Fatalf("entry %d: %+v vs %+v", i, back[i], entries[i])
		}
	}
}

const sshdSample = `
Port 22
PermitRootLogin no
AllowUsers alice bob
Match User deploy
    PasswordAuthentication no
`

func TestSSHDParse(t *testing.T) {
	d := NewSSHDDialect()
	entries, err := d.Parse(sshdSample)
	if err != nil {
		t.Fatal(err)
	}
	f := &File{App: "sshd", Entries: entries}
	au := f.Find("AllowUsers")
	if len(au) != 1 || len(au[0].Values) != 2 {
		t.Fatalf("AllowUsers = %+v", au)
	}
	pa := f.FindKey("PasswordAuthentication")
	if len(pa) != 1 || pa[0].Section != "Match:User:deploy" {
		t.Fatalf("Match scope = %+v", pa)
	}
}

func TestSSHDMatchError(t *testing.T) {
	d := NewSSHDDialect()
	if _, err := d.Parse("Match\n"); err == nil {
		t.Fatal("Match with no criteria should fail")
	}
}

func TestSSHDRoundTrip(t *testing.T) {
	d := NewSSHDDialect()
	entries, err := d.Parse(sshdSample)
	if err != nil {
		t.Fatal(err)
	}
	back, err := d.Parse(d.Render(entries))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names(back), names(entries)) {
		t.Fatalf("round trip: %v vs %v", names(back), names(entries))
	}
}

func names(es []*Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name() + "=" + e.Value()
	}
	return out
}

func TestRegistry(t *testing.T) {
	for _, app := range []string{"apache", "httpd", "mysql", "php", "sshd"} {
		if _, err := ForApp(app); err != nil {
			t.Errorf("dialect for %s missing: %v", app, err)
		}
	}
	if _, err := ForApp("nginx"); err == nil {
		t.Error("unknown app should error")
	}
}

func TestParseAndRenderTopLevel(t *testing.T) {
	f, err := Parse("mysql", "/etc/my.cnf", mysqlSample)
	if err != nil {
		t.Fatal(err)
	}
	if f.App != "mysql" || f.Path != "/etc/my.cnf" {
		t.Fatalf("file meta = %+v", f)
	}
	out, err := Render(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "datadir = /var/lib/mysql") {
		t.Fatalf("render missing datadir:\n%s", out)
	}
	if _, err := Parse("unknown", "", ""); err == nil {
		t.Fatal("unknown app should error")
	}
	if _, err := Render(&File{App: "unknown"}); err == nil {
		t.Fatal("unknown app render should error")
	}
}

func TestFileSetRemoveClone(t *testing.T) {
	f, _ := Parse("mysql", "", mysqlSample)
	f.Set("mysqld/port", "3307")
	if f.Find("mysqld/port")[0].Value() != "3307" {
		t.Fatal("Set should replace existing")
	}
	f.Set("mysqld/new_opt", "x")
	got := f.Find("mysqld/new_opt")
	if len(got) != 1 || got[0].Section != "mysqld" || got[0].Key != "new_opt" {
		t.Fatalf("Set append = %+v", got)
	}
	c := f.Clone()
	c.Find("mysqld/port")[0].Values[0] = "9999"
	if f.Find("mysqld/port")[0].Value() != "3307" {
		t.Fatal("Clone must be deep")
	}
	if !f.Remove("mysqld/port") {
		t.Fatal("Remove should report true")
	}
	if len(f.Find("mysqld/port")) != 0 {
		t.Fatal("entry not removed")
	}
	if f.Remove("mysqld/port") {
		t.Fatal("second Remove should report false")
	}
}

func TestEntryName(t *testing.T) {
	e := &Entry{Key: "Listen"}
	if e.Name() != "Listen" {
		t.Fatalf("top-level name = %q", e.Name())
	}
	e.Section = "VirtualHost:*:80"
	if e.Name() != "VirtualHost:*:80/Listen" {
		t.Fatalf("scoped name = %q", e.Name())
	}
}

func TestSplitArgsQuotes(t *testing.T) {
	var s Scratch
	splitArgs := func(line string) []string { return s.values[s.splitArgs(line):] }
	got := splitArgs(`Alias /icons/ "/var/www/icons/"`)
	want := []string{"Alias", "/icons/", "/var/www/icons/"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splitArgs = %v", got)
	}
	got = splitArgs(`a 'b c' d`)
	if !reflect.DeepEqual(got, []string{"a", "b c", "d"}) {
		t.Fatalf("single quotes = %v", got)
	}
}

// Property: INI render/parse round-trips arbitrary simple key-value pairs.
func TestINIRoundTripProperty(t *testing.T) {
	d := NewINIDialect("#", ";")
	sanitize := func(s string, isKey bool) string {
		var b strings.Builder
		for _, r := range s {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '-' || r == '/' || r == '.' {
				b.WriteRune(r)
			}
		}
		out := b.String()
		if out == "" {
			if isKey {
				return "k"
			}
			return "v"
		}
		return out
	}
	f := func(key, val string) bool {
		k, v := sanitize(key, true), sanitize(val, false)
		in := []*Entry{{Section: "s", Key: k, Values: []string{v}}}
		back, err := d.Parse(d.Render(in))
		if err != nil {
			return false
		}
		return len(back) == 1 && back[0].Key == k && back[0].Value() == v && back[0].Section == "s"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
