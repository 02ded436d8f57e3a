package confparse

import (
	"reflect"
	"strings"
	"testing"
)

// oracles maps each fuzzed app to its dialect parser as first written.
var oracles = map[string]func(string) ([]*Entry, error){
	"apache": oracleApacheParse,
	"mysql":  func(c string) ([]*Entry, error) { return oracleINIParse(NewINIDialect("#", ";"), c) },
	"sshd":   oracleSSHDParse,
}

// failing holds, per fuzzed app, an input that fails after entries and a
// section path have been parsed, so the reused scratch starts the run
// having rolled a failed parse back.
var failing = map[string]string{
	"apache": "<VirtualHost *:80>\nListen 80\n",
	"mysql":  "[mysqld]\nport = 3306\n[unterminated\n",
	"sshd":   "Match User git\nPort 22\nMatch\n",
}

// fuzzDialect is the shared fuzz body: parsing arbitrary content must
// never panic and must agree with the app's oracle parser — the same
// entries (Section, Key, Values, Line, IsSection) or the same error text —
// a parse error must carry the app and file context the assembler relies
// on for fault isolation, and a successful parse must render and re-parse
// without panicking.
//
// Every input is also parsed, twice back to back, into one Scratch reused
// across the whole run (warmed by the seeds and a failing input), the way
// a scan worker parses an image's files: both results must match the
// oracle, the first still intact after the second was appended.
func fuzzDialect(f *testing.F, app string, seeds []string) {
	var sc Scratch
	for _, s := range append(seeds, failing[app]) {
		f.Add(s)
		sc.Reset()
		_, _ = sc.Parse(app, "fuzz.conf", s)
	}
	f.Fuzz(func(t *testing.T, content string) {
		d, err := ForApp(app)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := d.Parse(content)
		want, wantErr := oracles[app](content)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("error %v, oracle %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("entries differ from the oracle\ngot:    %s\noracle: %s", dumpEntries(got), dumpEntries(want))
		}
		sc.Reset()
		first, firstErr := sc.Parse(app, "fuzz.conf", content)
		second, secondErr := sc.Parse(app, "fuzz.conf", content)
		for _, r := range []struct {
			entries []Entry
			err     error
		}{{first, firstErr}, {second, secondErr}} {
			if (r.err == nil) != (wantErr == nil) || (r.err != nil && r.err.Error() != "confparse: "+app+" (fuzz.conf): "+wantErr.Error()) {
				t.Fatalf("scratch error %v, oracle %v", r.err, wantErr)
			}
			if !reflect.DeepEqual(pointers(r.entries), want) {
				t.Fatalf("scratch entries differ from the oracle\ngot:    %s\noracle: %s", dumpEntries(pointers(r.entries)), dumpEntries(want))
			}
		}
		file, err := Parse(app, "fuzz.conf", content)
		if err != nil {
			msg := err.Error()
			if !strings.Contains(msg, app) || !strings.Contains(msg, "fuzz.conf") {
				t.Fatalf("parse error lost its app/file context: %v", err)
			}
			return
		}
		rendered, err := Render(file)
		if err != nil {
			t.Fatalf("render of parsed file failed: %v", err)
		}
		// Re-parsing rendered output must not panic; well-formed inputs
		// round-trip, adversarial ones may legitimately re-fail.
		_, _ = Parse(app, "fuzz.conf", rendered)
	})
}

// pointers returns scratch entries in Dialect.Parse's form: nil for none.
func pointers(es []Entry) []*Entry {
	var out []*Entry
	for i := range es {
		out = append(out, &es[i])
	}
	return out
}

// dumpEntries renders entries for a failure message.
func dumpEntries(es []*Entry) string {
	var b strings.Builder
	for _, e := range es {
		b.WriteString(strings.Join([]string{e.Section, e.Key, strings.Join(e.Values, "\x1f")}, " | "))
		if e.IsSection {
			b.WriteString(" (section)")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func FuzzApacheParse(f *testing.F) {
	fuzzDialect(f, "apache", []string{
		"",
		"ServerRoot /etc/apache2\nListen 80\n",
		"LoadModule php_module modules/libphp.so\n",
		"<VirtualHost *:80>\n  DocumentRoot /var/www\n</VirtualHost>\n",
		"<VirtualHost *:80>\n<Directory /var/www>\nAllowOverride None\n</Directory>\n</VirtualHost>\n",
		"# comment\n\nKeepAlive On\n",
		"<VirtualHost *:80>\nDocumentRoot /var/www\n", // unclosed section
		"</VirtualHost>\n", // close with no open
		"<>\n",             // empty section
		"<Broken\n",        // unterminated header
		"Alias \"/icons/\" '/usr/share/apache2/icons/'\nHeader set X \"a b\"c d\"\"e\n",
		"<Directory \"/var/www\">\n<Files '*.php'>\nRequire all granted\n</Files>\n</Directory>\nTail x\n",
		"Unterminated \"quote here\nNext 'a''b' \"\" ''\n",
	})
}

func FuzzINIParse(f *testing.F) {
	fuzzDialect(f, "mysql", []string{
		"",
		"[mysqld]\ndatadir = /var/lib/mysql\nport = 3306\n",
		"[mysqld]\nskip-networking\n",
		"; comment\n# comment\nkey = value\n",
		"[client]\nsocket=/run/mysqld/mysqld.sock\n",
		"key = value with spaces\n",
		"[unterminated\n",
		"[]\n",
		"= novalue\n",
	})
}

func FuzzSSHDParse(f *testing.F) {
	fuzzDialect(f, "sshd", []string{
		"",
		"Port 22\nPermitRootLogin no\n",
		"ListenAddress 0.0.0.0\nListenAddress ::\n",
		"Match User git\n  ForceCommand git-shell\n",
		"Match\n", // Match with no criteria
		"# comment\nSubsystem sftp /usr/lib/openssh/sftp-server\n",
		"AcceptEnv LANG LC_*\n",
		"Match User \"git user\" Address '10.0.0.*'\n  Banner \"/etc/ban\"ner\n",
	})
}

// TestStripCommentMatchesOracle covers the markers the fuzzed dialects do
// not use — empty and multi-byte — against the comment stripper as first
// written.
func TestStripCommentMatchesOracle(t *testing.T) {
	lines := []string{"", "a # b", `"#" x # y`, "k = v ; c", "x // y", "'--' -- z", `"open`, "a#", "#", "//"}
	for _, m := range []string{"", "#", ";", "//", "--"} {
		for _, l := range lines {
			if got, want := stripComment(l, m), oracleStripComment(l, m); got != want {
				t.Errorf("stripComment(%q, %q) = %q, oracle %q", l, m, got, want)
			}
		}
	}
}
