// Package confparse converts application-specific configuration files into
// uniform key-value entries, and renders them back to text.
//
// It plays the role Augeas plays in the paper: a pluggable parser framework
// where each supported format is a Dialect. Three families cover the four
// studied applications: the Apache directive format (with nested sections),
// the INI format (MySQL my.cnf and PHP php.ini), and the flat
// keyword-argument format of sshd_config.
//
// Parsed entries keep their section context, argument positions, and source
// line so that (a) the assembler can build stable attribute names like
// "mysqld/datadir" or "LoadModule/arg2", and (b) the error injector can
// mutate entries and render a faithful file back.
//
// Each built-in dialect has one grammar, which parses into a Scratch. The
// scan and learn paths parse every file of every image through a reused
// per-worker Scratch and allocate nothing per entry; Parse and
// Dialect.Parse wrap the same grammar for callers that keep and mutate
// entries (the error injector, the corpus, Render). Keys and values are
// substrings of the parsed content, never copies, so kept entries pin the
// content they came from.
package confparse

import (
	"fmt"
	"sort"
	"strings"
)

// Entry is one configuration setting: a key with one or more positional
// argument values, inside an optional (possibly nested) section.
type Entry struct {
	// Section is the section path: "" at top level, "mysqld" inside
	// [mysqld], "VirtualHost:*:80/Directory:/var/www" for nested Apache
	// sections.
	Section string
	// Key is the directive or option name as written.
	Key string
	// Values holds the positional arguments. Simple k=v options have one
	// value; Apache directives may have several. Bare boolean flags
	// (e.g. MySQL's skip-networking) have none.
	Values []string
	// Line is the 1-based source line, 0 for synthesized entries.
	Line int
	// IsSection marks a pseudo-entry emitted for a section container
	// itself (e.g. Apache's <Directory /var/www>), so that section
	// arguments participate in correlation learning as values. Dialects
	// that emit these must not render them as plain directives.
	IsSection bool
}

// Name returns the canonical attribute base name for the entry:
// section path and key joined with '/'.
func (e *Entry) Name() string {
	if e.Section == "" {
		return e.Key
	}
	return e.Section + "/" + e.Key
}

// Value returns the single joined value of the entry (arguments joined with
// a space), or "" for flag entries.
func (e *Entry) Value() string {
	return strings.Join(e.Values, " ")
}

// File is a parsed configuration file.
type File struct {
	App     string
	Path    string
	Entries []*Entry
}

// Dialect parses and renders one configuration format.
type Dialect interface {
	// Name identifies the dialect ("apache", "ini", "sshd").
	Name() string
	// Parse converts raw text to entries.
	Parse(content string) ([]*Entry, error)
	// Render serializes entries back to a file in this format. Rendering
	// a Parse result must re-parse to the same entries (round-trip).
	Render(entries []*Entry) string
}

var dialects = map[string]Dialect{}

// Register installs a dialect under the given application names. It backs
// the extensibility Augeas offers: users can import their own parsers.
func Register(d Dialect, apps ...string) {
	for _, app := range apps {
		dialects[app] = d
	}
}

// ForApp returns the dialect registered for an application.
func ForApp(app string) (Dialect, error) {
	d, ok := dialects[app]
	if !ok {
		known := make([]string, 0, len(dialects))
		for k := range dialects {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("confparse: no dialect for app %q (known: %s)", app, strings.Join(known, ", "))
	}
	return d, nil
}

// Parse parses content using the dialect registered for app into a File
// the caller owns: it allocates every entry, for callers that keep or
// mutate them. Hot paths parse through a reused Scratch instead.
func Parse(app, path, content string) (*File, error) {
	d, err := ForApp(app)
	if err != nil {
		return nil, err
	}
	entries, err := d.Parse(content)
	if err != nil {
		return nil, fmt.Errorf("confparse: %s (%s): %w", app, path, err)
	}
	return &File{App: app, Path: path, Entries: entries}, nil
}

// Render serializes the file using its app's dialect.
func Render(f *File) (string, error) {
	d, err := ForApp(f.App)
	if err != nil {
		return "", err
	}
	return d.Render(f.Entries), nil
}

// Find returns all entries whose canonical name matches name.
func (f *File) Find(name string) []*Entry {
	var out []*Entry
	for _, e := range f.Entries {
		if e.Name() == name {
			out = append(out, e)
		}
	}
	return out
}

// FindKey returns all entries with the given key, in any section.
func (f *File) FindKey(key string) []*Entry {
	var out []*Entry
	for _, e := range f.Entries {
		if e.Key == key {
			out = append(out, e)
		}
	}
	return out
}

// Remove deletes the first entry with the canonical name; it reports
// whether an entry was removed.
func (f *File) Remove(name string) bool {
	for i, e := range f.Entries {
		if e.Name() == name {
			f.Entries = append(f.Entries[:i], f.Entries[i+1:]...)
			return true
		}
	}
	return false
}

// Set replaces the value of the first entry with the canonical name, or
// appends a new top-level entry when absent.
func (f *File) Set(name string, values ...string) {
	for _, e := range f.Entries {
		if e.Name() == name {
			e.Values = values
			return
		}
	}
	section, key := "", name
	if i := strings.LastIndex(name, "/"); i >= 0 {
		section, key = name[:i], name[i+1:]
	}
	f.Entries = append(f.Entries, &Entry{Section: section, Key: key, Values: values})
}

// Clone returns a deep copy of the file, so injectors can mutate safely.
func (f *File) Clone() *File {
	c := &File{App: f.App, Path: f.Path, Entries: make([]*Entry, len(f.Entries))}
	for i, e := range f.Entries {
		dup := *e
		dup.Values = append([]string(nil), e.Values...)
		c.Entries[i] = &dup
	}
	return c
}

func init() {
	Register(NewApacheDialect(), "apache", "httpd")
	Register(NewINIDialect("#", ";"), "mysql", "php")
	Register(NewSSHDDialect(), "sshd")
}
