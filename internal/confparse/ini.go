package confparse

import (
	"fmt"
	"strings"
)

// INIDialect parses the INI family used by MySQL (my.cnf) and PHP
// (php.ini): [section] headers, key = value lines, bare boolean flags
// (MySQL's skip-networking), and configurable comment markers.
type INIDialect struct {
	commentMarkers []string
}

// NewINIDialect returns an INI dialect using the given comment markers
// (e.g. "#" and ";").
func NewINIDialect(markers ...string) *INIDialect {
	if len(markers) == 0 {
		markers = []string{"#", ";"}
	}
	return &INIDialect{commentMarkers: markers}
}

// Name implements Dialect.
func (d *INIDialect) Name() string { return "ini" }

// Parse implements Dialect.
func (d *INIDialect) Parse(content string) ([]*Entry, error) { return detach(d, content) }

// parseInto is the INI grammar, parsing content into s.
func (d *INIDialect) parseInto(s *Scratch, content string) error {
	section := ""
	for lineNo, rest, more := 0, content, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		lineNo++
		for _, m := range d.commentMarkers {
			line = stripComment(line, m)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return fmt.Errorf("line %d: unterminated section header %q", lineNo, line)
			}
			section = strings.TrimSpace(line[1 : len(line)-1])
			if section == "" {
				return fmt.Errorf("line %d: empty section header", lineNo)
			}
			continue
		}
		key, value, hasValue := strings.Cut(line, "=")
		key = strings.TrimSpace(key)
		if key == "" {
			return fmt.Errorf("line %d: missing key", lineNo)
		}
		if hasValue {
			s.addValue(section, key, unquote(strings.TrimSpace(value)), lineNo)
		} else {
			s.entries = append(s.entries, Entry{Section: section, Key: key, Line: lineNo})
		}
	}
	return nil
}

// Render implements Dialect, grouping entries under section headers in
// first-appearance order.
func (d *INIDialect) Render(entries []*Entry) string {
	var b strings.Builder
	current := ""
	first := true
	for _, e := range entries {
		if e.Section != current || first {
			if e.Section != "" && (e.Section != current || first) {
				if !first {
					b.WriteString("\n")
				}
				fmt.Fprintf(&b, "[%s]\n", e.Section)
			}
			current = e.Section
		}
		first = false
		if len(e.Values) == 0 {
			fmt.Fprintf(&b, "%s\n", e.Key)
		} else {
			v := e.Value()
			if strings.ContainsAny(v, " \t") || v == "" {
				v = `"` + v + `"`
			}
			fmt.Fprintf(&b, "%s = %s\n", e.Key, v)
		}
	}
	return b.String()
}

func unquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	return s
}
