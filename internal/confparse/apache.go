package confparse

import (
	"fmt"
	"strings"
)

// ApacheDialect parses the Apache httpd directive format: one directive per
// line with whitespace-separated arguments, '#' comments, and nested
// container sections such as <Directory /var/www> ... </Directory>.
type ApacheDialect struct{}

// NewApacheDialect returns the dialect for Apache-style configuration.
func NewApacheDialect() *ApacheDialect { return &ApacheDialect{} }

// Name implements Dialect.
func (d *ApacheDialect) Name() string { return "apache" }

// Parse implements Dialect.
func (d *ApacheDialect) Parse(content string) ([]*Entry, error) { return detach(d, content) }

// parseInto is the Apache grammar, parsing content into s.
func (d *ApacheDialect) parseInto(s *Scratch, content string) error {
	s.stack = s.stack[:0]
	section := ""
	for lineNo, rest, more := 0, content, true; more; {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		lineNo++
		line := strings.TrimSpace(stripComment(raw, "#"))
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "</"):
			name := strings.TrimSuffix(strings.TrimPrefix(line, "</"), ">")
			if len(s.stack) == 0 {
				return fmt.Errorf("line %d: closing </%s> with no open section", lineNo, name)
			}
			top := s.stack[len(s.stack)-1]
			if !strings.EqualFold(top.kind, name) {
				return fmt.Errorf("line %d: closing </%s> does not match open <%s>", lineNo, name, top.kind)
			}
			s.stack = s.stack[:len(s.stack)-1]
			section = ""
			if n := len(s.stack); n > 0 {
				section = s.stack[n-1].path
			}
		case strings.HasPrefix(line, "<"):
			if !strings.HasSuffix(line, ">") {
				return fmt.Errorf("line %d: unterminated section %q", lineNo, line)
			}
			inner := strings.TrimSuffix(strings.TrimPrefix(line, "<"), ">")
			mark := s.splitArgs(inner)
			if mark == len(s.values) {
				return fmt.Errorf("line %d: empty section", lineNo)
			}
			// The section container itself is observable: emit a
			// pseudo-entry carrying its arguments so rules can correlate
			// against them (e.g. DocumentRoot with <Directory> paths).
			s.addLine(section, mark, lineNo, true)
			kind := s.values[mark]
			section = s.sectionPath(section, kind, s.values[mark+1:])
			s.stack = append(s.stack, openSection{kind: sectionKind(kind), path: section})
		default:
			if mark := s.splitArgs(line); mark < len(s.values) {
				s.addLine(section, mark, lineNo, false)
			}
		}
	}
	if len(s.stack) > 0 {
		return fmt.Errorf("unclosed section <%s>", s.stack[len(s.stack)-1].kind)
	}
	return nil
}

// Render implements Dialect. Entries are emitted in order, opening and
// closing section containers as the section path changes.
func (d *ApacheDialect) Render(entries []*Entry) string {
	var b strings.Builder
	var open []string
	for _, e := range entries {
		want := splitSection(e.Section)
		if e.IsSection {
			// A section pseudo-entry renders as the container itself:
			// extend the desired path with its own element and emit no
			// directive line.
			elem := e.Key
			if len(e.Values) > 0 {
				elem += ":" + strings.Join(e.Values, ":")
			}
			want = append(want, elem)
		}
		// Close sections no longer shared with the desired path.
		common := 0
		for common < len(open) && common < len(want) && open[common] == want[common] {
			common++
		}
		for i := len(open) - 1; i >= common; i-- {
			fmt.Fprintf(&b, "%s</%s>\n", strings.Repeat("    ", i), sectionKind(open[i]))
		}
		open = open[:common]
		// Open the remaining sections of the desired path.
		for i := common; i < len(want); i++ {
			kind, arg := sectionKindArg(want[i])
			if arg != "" {
				fmt.Fprintf(&b, "%s<%s %s>\n", strings.Repeat("    ", i), kind, arg)
			} else {
				fmt.Fprintf(&b, "%s<%s>\n", strings.Repeat("    ", i), kind)
			}
			open = append(open, want[i])
		}
		if e.IsSection {
			continue
		}
		indent := strings.Repeat("    ", len(open))
		if len(e.Values) > 0 {
			fmt.Fprintf(&b, "%s%s %s\n", indent, e.Key, strings.Join(quoteArgs(e.Values), " "))
		} else {
			fmt.Fprintf(&b, "%s%s\n", indent, e.Key)
		}
	}
	for i := len(open) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "%s</%s>\n", strings.Repeat("    ", i), sectionKind(open[i]))
	}
	return b.String()
}

// splitSection splits a nested-section path. Nested containers are joined
// with '|' (not '/') because section arguments are often file paths that
// themselves contain slashes.
func splitSection(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "|")
}

// sectionKind returns the container kind of a section path element
// ("Directory:/var/www" -> "Directory").
func sectionKind(elem string) string {
	kind, _, _ := strings.Cut(elem, ":")
	return kind
}

func sectionKindArg(elem string) (kind, arg string) {
	if i := strings.Index(elem, ":"); i >= 0 {
		return elem[:i], strings.ReplaceAll(elem[i+1:], ":", " ")
	}
	return elem, ""
}

// stripComment removes an unquoted trailing comment introduced by marker.
// The first-byte test keeps the prefix comparison off all but the bytes
// that can start the marker.
func stripComment(line, marker string) string {
	inQuote := byte(0)
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			}
		case c == '"' || c == '\'':
			inQuote = c
		case (marker == "" || c == marker[0]) && strings.HasPrefix(line[i:], marker):
			return line[:i]
		}
	}
	return line
}

// quoteArgs re-quotes arguments containing whitespace.
func quoteArgs(args []string) []string {
	out := make([]string, len(args))
	for i, a := range args {
		if strings.ContainsAny(a, " \t") {
			out[i] = `"` + a + `"`
		} else {
			out[i] = a
		}
	}
	return out
}
