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
func (d *ApacheDialect) Parse(content string) ([]*Entry, error) {
	var entries []*Entry
	// stack holds the open section path elements; paths[i] is stack[:i+1]
	// joined with '|', so an entry's section is one lookup, not a join.
	var stack, paths []string
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
			if len(stack) == 0 {
				return nil, fmt.Errorf("line %d: closing </%s> with no open section", lineNo, name)
			}
			top := stack[len(stack)-1]
			if !strings.EqualFold(sectionKind(top), name) {
				return nil, fmt.Errorf("line %d: closing </%s> does not match open <%s>", lineNo, name, sectionKind(top))
			}
			stack, paths = stack[:len(stack)-1], paths[:len(paths)-1]
			section = ""
			if len(paths) > 0 {
				section = paths[len(paths)-1]
			}
		case strings.HasPrefix(line, "<"):
			if !strings.HasSuffix(line, ">") {
				return nil, fmt.Errorf("line %d: unterminated section %q", lineNo, line)
			}
			inner := strings.TrimSuffix(strings.TrimPrefix(line, "<"), ">")
			fields := splitArgs(inner)
			if len(fields) == 0 {
				return nil, fmt.Errorf("line %d: empty section", lineNo)
			}
			// The section container itself is observable: emit a
			// pseudo-entry carrying its arguments so rules can correlate
			// against them (e.g. DocumentRoot with <Directory> paths).
			entries = append(entries, &Entry{
				Section:   section,
				Key:       fields[0],
				Values:    fields[1:],
				Line:      lineNo,
				IsSection: true,
			})
			elem := fields[0]
			if len(fields) > 1 {
				elem += ":" + strings.Join(fields[1:], ":")
			}
			if section != "" {
				section += "|" + elem
			} else {
				section = elem
			}
			stack, paths = append(stack, elem), append(paths, section)
		default:
			fields := splitArgs(line)
			if len(fields) == 0 {
				continue
			}
			entries = append(entries, &Entry{
				Section: section,
				Key:     fields[0],
				Values:  fields[1:],
				Line:    lineNo,
			})
		}
	}
	if len(stack) > 0 {
		return nil, fmt.Errorf("unclosed section <%s>", sectionKind(stack[len(stack)-1]))
	}
	return entries, nil
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
	kind, _ := sectionKindArg(elem)
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

// splitArgs tokenizes a directive line, honoring double- and single-quoted
// arguments. An argument that is one contiguous span of line — unquoted,
// or a single quoted run — is returned as a substring of line; only an
// argument splicing quoted and unquoted parts ("a"b) is copied.
func splitArgs(line string) []string {
	var args []string
	for i := 0; i < len(line); {
		if line[i] == ' ' || line[i] == '\t' {
			i++
			continue
		}
		var arg string
		arg, i = scanArg(line, i)
		if arg != "" {
			args = append(args, arg)
		}
	}
	return args
}

// scanArg reads the argument starting at line[i] and returns it with the
// index of the blank (or end of line) that ends it. [lo, hi) is the
// current contiguous run of argument bytes; spliced collects the runs
// before it once a quote character has interrupted one.
func scanArg(line string, i int) (string, int) {
	var spliced []byte
	lo, hi := i, i
	inQuote := byte(0)
	for ; i < len(line); i++ {
		c := line[i]
		if inQuote != 0 {
			if c == inQuote {
				inQuote = 0
				continue
			}
		} else if c == '"' || c == '\'' {
			inQuote = c
			continue
		} else if c == ' ' || c == '\t' {
			break
		}
		if i == hi {
			hi++
			continue
		}
		if hi > lo {
			spliced = append(spliced, line[lo:hi]...)
		}
		lo, hi = i, i+1
	}
	if spliced == nil {
		return line[lo:hi], i
	}
	return string(append(spliced, line[lo:hi]...)), i
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
