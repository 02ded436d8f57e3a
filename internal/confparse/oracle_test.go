package confparse

import (
	"fmt"
	"strings"
)

// The dialect parsers as first written — strings.Split over the whole
// file, a per-entry join of the Apache section stack, every argument
// copied through a strings.Builder, a prefix test at every byte for
// comments — kept as differential oracles for the zero-copy tokenizer
// (see fuzzDialect).

// oracleApacheParse is ApacheDialect.Parse as first written.
func oracleApacheParse(content string) ([]*Entry, error) {
	var entries []*Entry
	var stack []string // open section path elements
	for lineNo, raw := range strings.Split(content, "\n") {
		line := strings.TrimSpace(oracleStripComment(raw, "#"))
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "</"):
			name := strings.TrimSuffix(strings.TrimPrefix(line, "</"), ">")
			if len(stack) == 0 {
				return nil, fmt.Errorf("line %d: closing </%s> with no open section", lineNo+1, name)
			}
			top := stack[len(stack)-1]
			if !strings.EqualFold(sectionKind(top), name) {
				return nil, fmt.Errorf("line %d: closing </%s> does not match open <%s>", lineNo+1, name, sectionKind(top))
			}
			stack = stack[:len(stack)-1]
		case strings.HasPrefix(line, "<"):
			if !strings.HasSuffix(line, ">") {
				return nil, fmt.Errorf("line %d: unterminated section %q", lineNo+1, line)
			}
			inner := strings.TrimSuffix(strings.TrimPrefix(line, "<"), ">")
			fields := oracleSplitArgs(inner)
			if len(fields) == 0 {
				return nil, fmt.Errorf("line %d: empty section", lineNo+1)
			}
			// The section container itself is observable: emit a
			// pseudo-entry carrying its arguments so rules can correlate
			// against them (e.g. DocumentRoot with <Directory> paths).
			entries = append(entries, &Entry{
				Section:   strings.Join(stack, "|"),
				Key:       fields[0],
				Values:    fields[1:],
				Line:      lineNo + 1,
				IsSection: true,
			})
			elem := fields[0]
			if len(fields) > 1 {
				elem += ":" + strings.Join(fields[1:], ":")
			}
			stack = append(stack, elem)
		default:
			fields := oracleSplitArgs(line)
			if len(fields) == 0 {
				continue
			}
			entries = append(entries, &Entry{
				Section: strings.Join(stack, "|"),
				Key:     fields[0],
				Values:  fields[1:],
				Line:    lineNo + 1,
			})
		}
	}
	if len(stack) > 0 {
		return nil, fmt.Errorf("unclosed section <%s>", sectionKind(stack[len(stack)-1]))
	}
	return entries, nil
}

// oracleINIParse is INIDialect.Parse as first written.
func oracleINIParse(d *INIDialect, content string) ([]*Entry, error) {
	var entries []*Entry
	section := ""
	for lineNo, raw := range strings.Split(content, "\n") {
		line := raw
		for _, m := range d.commentMarkers {
			line = oracleStripComment(line, m)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("line %d: unterminated section header %q", lineNo+1, line)
			}
			section = strings.TrimSpace(line[1 : len(line)-1])
			if section == "" {
				return nil, fmt.Errorf("line %d: empty section header", lineNo+1)
			}
			continue
		}
		key, value, hasValue := strings.Cut(line, "=")
		key = strings.TrimSpace(key)
		if key == "" {
			return nil, fmt.Errorf("line %d: missing key", lineNo+1)
		}
		e := &Entry{Section: section, Key: key, Line: lineNo + 1}
		if hasValue {
			e.Values = []string{unquote(strings.TrimSpace(value))}
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// oracleSSHDParse is SSHDDialect.Parse as first written.
func oracleSSHDParse(content string) ([]*Entry, error) {
	var entries []*Entry
	section := ""
	for lineNo, raw := range strings.Split(content, "\n") {
		line := strings.TrimSpace(oracleStripComment(raw, "#"))
		if line == "" {
			continue
		}
		fields := oracleSplitArgs(line)
		if len(fields) == 0 {
			continue
		}
		if strings.EqualFold(fields[0], "Match") {
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: Match with no criteria", lineNo+1)
			}
			section = "Match:" + strings.Join(fields[1:], ":")
			continue
		}
		entries = append(entries, &Entry{
			Section: section,
			Key:     fields[0],
			Values:  fields[1:],
			Line:    lineNo + 1,
		})
	}
	return entries, nil
}

// oracleSplitArgs is splitArgs as first written: every argument built
// byte by byte.
func oracleSplitArgs(line string) []string {
	var args []string
	var cur strings.Builder
	inQuote := byte(0)
	flush := func() {
		if cur.Len() > 0 {
			args = append(args, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '"' || c == '\'':
			inQuote = c
		case c == ' ' || c == '\t':
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return args
}

// oracleStripComment is stripComment as first written.
func oracleStripComment(line, marker string) string {
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
		case strings.HasPrefix(line[i:], marker):
			return line[:i]
		}
	}
	return line
}
