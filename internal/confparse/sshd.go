package confparse

import (
	"fmt"
	"strings"
)

// SSHDDialect parses the flat keyword-argument format of sshd_config:
// "Keyword value [value...]" lines, '#' comments, and Match blocks which
// scope subsequent keywords (modeled as a section).
type SSHDDialect struct{}

// NewSSHDDialect returns the dialect for sshd_config.
func NewSSHDDialect() *SSHDDialect { return &SSHDDialect{} }

// Name implements Dialect.
func (d *SSHDDialect) Name() string { return "sshd" }

// Parse implements Dialect.
func (d *SSHDDialect) Parse(content string) ([]*Entry, error) { return detach(d, content) }

// parseInto is the sshd_config grammar, parsing content into s.
func (d *SSHDDialect) parseInto(s *Scratch, content string) error {
	section := ""
	for lineNo, rest, more := 0, content, true; more; {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		lineNo++
		line := strings.TrimSpace(stripComment(raw, "#"))
		if line == "" {
			continue
		}
		mark := s.splitArgs(line)
		if mark == len(s.values) {
			continue
		}
		if strings.EqualFold(s.values[mark], "Match") {
			if len(s.values)-mark < 2 {
				return fmt.Errorf("line %d: Match with no criteria", lineNo)
			}
			section = s.sectionPath("", "Match", s.values[mark+1:])
			s.dropArgs(mark)
			continue
		}
		s.addLine(section, mark, lineNo, false)
	}
	return nil
}

// Render implements Dialect.
func (d *SSHDDialect) Render(entries []*Entry) string {
	var b strings.Builder
	current := ""
	for _, e := range entries {
		if e.Section != current {
			current = e.Section
			if current != "" {
				crit := strings.ReplaceAll(strings.TrimPrefix(current, "Match:"), ":", " ")
				fmt.Fprintf(&b, "Match %s\n", crit)
			}
		}
		indent := ""
		if current != "" {
			indent = "    "
		}
		if len(e.Values) > 0 {
			fmt.Fprintf(&b, "%s%s %s\n", indent, e.Key, strings.Join(quoteArgs(e.Values), " "))
		} else {
			fmt.Fprintf(&b, "%s%s\n", indent, e.Key)
		}
	}
	return b.String()
}
