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
func (d *SSHDDialect) Parse(content string) ([]*Entry, error) {
	var entries []*Entry
	section := ""
	for lineNo, rest, more := 0, content, true; more; {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		lineNo++
		line := strings.TrimSpace(stripComment(raw, "#"))
		if line == "" {
			continue
		}
		fields := splitArgs(line)
		if len(fields) == 0 {
			continue
		}
		if strings.EqualFold(fields[0], "Match") {
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: Match with no criteria", lineNo)
			}
			section = "Match:" + strings.Join(fields[1:], ":")
			continue
		}
		entries = append(entries, &Entry{
			Section: section,
			Key:     fields[0],
			Values:  fields[1:],
			Line:    lineNo,
		})
	}
	return entries, nil
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
