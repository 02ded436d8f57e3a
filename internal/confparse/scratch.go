package confparse

import "fmt"

// Scratch is reusable parse state: a worker that parses file after file
// into one Scratch allocates nothing per entry once the scratch has grown
// to its working size. Entries are held by value, their Values are carved
// from one shared arena, and Apache and sshd section paths built from
// several tokens come from a bounded per-scratch table instead of a fresh
// concatenation per section.
//
// Lifetime: the entries a Parse returns, their Values slices, and the
// scratch's own buffers are valid only until the next Reset. Nothing may
// keep them past the call that parsed them; a caller that needs entries
// longer copies them out. The strings an entry holds are safe to keep:
// keys and values alias the parsed content (a spliced quoted argument is
// an ordinary Go string), and section paths are ordinary Go strings.
//
// A Scratch is not safe for concurrent use. The zero value is ready to
// use.
type Scratch struct {
	entries []Entry
	// values is the arena every entry's Values is carved from. Each
	// argument-split line also parks its key in the slot before its
	// values.
	values []string
	// sections maps a built section path to its one string.
	sections map[string]string
	// stack is the open Apache section nesting.
	stack []openSection
	// path builds section paths; splice builds spliced arguments.
	path, splice []byte
}

// openSection is one open Apache container: its kind, for matching the
// closing tag, and the full section path of the entries inside it.
type openSection struct {
	kind, path string
}

// scratchParser is implemented by the built-in dialects: each has one
// grammar, which parses into a Scratch, and its Parse wraps that.
type scratchParser interface {
	parseInto(s *Scratch, content string) error
}

// Bounds on what a pooled Scratch keeps across Reset: a scratch that grew
// past them drops the arrays, and a section table that filled up starts
// over, so one outsized or adversarial file cannot pin memory for the
// life of the pool.
const (
	maxKeptEntries  = 1 << 12
	maxKeptValues   = 1 << 13
	maxKeptBuffer   = 1 << 12
	maxSectionPaths = 1 << 10
	// maxTabledPath bounds the length of a path the table keeps; a longer
	// one is built afresh each time it is opened.
	maxTabledPath = 256
)

// Parse parses content with the dialect registered for app and appends
// its entries to the scratch, returning them. Entries returned by earlier
// Parse calls stay valid until Reset, so the files of one image can be
// parsed back to back. A failed parse appends nothing; its error carries
// the app and path exactly as the package-level Parse's does.
//
// A dialect registered from outside the package parses through its own
// Parse, and its entries are copied in.
func (s *Scratch) Parse(app, path, content string) ([]Entry, error) {
	d, err := ForApp(app)
	if err != nil {
		return nil, err
	}
	lo, vlo := len(s.entries), len(s.values)
	if p, ok := d.(scratchParser); ok {
		err = p.parseInto(s, content)
	} else {
		var es []*Entry
		if es, err = d.Parse(content); err == nil {
			for _, e := range es {
				s.entries = append(s.entries, *e)
			}
		}
	}
	if err != nil {
		clear(s.entries[lo:])
		clear(s.values[vlo:])
		s.entries, s.values = s.entries[:lo], s.values[:vlo]
		return nil, fmt.Errorf("confparse: %s (%s): %w", app, path, err)
	}
	return s.entries[lo:len(s.entries):len(s.entries)], nil
}

// Reset invalidates every entry the scratch has returned and readies it
// for reuse. It clears the references the scratch held, so a pooled
// scratch pins no configuration content, and drops whatever outgrew the
// bounds above.
func (s *Scratch) Reset() {
	clear(s.entries)
	clear(s.values)
	s.entries, s.values = s.entries[:0], s.values[:0]
	if cap(s.entries) > maxKeptEntries {
		s.entries = nil
	}
	if cap(s.values) > maxKeptValues {
		s.values = nil
	}
	if len(s.sections) >= maxSectionPaths {
		s.sections = nil
	}
	clear(s.stack[:cap(s.stack)])
	s.stack = s.stack[:0]
	if cap(s.path) > maxKeptBuffer {
		s.path = nil
	}
	if cap(s.splice) > maxKeptBuffer {
		s.splice = nil
	}
}

// splitArgs tokenizes a directive line into the values arena, honoring
// double- and single-quoted arguments, and returns the arena index of the
// first argument. An argument that is one contiguous span of line —
// unquoted, or a single quoted run — is a substring of line; only an
// argument splicing quoted and unquoted parts ("a"b) is copied, into a
// string of its own.
func (s *Scratch) splitArgs(line string) int {
	mark := len(s.values)
	for i := 0; i < len(line); {
		if line[i] == ' ' || line[i] == '\t' {
			i++
			continue
		}
		var arg string
		arg, i = s.scanArg(line, i)
		if arg != "" {
			s.values = append(s.values, arg)
		}
	}
	return mark
}

// scanArg reads the argument starting at line[i] and returns it with the
// index of the blank (or end of line) that ends it. [lo, hi) is the
// current contiguous run of argument bytes; spliced reports that a quote
// character interrupted an earlier run, whose bytes are in s.splice.
func (s *Scratch) scanArg(line string, i int) (string, int) {
	spliced := false
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
			if !spliced {
				s.splice, spliced = s.splice[:0], true
			}
			s.splice = append(s.splice, line[lo:hi]...)
		}
		lo, hi = i, i+1
	}
	if !spliced {
		return line[lo:hi], i
	}
	s.splice = append(s.splice, line[lo:hi]...)
	return string(s.splice), i
}

// addLine appends the entry for an argument-split line whose key is the
// arena slot mark and whose values are the slots after it.
func (s *Scratch) addLine(section string, mark, lineNo int, isSection bool) {
	end := len(s.values)
	s.entries = append(s.entries, Entry{
		Section:   section,
		Key:       s.values[mark],
		Values:    s.values[mark+1 : end : end],
		Line:      lineNo,
		IsSection: isSection,
	})
}

// addValue appends an entry with a single value.
func (s *Scratch) addValue(section, key, value string, lineNo int) {
	s.values = append(s.values, value)
	end := len(s.values)
	s.entries = append(s.entries, Entry{Section: section, Key: key, Values: s.values[end-1 : end : end], Line: lineNo})
}

// dropArgs discards the arena slots from mark on.
func (s *Scratch) dropArgs(mark int) {
	clear(s.values[mark:])
	s.values = s.values[:mark]
}

// sectionPath returns the section path parent|head:arg1:arg2..., without
// the "parent|" part at top level and without ":args" when there are
// none, as one string from the scratch's section table.
func (s *Scratch) sectionPath(parent, head string, args []string) string {
	b := s.path[:0]
	if parent != "" {
		b = append(append(b, parent...), '|')
	}
	b = append(b, head...)
	for _, a := range args {
		b = append(append(b, ':'), a...)
	}
	s.path = b
	if p, ok := s.sections[string(b)]; ok {
		return p
	}
	p := string(b)
	if len(s.sections) < maxSectionPaths && len(p) <= maxTabledPath {
		if s.sections == nil {
			s.sections = make(map[string]string)
		}
		s.sections[p] = p
	}
	return p
}

// detach parses content with p into a fresh scratch and returns the
// entries as the pointer slice Dialect.Parse promises, for the callers
// that keep and mutate them.
func detach(p scratchParser, content string) ([]*Entry, error) {
	var s Scratch
	if err := p.parseInto(&s, content); err != nil {
		return nil, err
	}
	if len(s.entries) == 0 {
		return nil, nil
	}
	out := make([]*Entry, len(s.entries))
	for i := range s.entries {
		out[i] = &s.entries[i]
	}
	return out, nil
}
