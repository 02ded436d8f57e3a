package telemetry

import (
	"slices"
	"time"
)

// Attr is one key/value annotation on a span (image name, worker id, app,
// rule key, ...).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A builds an attribute; it keeps span-creation call sites short.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Span is one in-flight timed operation. Spans form a tree: StartSpan
// opens a root, StartChild opens a child under any live span, End closes
// the span and files it with the recorder. A span is owned by the
// goroutine that started it (SetAttr and End are not synchronized), but
// StartChild may be called from any goroutine — pool workers routinely
// open children under a parent started by the coordinating goroutine.
// Every method is safe on a nil span, so instrumented code can hold the
// result of a nil recorder's StartSpan and call through it freely.
type Span struct {
	r      *Recorder
	id     int64
	parent int64
	name   string
	attrs  []Attr
	start  time.Duration // offset from the recorder's epoch
	began  time.Time
}

// SpanData is one completed span in a snapshot. Start is the offset from
// the recorder's creation, which makes exported timelines self-contained.
type SpanData struct {
	ID     int64
	Parent int64 // 0 for root spans
	Name   string
	Attrs  []Attr
	Start  time.Duration
	Dur    time.Duration
}

// StartSpan opens a root span. Safe on a nil recorder (returns a nil
// span, whose methods are all no-ops).
func (r *Recorder) StartSpan(name string, attrs ...Attr) *Span {
	return r.startSpan(name, 0, attrs)
}

// startSpan copies attrs rather than keeping the caller's slice, so the
// variadic slice of StartSpan and StartChild stays on the caller's stack
// and a nil recorder or span allocates nothing.
func (r *Recorder) startSpan(name string, parent int64, attrs []Attr) *Span {
	if r == nil {
		return nil
	}
	now := time.Now()
	return &Span{
		r:      r,
		id:     r.spanID.Add(1),
		parent: parent,
		name:   name,
		attrs:  slices.Clone(attrs),
		start:  now.Sub(r.epoch),
		began:  now,
	}
}

// ID returns the span's identifier (0 on a nil span), the value exported
// snapshots and span-correlated log records carry.
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// StartChild opens a child span under s. Safe on a nil span.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.r.startSpan(name, s.id, attrs)
}

// SetAttr appends an annotation to a live span (e.g. a result count known
// only at the end of the work). Safe on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End closes the span and records it. Safe on a nil span. Ending a span
// twice records it twice; don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	data := SpanData{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Attrs:  s.attrs,
		Start:  s.start,
		Dur:    time.Since(s.began),
	}
	s.r.spanMu.Lock()
	s.r.spans = append(s.r.spans, data)
	// A capped recorder (resident daemons, see SetSpanCap) sheds the
	// oldest half in one bulk move once the store overflows, so span
	// retention is bounded while recent requests stay inspectable.
	if s.r.spanCap > 0 && len(s.r.spans) > s.r.spanCap {
		keep := s.r.spanCap / 2
		if keep < 1 {
			keep = 1
		}
		n := copy(s.r.spans, s.r.spans[len(s.r.spans)-keep:])
		s.r.spans = s.r.spans[:n]
	}
	s.r.spanMu.Unlock()
}
