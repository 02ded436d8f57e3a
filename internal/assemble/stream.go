package assemble

import (
	"strconv"
	"time"

	"repro/internal/confparse"
	"repro/internal/conftypes"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// TargetSink receives the assembled attribute stream of one image. The
// compiled check plan implements it over pooled per-worker scratch so a
// batch scan builds no dataset, no attribute index, and no fresh name
// strings per image; the assembler's own row sink implements it to build
// the dataset rows of training, delta and target assembly.
//
// The stream order is: for every entry argument Declare, then Add, then
// the Table 5a augmentations (each Declare+Add); finally the Table 5b
// environment attributes.
type TargetSink interface {
	// Declare announces an attribute before its first Add. augmented marks
	// attributes synthesized from environment data. Declarations repeat
	// (once per occurrence); first-declaration semantics are the sink's
	// responsibility, mirroring dataset.DeclareAttr.
	Declare(name string, t conftypes.Type, augmented bool)
	// Add records one instance value of an attribute.
	Add(name, value string)
	// TypeOf resolves the semantic type of an entry attribute. value is
	// the instance being emitted; AssembleTarget's one-pass type map means
	// the first observed instance decides the type for every later
	// occurrence of the same name, so sinks must memoize their answer.
	TypeOf(name, value string) conftypes.Type
	// InternName canonicalizes a constructed attribute name. The byte
	// slice is only valid during the call; sinks return a stable string
	// (typically from an interning table keyed by the training attribute
	// names, so repeated names across a corpus cost no allocation).
	InternName(name []byte) string
}

// appendEntryName appends the canonical attribute name of one entry
// argument to buf: "app:section/key" or "app:key", plus "/argN" for
// multi-argument entries.
func appendEntryName(buf []byte, app string, e *confparse.Entry, argIdx, argCount int) []byte {
	buf = append(buf, app...)
	buf = append(buf, ':')
	if e.Section != "" {
		buf = append(buf, e.Section...)
		buf = append(buf, '/')
	}
	buf = append(buf, e.Key...)
	if argCount > 1 {
		buf = append(buf, "/arg"...)
		buf = strconv.AppendInt(buf, int64(argIdx+1), 10)
	}
	return buf
}

// forEachEntry calls fn for every entry instance of pi in stream order,
// with the instance's attribute name built in buf. Bare flags carry the
// implicit value "on"; multi-argument entries contribute one instance per
// argument. name is only valid during the call; fn returns the (possibly
// grown) scratch buffer for the next name.
func forEachEntry(buf []byte, pi parsedImage, fn func(name []byte, value string) []byte) []byte {
	for _, f := range pi.files {
		for _, e := range f.Entries {
			if len(e.Values) == 0 {
				buf = fn(appendEntryName(buf[:0], f.App, e, 0, 1), "on")
				continue
			}
			for i, v := range e.Values {
				buf = fn(appendEntryName(buf[:0], f.App, e, i, len(e.Values)), v)
			}
		}
	}
	return buf
}

// StreamTarget parses one target image and streams its assembled
// attributes — configuration entries, Table 5a augmentations, Table 5b
// environment attributes — into sink, without materializing a dataset.
// It is the per-image fast path of the compiled check plan
// (internal/detect.Plan), and AssembleTarget is this stream collected
// into a one-row dataset.
func (a *Assembler) StreamTarget(img *sysimage.Image, sink TargetSink) error {
	start := time.Now()
	pi, err := parseOne(img)
	a.Telemetry.ObserveDur(telemetry.HistImageParse, time.Since(start))
	if err != nil {
		return err
	}
	a.Telemetry.Add(telemetry.CounterImagesParsed, 1)
	a.Telemetry.Add(telemetry.CounterFilesParsed, int64(len(img.ConfigFiles)))
	a.stream(make([]byte, 0, 96), pi, sink)
	return nil
}

// stream walks one parsed image into sink: the one code path that turns
// configuration entries and the image's environment into attribute
// instances, for scans and for every dataset the assembler builds. buf is
// scratch for constructed names; the grown buffer is returned for reuse.
func (a *Assembler) stream(buf []byte, pi parsedImage, sink TargetSink) []byte {
	buf = forEachEntry(buf, pi, func(name []byte, value string) []byte {
		return a.streamOne(name, sink, sink.InternName(name), value, pi.img)
	})
	for _, env := range a.envAttrs {
		if v, ok := env.Compute(pi.img); ok {
			sink.Declare(env.Name, env.Type, true)
			sink.Add(env.Name, v)
		}
	}
	return buf
}

// streamOne emits one entry attribute instance and its augmentations,
// returning the (possibly grown) scratch buffer.
func (a *Assembler) streamOne(buf []byte, sink TargetSink, name, value string, img *sysimage.Image) []byte {
	t := sink.TypeOf(name, value)
	sink.Declare(name, t, false)
	sink.Add(name, value)
	if a.SkipPatternValues && conftypes.LooksLikeRegexOrGlob(value) {
		return buf
	}
	for _, aug := range a.augmenters[t] {
		v, ok := aug.Compute(value, img)
		if !ok {
			continue
		}
		buf = append(buf[:0], name...)
		buf = append(buf, '.')
		buf = append(buf, aug.Suffix...)
		augName := sink.InternName(buf)
		sink.Declare(augName, aug.Type, true)
		sink.Add(augName, v)
	}
	return buf
}
