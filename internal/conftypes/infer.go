package conftypes

import (
	"strings"
	"sync"

	"repro/internal/sysimage"
)

// Sample is one observed value together with the image it was observed in,
// so semantic verification can consult the right environment.
type Sample struct {
	Value string
	Image *sysimage.Image
}

// Inferencer assigns semantic types to configuration entries. Custom type
// definitions (registered via AddCustom) take priority over the predefined
// ones, in registration order, exactly as the customization interface in
// the paper specifies.
type Inferencer struct {
	custom     []*Def
	predefined []*Def

	// MatchFraction is the minimum fraction of samples whose value must
	// pass the syntactic match for a type to remain a candidate.
	MatchFraction float64
	// VerifyFraction is the minimum fraction of syntactically matching
	// samples that must also pass semantic verification.
	VerifyFraction float64
}

// NewInferencer returns an Inferencer with the predefined types of Table 4
// and the default acceptance thresholds.
func NewInferencer() *Inferencer {
	return &Inferencer{
		predefined:     Predefined(),
		MatchFraction:  0.8,
		VerifyFraction: 0.8,
	}
}

// AddCustom registers a user-defined type; custom types are tried before
// every predefined type, in the order added.
func (inf *Inferencer) AddCustom(def *Def) {
	inf.custom = append(inf.custom, def)
}

// Defs returns all definitions in priority order.
func (inf *Inferencer) Defs() []*Def {
	out := make([]*Def, 0, len(inf.custom)+len(inf.predefined))
	out = append(out, inf.custom...)
	out = append(out, inf.predefined...)
	return out
}

// Def returns the definition for a type name, or nil. Custom defs shadow
// predefined ones, matching the Defs() order; no slice is built — this
// sits on the plan-compile path, once per attribute.
func (inf *Inferencer) Def(t Type) *Def {
	for _, d := range inf.custom {
		if d.Name == t {
			return d
		}
	}
	for _, d := range inf.predefined {
		if d.Name == t {
			return d
		}
	}
	return nil
}

// InferEntry infers the semantic type of a configuration entry from its
// observed samples across the training set.
//
// Booleans are decided first from the entry's complete value set (an entry
// whose every observed value belongs to the boolean lexicon is Boolean —
// including all-0/1 integer entries, reproducing the paper's measured
// false-type source). Then each type definition is tried in priority
// order: syntactic match on the required fraction of samples, followed by
// semantic verification where the type defines one. Entries matching
// nothing degrade to Number (if fully numeric) or String.
//
// A training entry takes few distinct values across many images, so the
// value-only steps — the lexicon test, each definition's Match and the
// numeric fallback — run once per distinct value; Verify, which reads the
// sample's own image, runs per matching sample.
func (inf *Inferencer) InferEntry(samples []Sample) Type {
	if len(samples) == 0 {
		return TypeString
	}
	sc := entryScratchPool.Get().(*entryScratch)
	sc.index(samples)
	t := inf.infer(samples, sc.values, sc.of, sc.match)
	sc.release()
	return t
}

// infer decides an entry's type. values holds the samples' distinct
// non-empty values in first-appearance order, of holds each sample's index
// into values (-1 for an empty value), and match is scratch with one slot
// per distinct value.
func (inf *Inferencer) infer(samples []Sample, values []string, of []int32, match []bool) Type {
	nonEmpty := 0
	for _, id := range of {
		if id >= 0 {
			nonEmpty++
		}
	}
	// An empty value is not a boolean word, so one empty sample rules
	// Boolean out.
	if nonEmpty == len(samples) && allBooleanWords(values) {
		return TypeBoolean
	}
	for _, defs := range [2][]*Def{inf.custom, inf.predefined} {
		for _, def := range defs {
			hit := false
			for i, v := range values {
				match[i] = def.Match(v)
				hit = hit || match[i]
			}
			if !hit {
				continue
			}
			matched, verified := 0, 0
			for i, id := range of {
				if id < 0 || !match[id] {
					continue
				}
				matched++
				if def.Verify == nil || def.Verify(samples[i].Value, samples[i].Image) {
					verified++
				}
			}
			if float64(matched)/float64(nonEmpty) < inf.MatchFraction {
				continue
			}
			if def.Verify != nil && float64(verified)/float64(matched) < inf.VerifyFraction {
				continue
			}
			return def.Name
		}
	}
	if nonEmpty == 0 {
		return TypeString
	}
	for _, v := range values {
		if !reNumber.MatchString(v) {
			return TypeString
		}
	}
	return TypeNumber
}

func allBooleanWords(values []string) bool {
	for _, v := range values {
		if !IsBooleanWord(v) {
			return false
		}
	}
	return true
}

// entryScratch indexes one InferEntry call's samples by distinct value.
// Scratches are pooled, so a warm call allocates nothing.
type entryScratch struct {
	values []string
	of     []int32
	match  []bool
	ids    map[string]int32
}

var entryScratchPool = sync.Pool{New: func() any { return &entryScratch{ids: make(map[string]int32)} }}

func (sc *entryScratch) index(samples []Sample) {
	for _, s := range samples {
		sc.of = append(sc.of, sc.id(s.Value))
	}
	if cap(sc.match) < len(sc.values) {
		sc.match = make([]bool, len(sc.values))
	}
	sc.match = sc.match[:len(sc.values)]
}

// id returns v's index in values, appending v if it is new; -1 for "".
func (sc *entryScratch) id(v string) int32 {
	if v == "" {
		return -1
	}
	id, ok := sc.ids[v]
	if !ok {
		id = int32(len(sc.values))
		sc.ids[v] = id
		sc.values = append(sc.values, v)
	}
	return id
}

// release empties the scratch, dropping its references to the samples'
// strings, and returns it to the pool.
func (sc *entryScratch) release() {
	clear(sc.values)
	sc.values = sc.values[:0]
	sc.of = sc.of[:0]
	clear(sc.ids)
	entryScratchPool.Put(sc)
}

// InferEntryNamed infers the entry's type like InferEntry and then applies
// entry-name disambiguation for the user/group ambiguity: an account name
// that exists as both a user and a group satisfies the UserName pattern
// first by priority, but when the entry's own name says "group" (Apache's
// Group, MySQL's innodb groups) and every sample verifies as a group, the
// semantic type is GroupName. Entry names carry exactly this kind of
// signal the paper's taxonomy source exploits.
func (inf *Inferencer) InferEntryNamed(name string, samples []Sample) Type {
	t := inf.InferEntry(samples)
	if t != TypeUserName || !strings.Contains(strings.ToLower(name), "group") {
		return t
	}
	for _, s := range samples {
		if s.Value == "" {
			continue
		}
		if s.Image == nil || !s.Image.GroupExists(s.Value) {
			return t
		}
	}
	return TypeGroupName
}

// InferValue infers a type for a single value in the context of one image.
// It is the path the anomaly detector uses when a target entry was never
// seen in training, so it decides exactly as InferEntry does on one sample
// without touching the scratch pool, and allocates nothing itself.
func (inf *Inferencer) InferValue(value string, img *sysimage.Image) Type {
	samples := [1]Sample{{Value: value, Image: img}}
	values := [1]string{value}
	of := [1]int32{0}
	var match [1]bool
	if value == "" {
		of[0] = -1
		return inf.infer(samples[:], values[:0], of[:], match[:0])
	}
	return inf.infer(samples[:], values[:], of[:], match[:])
}

// CheckValue validates a target value against a previously inferred type.
// It returns (syntacticOK, semanticOK). A type with no verifier reports
// semanticOK == syntacticOK. Trivial types always pass.
func (inf *Inferencer) CheckValue(t Type, value string, img *sysimage.Image) (syntacticOK, semanticOK bool) {
	switch t {
	case TypeString, "":
		return true, true
	case TypeBoolean:
		ok := IsBooleanWord(value)
		return ok, ok
	case TypeEnum:
		return true, true
	}
	def := inf.Def(t)
	if def == nil {
		return true, true
	}
	if !def.Match(value) {
		return false, false
	}
	if def.Verify == nil {
		return true, true
	}
	return true, def.Verify(value, img)
}

// LooksLikeRegexOrGlob reports whether a value uses wildcard or regex
// metacharacters. The paper notes such values (index specifications,
// LogFormat patterns) are a main source of inference error; the assembler
// uses this to skip semantic verification for them. It runs on every
// value of every checked image, so it is a byte switch rather than
// strings.ContainsAny, which builds its character set per call; the set
// is ASCII, so the two agree on every input.
func LooksLikeRegexOrGlob(v string) bool {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '*', '?', '[', ']', '^', '$', '(', ')', '%', '{', '}':
			return true
		}
	}
	return false
}
